"""Command-line interface: ingest, evaluate, sweep.

Every run is reproducible from its configuration alone; output artifacts
embed the fully resolved configuration and a content hash of the normalized
input, and contain no wall-clock data, so identical configs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType

from .decay import DecayParams, ExpDecayParams
from .edges import load_edge_list, serialize
from .errors import ConfigError, EvaluationError, SplitError, TlpssError
from .evaluation import (
    _BLOCK_CELLS,
    AUC_EXHAUSTIVE_LIMIT,
    AUC_SAMPLES,
    EvalReport,
    evaluate_methods,
    sweep,
)
from .scoring import ALL_METHODS, MethodId

__all__ = ["ExperimentConfig", "DEFAULT_PERIODS", "parse_period", "main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IMPOSSIBLE = 4

_MAX_SWEEP_VALUES = 10_000
# sampled AUC allocates four arrays of this many draws (320 MB at the cap)
_MAX_AUC_SAMPLES = 10_000_000

_PERIOD_UNITS = {"s": 1.0, "h": 3600.0, "d": 86400.0, "w": 604800.0, "y": 31536000.0}

# Default snapshot periods for the bundled dataset presets (Unix-second data).
DEFAULT_PERIODS = {
    "contact": "1h",
    "dblp": "1y",
    "digg": "1h",
    "enron": "1w",
    "facebook": "1d",
    "prosper": "1d",
}


def parse_period(value: float | str) -> float:
    """Period in raw timestamp units: a number, a duration like ``1h``/``2d``
    (units s, h, d, w, y), or a dataset preset name."""
    if isinstance(value, (int, float)):
        period = float(value)
    else:
        text = value.strip().lower()
        if text in DEFAULT_PERIODS:
            text = DEFAULT_PERIODS[text]
        try:
            if text and text[-1] in _PERIOD_UNITS:
                period = float(text[:-1] or 1) * _PERIOD_UNITS[text[-1]]
            else:
                period = float(text)
        except ValueError:
            raise ConfigError(f"cannot parse period {value!r}") from None
    if not (math.isfinite(period) and period > 0):
        raise ConfigError(f"period must be a finite number > 0, got {value!r}")
    return period


_NUMBER = (int, float)


@dataclass
class ExperimentConfig:
    """Everything needed to reproduce one run.  Serializable as a flat JSON
    document; command-line flags override file values."""

    dataset: str | None = None
    period: float | str | None = None
    origin: float = 1.0
    decay: str = "asf"
    p: float = 3.0
    q: float = 1.0
    a: float = 5.0
    theta: float = 0.5
    ratio: float = 0.9
    methods: list[str] = field(default_factory=lambda: [m.value for m in ALL_METHODS])
    top_l: int = 100
    auc_samples: int = AUC_SAMPLES
    auc_exhaustive_limit: int = AUC_EXHAUSTIVE_LIMIT
    max_negatives: int | None = None
    seed: int = 0
    agg: str = "sum"
    cclp_mode: str = "local"
    out_dir: str = "runs"
    format: str = "json"

    @classmethod
    def from_sources(cls, file_values: dict | None, flag_values: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        merged: dict = {}
        for source in (file_values or {}), flag_values:
            for key, value in source.items():
                if key not in known:
                    raise ConfigError(f"unknown config field {key!r}")
                if value is not None:
                    merged[key] = value
        return cls(**merged)

    def validate(self) -> None:
        # config files can hold any JSON type; bool is never a number here
        for f in dataclasses.fields(self):
            name, types, value = f.name, _FIELD_TYPES[f.name], getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, types):
                raise ConfigError(f"{name} has the wrong type: {value!r}")
            # every number is checked, also those the chosen decay mode ignores,
            # since all of them are written to the reports
            if float in types and isinstance(value, _NUMBER):
                try:
                    finite = math.isfinite(value)
                except OverflowError:  # an int beyond the float range
                    finite = False
                if not finite:
                    raise ConfigError(f"{name} must be a finite number, got {value!r}")
        if not all(isinstance(m, str) for m in self.methods):
            raise ConfigError(f"methods must be names, got {self.methods!r}")
        if not self.dataset:
            raise ConfigError("a dataset path is required")
        if self.period is None:
            raise ConfigError("a snapshot period is required (e.g. --period 1h)")
        parse_period(self.period)
        # inputs are normalized so that the earliest edge sits at time 1
        if not (math.isfinite(self.origin) and self.origin <= 1):
            raise ConfigError(f"origin must be a finite time <= 1, got {self.origin!r}")
        if not 0 < self.ratio < 1:
            raise ConfigError(f"ratio must lie in (0, 1), got {self.ratio!r}")
        if self.decay not in ("asf", "exp"):
            raise ConfigError(f"decay mode must be 'asf' or 'exp', got {self.decay!r}")
        self.decay_params()  # range-checks p/q/a or theta
        if not self.methods:
            raise ConfigError("at least one method is required")
        ids = self.method_ids()
        repeated = sorted({m.value for m in ids if ids.count(m) > 1})
        if repeated:
            raise ConfigError(f"methods are repeated: {', '.join(repeated)}")
        if self.top_l < 1:
            raise ConfigError(f"top_l must be >= 1, got {self.top_l!r}")
        if not 1 <= self.auc_samples <= _MAX_AUC_SAMPLES:
            raise ConfigError(
                f"auc_samples must lie in [1, {_MAX_AUC_SAMPLES}], got {self.auc_samples!r}"
            )
        if self.auc_exhaustive_limit < 0:
            raise ConfigError(
                f"auc_exhaustive_limit must be >= 0, got {self.auc_exhaustive_limit!r}"
            )
        if self.max_negatives is not None and self.max_negatives < 1:
            raise ConfigError("max_negatives must be >= 1 when given")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.agg not in ("sum", "latest"):
            raise ConfigError(f"agg must be 'sum' or 'latest', got {self.agg!r}")
        if self.cclp_mode not in ("local", "global"):
            raise ConfigError(f"cclp_mode must be 'local' or 'global', got {self.cclp_mode!r}")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"format must be 'json' or 'csv', got {self.format!r}")

    def decay_params(self) -> DecayParams | ExpDecayParams:
        if self.decay == "exp":
            return ExpDecayParams(theta=self.theta)
        return DecayParams(p=self.p, q=self.q, a=self.a)

    def method_ids(self) -> list[MethodId]:
        return [MethodId.parse(m) for m in self.methods]

    def resolved_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["period"] = parse_period(self.period)
        out["methods"] = [m.value for m in self.method_ids()]
        return out


def _json_types(hint) -> tuple:
    """The JSON types a field annotated ``hint`` accepts: a float field also
    takes an int, and ``list[str]`` means a list."""
    union = typing.get_origin(hint) in (typing.Union, UnionType)
    args = typing.get_args(hint) if union else (hint,)
    return tuple(
        t for a in args for t in (_NUMBER if a is float else (typing.get_origin(a) or a,))
    )


# JSON types each ExperimentConfig field accepts (None where it may be unset)
_FIELD_TYPES = {
    name: _json_types(hint) for name, hint in typing.get_type_hints(ExperimentConfig).items()
}


def _load_dataset(cfg: ExperimentConfig):
    edges, report = load_edge_list(cfg.dataset)
    buf = io.StringIO()
    serialize(edges, buf)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    return edges, report, digest


def _config_digest(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(
        json.dumps(cfg.resolved_dict(), sort_keys=True, allow_nan=False).encode()
    ).hexdigest()


def _write_reports_json(path: Path, cfg: ExperimentConfig, digest: str, reports: list[EvalReport]):
    payload = {
        "config": cfg.resolved_dict(),
        "config_sha256": _config_digest(cfg),
        "input_sha256": digest,
        "reports": [r.to_dict() for r in reports],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _write_csv(fh, reports: list[EvalReport], **trailer):
    """``CSV_FIELDS`` and ``trailer``'s names, then each report's row and ``trailer``'s values."""
    writer = csv.writer(fh)
    writer.writerow([*EvalReport.CSV_FIELDS, *trailer])
    for r in reports:
        writer.writerow([*r.csv_row(), *trailer.values()])


def _write_results_csv(path: Path, cfg: ExperimentConfig, digest: str, reports: list[EvalReport]):
    # every row stays traceable to the resolved config and input on its own
    with open(path, "w", newline="") as fh:
        _write_csv(fh, reports, input_sha256=digest, config_sha256=_config_digest(cfg))


def _print_reports(cfg: ExperimentConfig, reports: list[EvalReport]):
    if cfg.format == "json":
        print(
            json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True, allow_nan=False)
        )
    else:
        _write_csv(sys.stdout, reports)


def cmd_ingest(args) -> int:
    edges, report = load_edge_list(args.input)
    out_path = Path(args.output)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        serialize(edges, fh)
    report_path = Path(args.report) if args.report else out_path.with_suffix(
        out_path.suffix + ".report.json"
    )
    report_path.write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
    )
    print(
        f"kept {report.edges_kept} edges over {edges.node_count} nodes "
        f"({report.missing_ts_dropped} without timestamps, "
        f"{report.self_loops_dropped} self-loops dropped)"
    )
    return EXIT_OK


def _config_from_args(args) -> ExperimentConfig:
    file_values = None
    if args.config:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError("config file must hold a JSON object")
    flags = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(ExperimentConfig)
        if f.name != "methods"
    }
    flags["methods"] = args.method if args.method else None
    cfg = ExperimentConfig.from_sources(file_values, flags)
    cfg.validate()
    return cfg


def _eval_kwargs(cfg: ExperimentConfig) -> dict:
    return dict(
        period=parse_period(cfg.period),
        decay=cfg.decay_params(),
        methods=cfg.method_ids(),
        origin=cfg.origin,
        ratio=cfg.ratio,
        seed=cfg.seed,
        top_l=cfg.top_l,
        max_negatives=cfg.max_negatives,
        auc_exhaustive_limit=cfg.auc_exhaustive_limit,
        auc_samples=cfg.auc_samples,
        agg=cfg.agg,
        cclp_mode=cfg.cclp_mode,
    )


def cmd_evaluate(args) -> int:
    cfg = _config_from_args(args)
    edges, _, digest = _load_dataset(cfg)
    reports = evaluate_methods(edges, **_eval_kwargs(cfg))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_reports_json(out_dir / "report.json", cfg, digest, reports)
    _write_results_csv(out_dir / "results.csv", cfg, digest, reports)
    _print_reports(cfg, reports)
    return EXIT_OK


def _sweep_values(args) -> list[float]:
    if args.values:
        try:
            values = [float(v) for v in args.values.split(",") if v.strip() != ""]
        except ValueError:
            raise ConfigError(f"cannot parse sweep values {args.values!r}") from None
        if len(values) > _MAX_SWEEP_VALUES:
            raise ConfigError(f"values give more than {_MAX_SWEEP_VALUES} sweep values")
        return values
    if args.range:
        try:
            start, stop, step = (float(v) for v in args.range.split(":"))
        except ValueError:
            raise ConfigError(f"range must look like start:stop:step, got {args.range!r}") from None
        if not all(math.isfinite(x) for x in (start, stop, step)):
            raise ConfigError(f"range values must be finite, got {args.range!r}")
        # a step of one ulp of the endpoints or less may never advance the loop
        if step <= math.ulp(max(abs(start), abs(stop))):
            raise ConfigError("range step must be > 0 and change the values it is added to")
        if (stop - start) / step >= _MAX_SWEEP_VALUES:
            raise ConfigError(f"range gives more than {_MAX_SWEEP_VALUES} sweep values")
        values = []
        v = start
        while v <= stop + 1e-12:
            values.append(round(v, 12))
            v += step
        return values
    raise ConfigError("a sweep needs --values or --range")


def cmd_sweep(args) -> int:
    cfg = _config_from_args(args)
    if cfg.decay != "asf":
        raise ConfigError("sweeps over p or q require --decay asf")
    values = _sweep_values(args)
    edges, _, digest = _load_dataset(cfg)
    reports = sweep(edges, args.param, values, **_eval_kwargs(cfg))
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_reports_json(out_dir / "sweep_reports.json", cfg, digest, reports)
    tidy = out_dir / "sweep.csv"
    with open(tidy, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "param", "value", "auc", "precision", "input_sha256", "config_sha256"]
        )
        trailer = [digest, _config_digest(cfg)]
        for r in reports:
            writer.writerow(
                [r.method, args.param, r.decay[args.param], r.auc, r.precision] + trailer
            )
    print(f"wrote {len(reports)} sweep rows to {tidy}")
    return EXIT_OK


def _add_experiment_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--dataset", help="path to a timestamped edge list")
    sub.add_argument("--period", help="snapshot period: seconds, duration (1h/1d/1w/1y) or preset name")
    sub.add_argument("--origin", type=float, help="time of snapshot index 0, at most 1 (default 1)")
    sub.add_argument("--decay", choices=["asf", "exp"], help="decay mode (default asf)")
    sub.add_argument("--p", type=float, help="ASF active-period scale")
    sub.add_argument("--q", type=float, help="ASF stable-floor control")
    sub.add_argument("--a", type=float, help="ASF position offset (default 5)")
    sub.add_argument("--theta", type=float, help="exponential damping factor")
    sub.add_argument("--ratio", type=float, help="train fraction of the time split (default 0.9)")
    sub.add_argument(
        "--method",
        action="append",
        help="method to run (tlpss, cn, ja, pa, ra, car, cclp); repeatable; default all",
    )
    sub.add_argument("--top-l", dest="top_l", type=int, help="precision cut L (default 100)")
    sub.add_argument("--auc-samples", dest="auc_samples", type=int,
                     help="sampled AUC comparisons when exhaustive is too large")
    sub.add_argument("--auc-exhaustive-limit", dest="auc_exhaustive_limit", type=int,
                     help="max |pos|*|neg| for exhaustive AUC")
    sub.add_argument("--max-negatives", dest="max_negatives", type=int,
                     help="negative sample budget (default min(universe, 10*|pos|, 1e6))")
    sub.add_argument("--seed", type=int, help="RNG seed for sampling (default 0)")
    sub.add_argument("--agg", choices=["sum", "latest"], help="multi-edge weight aggregation")
    sub.add_argument("--cclp-mode", dest="cclp_mode", choices=["local", "global"])
    sub.add_argument("--out-dir", dest="out_dir", help="output directory (default runs/)")
    sub.add_argument("--format", choices=["json", "csv"], help="stdout format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlpss",
        description="Temporal link prediction with time-decayed structural scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="normalize an edge list and write a drop report")
    p_ingest.add_argument("input")
    p_ingest.add_argument("output")
    p_ingest.add_argument("--report", help="drop-report path (default <output>.report.json)")
    p_ingest.set_defaults(func=cmd_ingest)

    p_eval = sub.add_parser("evaluate", help="run methods on one dataset and report AUC/precision")
    _add_experiment_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sweep = sub.add_parser("sweep", help="evaluate across a range of p or q values")
    _add_experiment_flags(p_sweep)
    p_sweep.add_argument("--param", choices=["p", "q"], required=True)
    p_sweep.add_argument("--values", help="comma-separated sweep values")
    p_sweep.add_argument("--range", help="start:stop:step sweep values")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SplitError, EvaluationError) as exc:
        print(f"evaluation impossible: {exc}", file=sys.stderr)
        return EXIT_IMPOSSIBLE
    except MemoryError:
        print(
            "evaluation impossible: out of memory (scores are held one block of at most "
            f"{_BLOCK_CELLS:,} cells, {_BLOCK_CELLS * 8 // 2**20} MB per array, at a time: "
            "rows against the later nodes a bound can reach; the sparse adjacency, "
            "the latent weights and their two-hop plan, and the sampled pairs are held whole)",
            file=sys.stderr,
        )
        return EXIT_IMPOSSIBLE
    except (TlpssError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end tests of the command-line interface."""

import importlib
import inspect
import json
import random
import threading
import warnings

import numpy as np
import pytest

from tlpss import cli, evaluation
from tlpss.cli import DEFAULT_PERIODS, ExperimentConfig, main, parse_period
from tlpss.errors import ConfigError
from tlpss.evaluation import EvalReport, evaluate_methods


class TestIngest:
    def test_writes_normalized_output_and_report(self, dataset, tmp_path, capsys):
        out = tmp_path / "norm.tsv"
        assert main(["ingest", str(dataset), str(out)]) == 0
        report = json.loads((tmp_path / "norm.tsv.report.json").read_text())
        assert report["missing_ts_dropped"] == 1
        assert report["self_loops_dropped"] >= 1
        assert report["lines_read"] == len(dataset.read_text().splitlines())
        first = out.read_text()
        ts = [int(line.split()[2]) for line in first.splitlines()]
        assert ts[0] == 1 and ts == sorted(ts)

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        out1 = tmp_path / "n1.tsv"
        out2 = tmp_path / "n2.tsv"
        assert main(["ingest", str(dataset), str(out1)]) == 0
        assert main(["ingest", str(out1), str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_comment_only_file_is_a_data_error(self, tmp_path, capsys):
        src = tmp_path / "empty.tsv"
        src.write_text("% nothing here\n")
        assert main(["ingest", str(src), str(tmp_path / "out.tsv")]) == 3

    @pytest.mark.parametrize("first", ["comment", "edge"])
    def test_byte_order_mark_is_skipped(self, dataset, tmp_path, capsys, first):
        lines = dataset.read_text().splitlines(keepends=True)
        assert lines[0].startswith("%")
        plain = tmp_path / "plain.tsv"
        plain.write_text("".join(lines if first == "comment" else lines[1:]))
        marked = tmp_path / "marked.tsv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for src in (plain, marked):
            out = tmp_path / f"{src.stem}.out.tsv"
            assert main(["ingest", str(src), str(out)]) == 0
            run = tmp_path / f"{src.stem}.run"
            assert main([
                "evaluate", "--dataset", str(src), "--period", "80", "--method", "cn",
                "--top-l", "5", "--out-dir", str(run),
            ]) == 0
            digest = json.loads((run / "report.json").read_text())["input_sha256"]
            outputs.append((out.read_bytes(), digest))
        assert outputs[1] == outputs[0]


    def test_input_fingerprint(self, tmp_path, capsys):
        # negative ids, ids at the int64 limits, 1- to 18-digit normalized
        # times and CRLF lines; the digest was recorded before bulk reading
        lo, hi = -(2**63), 2**63 - 1
        rows = [
            (lo, -3, -7), (-1, -3, 4), (-1, 0, 115), (5, 0, 1226), (5, hi, 12337),
            (12, hi, 123448), (12, 40, 1234559), (lo, 40, 12345670), (lo, -1, 123456781),
            (5, 5, -8), (0, -3, 1234567882), (-1, 5, 12345678893), (hi, 0, 123456789004),
            (5, 12, 1234567890115), (40, hi, 12345678901226), (12, lo, 123456789012337),
            (-3, 40, 1234567890123448), (-3, lo, 12345678901234559),
            (-1, 0, 123456789012345670), (lo, 0, 199999999999999992),
            (5, -3, 299999999999999992),
        ]
        src = tmp_path / "raw.tsv"
        src.write_bytes(b"% fingerprint\r\n" + b"".join(b"%d %d 1 %d\r\n" % r for r in rows))
        out = tmp_path / "norm.tsv"
        assert main(["ingest", str(src), str(out)]) == 0
        assert out.read_text() == (
            "-9223372036854775808 -3 1\n"
            "-3 -1 12\n"
            "-1 0 123\n"
            "0 5 1234\n"
            "5 9223372036854775807 12345\n"
            "12 9223372036854775807 123456\n"
            "12 40 1234567\n"
            "-9223372036854775808 40 12345678\n"
            "-9223372036854775808 -1 123456789\n"
            "-3 0 1234567890\n"
            "-1 5 12345678901\n"
            "0 9223372036854775807 123456789012\n"
            "5 12 1234567890123\n"
            "40 9223372036854775807 12345678901234\n"
            "-9223372036854775808 12 123456789012345\n"
            "-3 40 1234567890123456\n"
            "-9223372036854775808 -3 12345678901234567\n"
            "-1 0 123456789012345678\n"
            "-9223372036854775808 0 200000000000000000\n"
            "-3 5 300000000000000000\n"
        )
        run = tmp_path / "run"
        assert main([
            "evaluate", "--dataset", str(src), "--period", "1e16", "--method", "cn",
            "--top-l", "5", "--out-dir", str(run),
        ]) == 0
        digest = json.loads((run / "report.json").read_text())["input_sha256"]
        assert digest == "155d3135f7d3bc41a34feeb065adf9835f30080874142d236e5491a64a3b2453"


class TestEvaluate:
    def test_writes_reports_and_csv(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "run"
        code = main([
            "evaluate", "--dataset", str(dataset), "--period", "80",
            "--p", "3", "--q", "1", "--method", "tlpss", "--method", "ra",
            "--top-l", "5", "--out-dir", str(out_dir), "--format", "csv",
        ])
        assert code == 0
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["config"]["methods"] == ["TLPSS", "RA_ASF"]
        assert len(payload["input_sha256"]) == 64
        assert len(payload["reports"]) == 2
        for r in payload["reports"]:
            assert 0 <= r["auc"] <= 1
        csv_text = (out_dir / "results.csv").read_text().splitlines()
        assert csv_text[0].startswith("method,")
        assert len(csv_text) == 3
        assert "TLPSS" in capsys.readouterr().out

    def test_same_config_same_bytes(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "run"
        args = [
            "evaluate", "--dataset", str(dataset), "--period", "80",
            "--method", "cn", "--top-l", "5", "--out-dir", str(out_dir),
        ]
        assert main(args) == 0
        first = (out_dir / "report.json").read_bytes()
        assert main(args) == 0
        assert (out_dir / "report.json").read_bytes() == first

    def test_each_scoring_route_gives_the_same_bytes(self, dataset, tmp_path, monkeypatch):
        from tlpss import scoring

        dense_rows = scoring._dense_rows
        out_dir = tmp_path / "run"
        artifacts = []
        # the sparse route everywhere, then the dense-operand route wherever
        # its operands allow it
        for ratio in (0, 10**12):
            monkeypatch.setattr(scoring, "_DENSE_RATIO", ratio)
            calls = []
            monkeypatch.setattr(
                scoring, "_dense_rows", lambda *a: calls.append(1) or dense_rows(*a)
            )
            assert main([
                "evaluate", "--dataset", str(dataset), "--period", "80",
                "--out-dir", str(out_dir / "evaluate"), "--format", "csv",
            ]) == 0
            assert main([
                "sweep", "--dataset", str(dataset), "--period", "80", "--param", "q",
                "--range", "0:2:1", "--method", "tlpss", "--method", "cn",
                "--out-dir", str(out_dir / "sweep"),
            ]) == 0
            assert bool(calls) == bool(ratio)
            artifacts.append([
                (out_dir / name).read_bytes()
                for name in (
                    "evaluate/report.json", "evaluate/results.csv",
                    "sweep/sweep.csv", "sweep/sweep_reports.json",
                )
            ])
        assert artifacts[0] == artifacts[1]

    def test_config_file_with_flag_override(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "dataset": str(dataset),
            "period": "80",
            "methods": ["pa"],
            "top_l": 5,
            "out_dir": str(tmp_path / "rc"),
        }))
        assert main(["evaluate", "--config", str(cfg), "--top-l", "3"]) == 0
        payload = json.loads((tmp_path / "rc" / "report.json").read_text())
        assert payload["config"]["top_l"] == 3
        assert payload["reports"][0]["method"] == "PA_ASF"

    def test_missing_period_is_config_error(self, dataset, capsys):
        assert main(["evaluate", "--dataset", str(dataset)]) == 2

    def test_bad_method_is_config_error(self, dataset, capsys):
        assert main([
            "evaluate", "--dataset", str(dataset), "--period", "80",
            "--method", "pagerank",
        ]) == 2

    def test_unsplittable_data_is_evaluation_impossible(self, tmp_path, capsys):
        src = tmp_path / "flat.tsv"
        src.write_text("1 2 1 100\n2 3 1 100\n3 4 1 100\n")
        assert main([
            "evaluate", "--dataset", str(src), "--period", "10",
        ]) == 4


class TestBadInputs:
    """Inputs that once ended in a traceback or in non-standard JSON."""

    @pytest.mark.parametrize(
        "flags, raw, config, code",
        [
            (["--period", "inf"], None, None, 2),
            (["--period", "80", "--origin", "1e9"], None, None, 2),
            (["--period", "80"], b"1 2 1 40\n2 3 1 \xff\xfe\n", None, 3),
            (["--period", "80", "--seed", "-3"], None, None, 2),
            (["--period", "80", "--auc-exhaustive-limit", "-5"], None, None, 2),
            (["--period", "80"], None, {"ratio": "x"}, 2),
            (["--period", "1e-320"], None, None, 2),
            (["--q", "0", "--p", "0.5", "--period", "1"], None, None, 2),
            (["--decay", "exp", "--theta", "0.9", "--period", "1"], None, None, 2),
            (["--period", "80"], None, {"theta": float("nan")}, 2),
            (["--period", "80"], b"1 1 1 5\n2 2 1 9\n", None, 4),
            (["--period", "80"], b"1 2 1 0\n2 3 1 99999999999999999999\n", None, 3),
            (["--period", "80", "--auc-samples", str(10**30)], None, None, 2),
            (["--period", "80"], b"1 2 1 0\n99999999999999999999 3 1 7\n2 3 1 9\n", None, 3),
            (["--period", "80", "--method", "tlpss", "--method", "TLPSS", "--method", "cn"],
             None, None, 2),
        ],
        ids=[
            "period-inf", "origin-late", "non-utf8", "seed-negative", "auc-limit-negative",
            "config-ratio-string", "period-tiny", "asf-weight-underflow",
            "exp-weight-underflow", "config-unused-nan", "self-loops-only", "timestamp-huge",
            "auc-samples-huge", "node-id-huge", "method-repeated",
        ],
    )
    def test_ends_in_documented_exit_code(
        self, dataset, tmp_path, capsys, flags, raw, config, code
    ):
        if raw is not None:
            dataset = tmp_path / "latin.tsv"
            dataset.write_bytes(raw)
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = ["--config", str(cfg), *flags]
        out_dir = tmp_path / "run"
        assert main(["evaluate", "--dataset", str(dataset), *flags, "--out-dir", str(out_dir)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize(
        "args",
        [["evaluate", "--p", "1e-310"], ["sweep", "--param", "p", "--values", "1e-320"]],
        ids=["evaluate", "sweep"],
    )
    def test_subnormal_p_runs_without_a_warning(self, dataset, tmp_path, capsys, args):
        # every train edge's x / p overflows to inf: each weight is the floor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                *args, "--dataset", str(dataset), "--period", "80",
                "--out-dir", str(tmp_path / "run"),
            ]) == 0
        assert capsys.readouterr().err == ""

    def test_top_l_above_the_universe_exits_4_before_scoring(
        self, dataset, tmp_path, capsys, monkeypatch
    ):
        calls = []
        monkeypatch.setattr("tlpss.evaluation.score_matrix", lambda *a, **k: calls.append(a))
        out_dir = tmp_path / "run"
        assert main([
            "evaluate", "--dataset", str(dataset), "--period", "80", "--method", "pa",
            "--method", "cn", "--top-l", "8000000", "--out-dir", str(out_dir),
        ]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert err.startswith("evaluation impossible: only ")
        assert err.strip().endswith(" candidates for precision@8000000")
        assert calls == []
        assert not (out_dir / "report.json").exists()

    def test_out_of_memory_ends_in_exit_4(self, dataset, tmp_path, capsys, monkeypatch):
        def no_memory(A, *args, **kwargs):
            raise MemoryError(f"cannot hold a score block of {A.n} nodes")

        monkeypatch.setattr("tlpss.evaluation.score_matrix", no_memory)
        out_dir = tmp_path / "run"
        assert main([
            "evaluate", "--dataset", str(dataset), "--period", "80", "--out-dir", str(out_dir)
        ]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert err.startswith("evaluation impossible: out of memory")
        # the block size it names is evaluation's own
        cells = evaluation._BLOCK_CELLS
        assert f" {cells:,} cells, {cells * 8 // 2**20} MB per array," in err
        assert not (out_dir / "report.json").exists()

    @pytest.mark.parametrize(
        "kernel",
        [
            "tlpss.scoring._sparse_rows",
            "tlpss.scoring._dense_rows",
            "tlpss.scoring._triangle_rows",
            "tlpss.adjacency._plan_block",
            "tlpss.adjacency._run_sums",
            "tlpss.adjacency._with_links",
        ],
    )
    def test_out_of_memory_in_a_worker_thread_ends_in_exit_4(
        self, dataset, tmp_path, capsys, monkeypatch, kernel
    ):
        threads = []
        module, name = kernel.rsplit(".", 1)
        run = getattr(importlib.import_module(module), name)

        def no_memory(*args):
            # a task the calling thread runs itself, such as a bounded
            # method's one-row first block, runs as it would
            if threading.current_thread() is threading.main_thread():
                return run(*args)
            threads.append(threading.current_thread())
            raise MemoryError("cannot hold a part")

        # two workers, and several row parts and plan blocks to share out
        monkeypatch.setattr("tlpss.adjacency._workers", lambda: 2)
        monkeypatch.setattr("tlpss.adjacency._PART", 16)
        monkeypatch.setattr(kernel, no_memory)
        out_dir = tmp_path / "run"
        assert main([
            "evaluate", "--dataset", str(dataset), "--period", "80", "--out-dir", str(out_dir)
        ]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert err.startswith("evaluation impossible: out of memory")
        assert not (out_dir / "report.json").exists()
        assert threads


    def test_csv_columns(self, dataset, tmp_path, capsys):
        fields = (
            "method,p,q,a,theta,period,ratio,auc,precision,top_l,comparisons,"
            "n_positives,seed"
        )
        out_dir = tmp_path / "run"
        assert main([
            "evaluate", "--dataset", str(dataset), "--period", "80", "--method", "cn",
            "--top-l", "5", "--out-dir", str(out_dir), "--format", "csv",
        ]) == 0
        header = (out_dir / "results.csv").read_text().splitlines()[0]
        assert header == fields + ",input_sha256,config_sha256"
        assert capsys.readouterr().out.splitlines()[0] == fields
        # each column is the report's own field (n_positives is the
        # report's, not the split's) or its decay's, snapshot's or split's,
        # and empty where the decay has no such parameter
        common = dict(
            snapshot={"period": 80.0, "origin": 1.0},
            split={"train_edges": 9, "test_edges": 2, "t_split": 40, "n_positives": 4,
                   "ratio": 0.9},
            auc=0.75, precision=0.2, top_l=5, comparisons=12, n_positives=3,
            n_sampled_negatives=4, negative_universe=30, seed=7,
        )
        asf = EvalReport(
            method="TLPSS", decay={"mode": "asf", "p": 3.0, "q": 1.0, "a": 2.0}, **common
        )
        exp = EvalReport(method="CN_ASF", decay={"mode": "exp", "theta": 0.5}, **common)
        assert asf.csv_row() == ["TLPSS", 3.0, 1.0, 2.0, "", 80.0, 0.9, 0.75, 0.2, 5, 12, 3, 7]
        assert exp.csv_row() == ["CN_ASF", "", "", "", 0.5, 80.0, 0.9, 0.75, 0.2, 5, 12, 3, 7]


class TestSweep:
    def test_tidy_csv(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "sw"
        code = main([
            "sweep", "--dataset", str(dataset), "--period", "80",
            "--param", "q", "--range", "0:2:1", "--method", "tlpss",
            "--method", "cn", "--top-l", "5", "--out-dir", str(out_dir),
        ])
        assert code == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert rows[0] == "method,param,value,auc,precision,input_sha256,config_sha256"
        assert len(rows) == 1 + 2 * 3
        assert (out_dir / "sweep_reports.json").exists()

    def test_values_flag(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "sw2"
        assert main([
            "sweep", "--dataset", str(dataset), "--period", "80",
            "--param", "p", "--values", "1,2.5", "--method", "ra",
            "--top-l", "5", "--out-dir", str(out_dir),
        ]) == 0
        rows = (out_dir / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3

    @pytest.mark.parametrize("bad", ["0:inf:1", "0:1e9:1", "1e17:1.00000000000000016e17:0.002"])
    def test_unbounded_range_rejected(self, dataset, tmp_path, capsys, bad):
        assert main([
            "sweep", "--dataset", str(dataset), "--period", "80", "--param", "q",
            "--range", bad, "--out-dir", str(tmp_path / "sw"),
        ]) == 2

    # the value list is checked before the (missing) dataset is read
    @pytest.mark.parametrize("count, code", [(10_000, 3), (10_001, 2)])
    def test_value_list_capped_like_range(self, tmp_path, capsys, count, code):
        out_dir = tmp_path / "sw"
        assert main([
            "sweep", "--dataset", str(tmp_path / "missing.tsv"), "--period", "80",
            "--param", "q", "--values", ",".join(str(k) for k in range(count)),
            "--out-dir", str(out_dir),
        ]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not out_dir.exists()

    def test_sweep_needs_values(self, dataset, capsys):
        assert main([
            "sweep", "--dataset", str(dataset), "--period", "80", "--param", "q",
        ]) == 2


class TestPeriodParsing:
    def test_durations(self):
        assert parse_period(3600) == 3600.0
        assert parse_period("1h") == 3600.0
        assert parse_period("2d") == 172800.0
        assert parse_period("1w") == 604800.0
        assert parse_period("1y") == 31536000.0
        assert parse_period("450") == 450.0

    def test_presets(self):
        assert parse_period("contact") == 3600.0
        assert parse_period("enron") == 604800.0
        assert set(DEFAULT_PERIODS) == {
            "contact", "dblp", "digg", "enron", "facebook", "prosper",
        }

    def test_rejects_garbage(self):
        for bad in ("", "fast", "-1h", "0", "inf", "nan", float("inf")):
            with pytest.raises(ConfigError):
                parse_period(bad)


class TestConfigValidation:
    def test_unknown_field_rejected(self):
        # subgraph_* were fields of older versions
        for field in ("bogus", "subgraph_seeds", "subgraph_hops"):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_sources({"dataset": "x", field: 1}, {})

    def test_ranges_checked(self):
        base = dict(dataset="x", period="1h")
        for overrides in (
            {"ratio": 1.5},
            {"p": -1.0},
            {"theta": 2.0, "decay": "exp"},
            {"top_l": 0},
            {"agg": "max"},
            {"format": "xml"},
            {"methods": []},
            # wrong JSON types and numbers that are not finite floats
            {"ratio": "x"},
            {"top_l": 5.0},
            {"seed": True},
            {"out_dir": 5},
            {"methods": [1]},
            {"theta": float("nan")},
            {"p": 10**400},
        ):
            cfg = ExperimentConfig(**base, **overrides)
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_auc_samples_capped(self):
        base = dict(dataset="x", period="1h")
        ExperimentConfig(**base, auc_samples=10_000_000).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(**base, auc_samples=10_000_001).validate()

    def test_resolved_dict_roundtrips(self):
        cfg = ExperimentConfig(dataset="d", period="1h", methods=["cn", "tlpss"])
        resolved = cfg.resolved_dict()
        assert resolved["period"] == 3600.0
        assert resolved["methods"] == ["CN_ASF", "TLPSS"]

    def test_library_defaults_equal_the_config_defaults(self, dataset):
        # the CLI passes every option from ExperimentConfig; a library call
        # that passes only the required ones must give the same reports
        cfg = ExperimentConfig(dataset=str(dataset), period=80)
        edges, _, _ = cli._load_dataset(cfg)
        options = cli._eval_kwargs(cfg)
        run_options = set(inspect.signature(evaluation._run).parameters) - {"edges", "decays"}
        assert set(options) == run_options | {"decay"}
        required = {name: options[name] for name in ("period", "decay", "methods")}
        assert evaluate_methods(edges, **required) == evaluate_methods(edges, **options)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _fuzz_datasets(root, rng):
    """Small generated edge lists, valid and malformed, keyed by kind."""

    def edge_lines(n, rows, same_ts=False):
        step = rng.choice([1, 40, 3600])
        lines = []
        for row in range(rows):
            u, v = rng.randint(1, n), rng.randint(1, n)
            ts = 500 if same_ts else (row - rng.randint(0, 1)) * step  # some ties
            lines.append(rng.choice([f"{u} {v} {ts}", f"{u} {v} 1 {ts}"]))
        return lines

    files = {}
    for k in range(4):
        files[f"valid{k}"] = "\n".join(
            ["% generated"] + edge_lines(rng.randint(10, 30), rng.randint(40, 150))
        ).encode()
    garbage = edge_lines(12, 60)
    garbage[rng.randrange(len(garbage))] = rng.choice(["a b c d e", "x y 1 2", "1", "1 2 3 4 5"])
    files["garbage"] = "\n".join(garbage).encode()
    files["missing-ts"] = "\n".join(edge_lines(10, 50) + ["3 4", "5 6 1 soon"]).encode()
    files["empty"] = b""
    files["comments"] = b"% nothing\n% here\n"
    files["non-utf8"] = "\n".join(edge_lines(10, 40)).encode() + b"\n1 2 1 \xff\xfe\n"
    files["single-ts"] = "\n".join(edge_lines(10, 40, same_ts=True)).encode()
    files["self-loops"] = b"1 1 1 5\n2 2 1 9\n"
    files["huge-ts"] = b"1 2 1 0\n2 3 1 99999999999999999999\n3 4 1 7\n"
    files["huge-node-id"] = b"1 2 1 0\n99999999999999999999 3 1 7\n3 4 1 9\n"
    paths = {}
    for name, data in files.items():
        paths[name] = root / f"{name}.tsv"
        paths[name].write_bytes(data)
    paths["missing"] = root / "absent.tsv"
    paths["directory"] = root
    return paths


# per flag: valid values, then out-of-range, wrong-type and non-finite ones.
_FUZZ_FLAGS = {
    "--period": (
        ["80", "1h", "contact", "3", "2000"],
        ["0", "-5", "abc", "", "inf", "nan", "1e-320"],
    ),
    "--origin": (["1", "0", "-100"], ["2", "x", "inf", "nan", "-1e308"]),
    "--p": (["3", "0.5", "10"], ["0", "-1", "x", "inf", "nan"]),
    "--q": (["0", "1", "10"], ["-1", "x", "inf", "nan"]),
    "--a": (["5", "0", "-3"], ["x", "inf", "nan"]),
    "--theta": (["0.5", "0.1"], ["0", "1", "x", "nan"]),
    "--ratio": (["0.9", "0.5", "0.75"], ["0", "1", "1.5", "x", "nan", "1e-320"]),
    "--top-l": (["1", "5", "100"], ["0", "-1", "x", str(10**30)]),
    "--auc-samples": (["1", "7", "1000"], ["0", "-1", "x", str(10**30)]),
    "--auc-exhaustive-limit": (["0", "10", "10000000"], ["-5", "x"]),
    "--max-negatives": (["1", "10", str(10**12)], ["0", "-3", "x"]),
    "--seed": (["0", "7", str(2**70)], ["-1", "x"]),
    "--method": (["tlpss", "cn", "ja", "pa", "ra", "car", "cclp"], ["pagerank", ""]),
    "--decay": (["asf", "exp"], ["log"]),
    "--agg": (["sum", "latest"], ["max"]),
    "--cclp-mode": (["local", "global"], ["both"]),
    "--format": (["json", "csv"], ["xml"]),
}
_SWEEP_FLAGS = {
    "--values": (["1,2", "0,0.5", "3"], ["", "x,1", "nan", "inf", "-1,2"]),
    "--range": (["0:2:1", "1:3:1"], ["0:inf:1", "0:1e9:1", "2:1:1", "0:1:0", "1:nan:1", "a:b:c"]),
}
_FUZZ_JSON = [
    None, True, False, "x", "", [], [1], {}, 0, -1, 1.5, 10**400, float("nan"), float("inf"),
]
_CONFIG_FIELDS = [
    "period", "origin", "decay", "p", "q", "a", "theta", "ratio", "methods", "top_l",
    "auc_samples", "auc_exhaustive_limit", "max_negatives", "seed", "agg", "cclp_mode",
    "format",
]


def _fuzz_argv(rng, datasets, run_dir):
    command = rng.choice(["evaluate", "sweep"])
    good = rng.random() < 0.6  # mostly-valid argument sets, so runs get far
    names = list(datasets)
    name = rng.choice([n for n in names if n.startswith("valid")] if rng.random() < 0.7 else names)
    argv = [command, "--dataset", str(datasets[name])]
    if good or rng.random() < 0.8:
        argv += ["--period", rng.choice(["80", "1h", "2000"])]
    for flag, (valid, bad) in _FUZZ_FLAGS.items():
        if rng.random() < 0.3:
            value = rng.choice(valid if good or rng.random() < 0.5 else bad)
            argv += [flag, value]
    if command == "sweep":
        argv += ["--param", rng.choice(["p", "q"] if good else ["p", "q", "a"])]
        flag = rng.choice(list(_SWEEP_FLAGS))
        valid, bad = _SWEEP_FLAGS[flag]
        argv += [flag, rng.choice(valid if good else bad)]
    if rng.random() < 0.25:
        config = {f: rng.choice(_FUZZ_JSON) for f in rng.sample(_CONFIG_FIELDS, rng.randint(1, 3))}
        path = run_dir.with_suffix(".json")
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    return argv + ["--out-dir", str(run_dir)]


class TestFuzz:
    """Seeded random argument sets and inputs end in a documented exit code
    and standard JSON."""

    def test_random_cli_runs(self, tmp_path, capsys):
        rng = random.Random(20261017)
        data_dir = tmp_path / "data"
        data_dir.mkdir()
        datasets = _fuzz_datasets(data_dir, rng)
        codes = []
        for k in range(200):
            run_dir = tmp_path / f"run{k}"
            argv = _fuzz_argv(rng, datasets, run_dir)
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejected a flag
                code = exc.code
            captured = capsys.readouterr()
            assert code in (0, 2, 3, 4), argv
            assert "Traceback" not in captured.err, argv
            for written in run_dir.glob("*.json"):
                json.loads(written.read_text(), parse_constant=_reject_constant)
            report = run_dir / "report.json"
            if code == 0 and report.exists():
                fmt = json.loads(report.read_text())["config"]["format"]
                if fmt == "json":
                    json.loads(captured.out, parse_constant=_reject_constant)
            codes.append(code)
        assert set(codes) == {0, 2, 3, 4}, codes

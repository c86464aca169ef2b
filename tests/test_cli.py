"""End-to-end tests of the command-line interface."""

import json

import numpy as np
import pytest

from tlpss.cli import DEFAULT_PERIODS, ExperimentConfig, main, parse_period
from tlpss.errors import ConfigError


@pytest.fixture()
def dataset(tmp_path):
    """KONECT-style file with comments, a missing timestamp and a self-loop."""
    rng = np.random.default_rng(19)
    lines = ["% synthetic network"]
    n = 30
    for t in range(1, 260):
        a = int(rng.integers(1, n + 1))
        if rng.random() < 0.75:
            b = int(((a - 1) // 10) * 10 + rng.integers(1, 11))
        else:
            b = int(rng.integers(1, n + 1))
        lines.append(f"{a} {b} 1 {t * 40}")
    lines.append("3 4")
    lines.append("6 6 1 400")
    path = tmp_path / "net.tsv"
    path.write_text("\n".join(lines) + "\n")
    return path


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
        "flags, raw, code",
        [
            (["--period", "inf"], None, 2),
            (["--period", "80", "--origin", "1e9"], None, 2),
            (["--period", "80"], b"1 2 1 40\n2 3 1 \xff\xfe\n", 3),
            (["--period", "80", "--seed", "-3"], None, 2),
            (["--period", "80", "--auc-exhaustive-limit", "-5"], None, 2),
        ],
        ids=["period-inf", "origin-late", "non-utf8", "seed-negative", "auc-limit-negative"],
    )
    def test_ends_in_documented_exit_code(self, dataset, tmp_path, capsys, flags, raw, code):
        if raw is not None:
            dataset = tmp_path / "latin.tsv"
            dataset.write_bytes(raw)
        out_dir = tmp_path / "run"
        assert main(["evaluate", "--dataset", str(dataset), *flags, "--out-dir", str(out_dir)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
        assert not (out_dir / "report.json").exists()


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
        ):
            cfg = ExperimentConfig(**base, **overrides)
            with pytest.raises(ConfigError):
                cfg.validate()

    def test_resolved_dict_roundtrips(self):
        cfg = ExperimentConfig(dataset="d", period="1h", methods=["cn", "tlpss"])
        resolved = cfg.resolved_dict()
        assert resolved["period"] == 3600.0
        assert resolved["methods"] == ["CN_ASF", "TLPSS"]

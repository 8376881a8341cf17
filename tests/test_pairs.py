"""The pair runner's verdicts, aggregation and harness check, on synthetic
records and temporary trees; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "pairs.py"
METRICS = [{"name": "rtf", "better": "lower"}, {"name": "peak_rss_mb", "better": "lower"},
           {"name": "iva_sisnr_gain_db", "better": "higher"}]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location("pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tree(root: Path, run_py: str = "print('run')\n") -> Path:
    (root / "perfbench" / "tests").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "perfbench" / "tests" / "test_x.py").write_text("")
    return root


def record(rtf, raw_rtf, rss, gain=4.7706, failed=0):
    def metric(value):
        return {"value": value, "unit": ""}
    scaled = {"rtf": metric(rtf), "peak_rss_mb": metric(rss), "iva_sisnr_gain_db": metric(gain)}
    return {"attempted": 10, "failed": failed, "metrics": scaled,
            "raw_metrics": {**scaled, "rtf": metric(raw_rtf)}}


class TestVerdict:
    def test_nine_of_ten_wins_beyond_the_spread_is_better(self, pairs):
        base = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
        change = [b - 1.0 for b in base[:9]] + [base[9] + 0.1]
        v = pairs.verdict(base, change, "lower")
        assert (v["wins"], v["pairs"], v["verdict"]) == (9, 10, "better")
        assert v["base"] == {"q1": pytest.approx(10.225), "median": pytest.approx(10.45),
                             "q3": pytest.approx(10.675)}
        assert v["change"]["median"] == pytest.approx(9.45)
        assert v["change_over_base"] == pytest.approx(9.45 / 10.45)

    def test_eight_of_ten_wins_is_unresolved(self, pairs):
        base = [10.0 + 0.1 * i for i in range(10)]
        change = [b - 1.0 for b in base[:8]] + [b + 0.1 for b in base[8:]]
        assert pairs.verdict(base, change, "lower")["verdict"] == "unresolved"

    def test_every_win_inside_the_spread_is_unresolved(self, pairs):
        # the median gap, 0.05, is below the base's quartile distance, 0.45
        base = [10.0 + 0.1 * i for i in range(10)]
        change = [b - 0.05 for b in base]
        v = pairs.verdict(base, change, "lower")
        assert v["wins"] == 10 and v["verdict"] == "unresolved"

    def test_higher_is_better_and_worse_and_same(self, pairs):
        base = [4.0, 4.1, 4.2, 4.3]
        assert pairs.verdict(base, [b + 1 for b in base], "higher")["verdict"] == "better"
        assert pairs.verdict(base, [b - 1 for b in base], "higher")["verdict"] == "worse"
        assert pairs.verdict(base, [b + 1 for b in base], "lower")["verdict"] == "worse"
        v = pairs.verdict(base, list(base), "higher")
        assert (v["wins"], v["verdict"]) == (0, "same")

    def test_seed_ranges(self, pairs):
        assert pairs.seed_range("7601-7606") == [7601, 7602, 7603, 7604, 7605, 7606]
        assert pairs.seed_range("3") == [3]
        for bad in ("5-4", "a-b", ""):
            with pytest.raises(Exception):
                pairs.seed_range(bad)


class TestCompare:
    def test_pairs_alternate_and_aggregate(self, pairs, tmp_path):
        base, change = tree(tmp_path / "base"), tree(tmp_path / "change")
        calls = []

        def run(root, workload, seed, seconds):
            calls.append((root.name, seed))
            side = root.name
            # the change's peak is 1 MB lower on every seed; its scaled rtf
            # moves inside the spread, its raw rtf 20% lower on every seed
            rss = 50.0 + 0.01 * seed - (1.0 if side == "change" else 0.0)
            rtf = 0.0100 + 0.0001 * (seed % 3) + (0.00001 if side == "change" else 0.0)
            raw = (1.2 if side == "base" else 0.96) * 0.0100
            return {workload: record(rtf, raw, rss)}

        summary = pairs.compare(base, change, "causal-short", list(range(1, 11)), 2.0, run)
        assert calls[:4] == [("base", 1), ("change", 1), ("change", 2), ("base", 2)]
        assert len(calls) == 20
        result = summary["results"]["causal-short"]
        assert result["metrics"]["peak_rss_mb"]["verdict"] == "better"
        assert result["metrics"]["peak_rss_mb"]["wins"] == 10
        assert result["metrics"]["rtf"]["verdict"] == "unresolved"
        assert result["raw_metrics"]["rtf"]["verdict"] == "better"
        assert result["metrics"]["iva_sisnr_gain_db"]["verdict"] == "same"
        assert result["disagree"] == ["rtf"]
        assert summary["seeds"] == list(range(1, 11))
        first = summary["runs"][0]
        assert first["side"] == "base" and first["first"] and first["seed"] == 1
        assert first["raw_over_scaled_rtf"] == pytest.approx(0.012 / 0.0101)
        assert [r["first"] for r in summary["runs"][:4]] == [True, False, True, False]
        pairs.report(summary)           # prints every metric without failing

    def test_different_harness_is_refused_before_any_run(self, pairs, tmp_path):
        base = tree(tmp_path / "base")
        change = tree(tmp_path / "change", run_py="print('other')\n")

        def run(*args):
            raise AssertionError("no run may start")

        with pytest.raises(pairs.PairsError, match="perfbench/run.py"):
            pairs.compare(base, change, "simulate", [1], None, run)
        (change / "perfbench" / "run.py").write_text("print('run')\n")
        (change / "BENCHMARK.json").write_text("{}")
        with pytest.raises(pairs.PairsError, match="BENCHMARK.json"):
            pairs.compare(base, change, "simulate", [1], None, run)
        (change / "BENCHMARK.json").write_text((base / "BENCHMARK.json").read_text())
        (base / "perfbench" / "extra.py").write_text("")
        with pytest.raises(pairs.PairsError, match="perfbench/extra.py"):
            pairs.compare(base, change, "simulate", [1], None, run)

    def test_run_outputs_are_not_harness(self, pairs, tmp_path):
        base, change = tree(tmp_path / "base"), tree(tmp_path / "change")
        for junk in ("out/simulate-seed1-trace0.json", "__pycache__/run.cpython-311.pyc"):
            path = change / "perfbench" / junk
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("x")
        assert pairs.harness_differences(base, change) == []

    def test_a_failed_run_stops_the_comparison(self, pairs, tmp_path):
        base, change = tree(tmp_path / "base"), tree(tmp_path / "change")
        calls = []

        def run(root, workload, seed, seconds):
            calls.append(root.name)
            return {workload: record(0.01, 0.012, 50.0, failed=int(root.name == "change"))}

        with pytest.raises(pairs.PairsError, match="change seed 1 offline-long: 1 of 10"):
            pairs.compare(base, change, "offline-long", [1, 2], None, run)
        assert calls == ["base", "change"]

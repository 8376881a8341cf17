"""Tests of the benchmark itself (not of hybridse).

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7          # not the default seed, so no fingerprint applies


def _wav_bytes(inputs: workloads.Inputs):
    paths = list(inputs.files)
    for d in (inputs.speech_dir, inputs.noise_dir):
        if d is not None:
            paths += sorted(d.iterdir())
    return [p.read_bytes() for p in paths]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_deterministic_per_seed_and_differ_across_seeds(workload, tmp_path):
    a = workloads.make_inputs(workload, 1, tmp_path / "a", pool=2)
    b = workloads.make_inputs(workload, 1, tmp_path / "b", pool=2)
    c = workloads.make_inputs(workload, 2, tmp_path / "c", pool=2)
    assert _wav_bytes(a) == _wav_bytes(b)
    assert a.seconds == b.seconds
    assert all(x != y for x, y in zip(_wav_bytes(a), _wav_bytes(c)))


def test_scene_seeds_deterministic_distinct_and_cost_stratified():
    first = workloads.scene_seeds(1, pool=8, candidates=80)
    assert first == workloads.scene_seeds(1, pool=8, candidates=80)
    assert len(set(first)) == 8
    assert set(first).isdisjoint(workloads.scene_seeds(2, pool=8, candidates=80))
    rng = workloads.rng_for(1, "simulate", 0)
    drawn = sorted(workloads._scene_cost(int(s)) for s in rng.integers(0, 2 ** 31, 80))
    kept = drawn[:78]                                 # costliest 1.5% dropped
    middles = [st[len(st) // 2] for st in np.array_split(kept, 8)]
    bit_reversed = [0, 4, 2, 6, 1, 5, 3, 7]
    assert [workloads._scene_cost(s) for s in first] == [middles[k] for k in bit_reversed]


def test_short_lengths_cover_each_stratum():
    lengths = workloads.short_lengths(np.random.default_rng(0), 10)
    lo, hi = workloads.SHORT_RANGE
    strata = np.floor((np.sort(lengths) - lo) / (hi - lo) * 10)
    assert list(strata) == list(range(10))


def test_tail_has_ten_samples_beyond():
    values = list(range(35))
    value, pct, n = worker.tail(values)
    assert sum(v > value for v in values) == 10
    assert n == 35 and pct == pytest.approx(100 * 25 / 35)
    assert worker.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


@pytest.fixture
def small_panel(monkeypatch):
    monkeypatch.setattr(workloads, "PANEL_SCENES", 1)
    monkeypatch.setattr(worker, "SETUP_PROBES", 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace, tmp_path, small_panel):
    job = worker.Job(workload, SEED, tmp_path, pool=1)
    checker = worker.Checker(job, None)
    report = []
    if trace:
        result = worker.traced_run(job, checker, 0.0, report, tmp_path / "spans.jsonl")
        want = {m["name"] for m in SPEC["per_layer"]}
        assert result["trace_valid"], result["mismatches"]
        assert (tmp_path / "spans.jsonl").stat().st_size > 0
    else:
        result = worker.untraced_run(job, checker, 0.0, report)
        want = {m["name"] for m in SPEC["end_to_end"]}
        text = "\n".join(report)
        for name in ("setup_s", "rtf", "file_ms_p50", "file_ms_tail", "fail_rate",
                     "peak_rss_mb", "iva_sisnr_gain_db"):
            assert f"\n{name} " in "\n" + text
    assert set(result["metrics"]) == want
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, v in result["metrics"].items():
        assert v["unit"] == units[name]
        assert np.isfinite(v["value"])
    if trace:
        sweeps = result["metrics"]["auxiva.sweeps"]["value"]
        assert (sweeps > 0) == (workload == "offline-long")


def test_corrupt_input_counts_as_failure(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"RIFF\x00\x00not a wave file")
    call = worker.enhance_call(bad, 16000, tmp_path / "out.wav", no_iva=True)
    assert call.outcome == "exit_2"

    job = worker.Job("causal-short", SEED, tmp_path / "job", pool=1)
    checker = worker.Checker(job, None)
    checker(0, call)
    checker(1, job(0))
    assert checker.tally["exit_2"] == 1 and checker.tally["ok"] == 1
    assert len(checker.details) == 1


def test_wrong_output_length_fails_the_check(tmp_path):
    inputs = workloads.make_inputs("causal-short", SEED, tmp_path, pool=1)
    n = int(round(inputs.seconds[0] * workloads.FS))
    call = worker.enhance_call(inputs.files[0], n + 1, tmp_path / "out.wav", no_iva=True)
    assert call.outcome == "check_failed"


def test_fingerprint_tolerance():
    want = [0, 1000, -2000, 30]
    assert worker.fingerprint_error(want, want) is None
    assert worker.fingerprint_error([2, 1000, -2000, 30], want) is None
    assert "deviates" in worker.fingerprint_error([0, 1010, -2000, 30], want)


def test_default_seed_output_matches_reference(tmp_path):
    reference = json.loads(worker.REFERENCE.read_text())
    job = worker.Job("causal-short", worker.DEFAULT_SEED, tmp_path)
    checker = worker.Checker(job, reference)
    assert checker(0, job(0)).outcome == "ok"
    assert checker.compared == {0}


@pytest.fixture(scope="module")
def traced_files(tmp_path_factory):
    """One short stereo scene, traced with and without IVA, plus the CLI's
    output for each."""
    tmp = tmp_path_factory.mktemp("trace")
    rng = workloads.rng_for(SEED, "offline-long", 1)
    scene = workloads.render(rng, 1.0)
    inp = tmp / "in.wav"
    workloads.write_wav(inp, workloads.FS, scene.mixture)
    n = scene.mixture.shape[1]
    runs = {}
    for use_iva in (True, False):
        cli_out = tmp / f"cli_{use_iva}.wav"
        assert worker.enhance_call(inp, n, cli_out, no_iva=not use_iva).outcome == "ok"
        runs[use_iva] = (inp, cli_out, tmp / f"traced_{use_iva}.wav")
    return runs


def _trace_and_check(run, use_iva):
    inp, cli_out, traced_out = run
    t = spans.traced_enhance(spans.Tracer(), inp, traced_out, use_iva=use_iva)
    return spans.check_enhance(t, traced_out, cli_out)


@pytest.mark.parametrize("use_iva", [True, False])
def test_trace_equivalence_holds(traced_files, use_iva):
    assert _trace_and_check(traced_files[use_iva], use_iva) is None


@pytest.mark.parametrize("target, layer, use_iva", [
    ("projection_back", "auxiva", True),
    ("decode", "model.forward", False),
    ("istft", "dsp.istft", False),
])
def test_trace_equivalence_names_first_diverging_layer(traced_files, monkeypatch,
                                                       target, layer, use_iva):
    real = getattr(spans, target)
    monkeypatch.setattr(spans, target, lambda *a, **k: real(*a, **k) * (1 + 1e-6))
    assert _trace_and_check(traced_files[use_iva], use_iva) == layer


def test_simulate_trace_equivalence(tmp_path):
    inputs = workloads.make_inputs("simulate", SEED, tmp_path / "in", pool=2)
    seed = inputs.scene_seeds[0]
    call = worker.simulate_call(inputs, seed, tmp_path / "cli")
    assert call.outcome == "ok"
    record = json.loads((tmp_path / "cli" / "manifest.jsonl").read_text())
    traced = tmp_path / "traced"
    traced.mkdir()
    tr = spans.Tracer()
    t = spans.traced_simulate(tr, inputs.speech_dir, inputs.noise_dir, seed, traced)
    assert spans.check_simulate(t, traced, tmp_path / "cli", record) is None
    t.stages["target"] = t.stages["target"] * (1 + 1e-12)
    assert spans.check_simulate(t, traced, tmp_path / "cli", record) == "simkit.render"
    names = {s.name for s in tr.spans}
    assert {"simkit.sample", "simkit.rir", "simkit.render", "wavio.read",
            "wavio.write"} <= names


def test_self_time_subtracts_children():
    tr = spans.Tracer()
    tr.spans = [spans.Span("file", 0.0, 10.0, None, 0),
                spans.Span("a", 1.0, 4.0, 0, 0),
                spans.Span("b", 2.0, 3.0, 1, 0)]
    assert tr.self_times() == [7.0, 2.0, 1.0]


def test_run_fails_without_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("part", ["dprnn.intra", "dprnn.inter"])
def test_gru_share_excludes_the_projection(part):
    """Count the share from the weight inventory: per band and frame, a GRU
    costs one MAC per w_x and w_h entry, the projection one per kernel entry."""
    from hybridse.model import DEFAULT_PRESET, expected_shapes, preset_config
    cfg = preset_config(DEFAULT_PRESET)
    size = {name: int(np.prod(shape)) for name, shape in expected_shapes(cfg).items()
            if name.startswith(part + ".")}
    gru = sum(v for k, v in size.items() if k.endswith((".w_x", ".w_h")))
    proj = sum(v for k, v in size.items() if k.endswith(".proj.kernel"))
    assert worker.gru_share(cfg, part) == pytest.approx(gru / (gru + proj))
    assert worker.gru_share(cfg, "enc") == 1.0


def test_seconds_defaults_to_run_seconds_and_is_bounded():
    import run
    assert run.run_seconds() == SPEC["run_seconds"]
    assert run.run_seconds() <= run.MAX_SECONDS
    for bad in ("0", "-1", str(run.MAX_SECONDS + 1)):
        with pytest.raises(SystemExit):
            run.main(["--seconds", bad])

"""One benchmark workload in one process; started by ``run.py``.

The untraced run (``--trace 0``) drives ``hybridse.cli.main`` in a closed
loop, one client, for ``--seconds`` of wall time and times each call.  The
traced run (``--trace 1``) times the same calls and, after each, runs the
span-per-layer composition from :mod:`spans` on the same file, checks it bit
for bit against the program's own path and replays the file's GRU shapes.

The last line on stdout is a JSON record; ``run.py`` turns it into the
benchmark result.
"""

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy

# hybridse comes from src/, which run.py puts on PYTHONPATH
import spans
import workloads
from hybridse import cli
from hybridse.auxiva import IvaConfig, auxiva_separate, iva_macs_per_second
from hybridse.dsp import StftConfig, istft, stft
from hybridse.errors import HybridseError, NumericalError
from hybridse.loss import si_snr
from hybridse.model import DEFAULT_PRESET, macs_breakdown, preset_config
from hybridse.wavio import read_wav
from run import THREAD_VARS, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 0
REFERENCE = HERE / "reference.json"
FINGERPRINT_FILES = 2
FINGERPRINT_POINTS = 256
# Fingerprint tolerance, from the oracle bounds in tests/: every NN primitive
# is held to 1e-5 relative Linf; the mask passes through about 25 of them, and
# the waveform is linear in the mask, so a conforming change may move a sample
# by up to 25 * 1e-5 of the output peak.  Truncation to 16 bits can then flip
# a sample by one step either way, hence 2 LSB on top.
FINGERPRINT_REL = 25 * 1e-5
FINGERPRINT_LSB = 2
OUTCOMES = ("ok", "exit_2", "exit_3", "exit_4", "exit_other", "uncaught", "check_failed")
SETUP_PROBES = 5
# Ready to process the first file: import the package and its CLI, build the
# default preset's weights and the ERB filterbank.  The probe prints the
# CLOCK_MONOTONIC time elapsed since the start time it is given.
SETUP_CODE = """\
import sys, time
import hybridse, hybridse.cli
from hybridse.bands import make_erb_filterbank
from hybridse.model import DEFAULT_PRESET, init_random, preset_config
init_random(preset_config(DEFAULT_PRESET), 0)
make_erb_filterbank()
print(time.monotonic() - float(sys.argv[1]))
"""


# --------------------------------------------------------------------------
# machine-speed calibration
#
# The machines this runs on are shared, and their speed drifts by 20-50% in
# phases of seconds to minutes while nothing in the process changes.  After
# every timed call the run times a few calibration units that do not touch
# hybridse, and each call's time is scaled by the speed measured around it
# to the speed at which one unit takes CAL_REF_S.  setup_s stays raw (see
# measure_setup).
# On a 2-core Xeon VM, ten 20 s runs per workload (seeds 31-40) spread, as
# quartile distance over median, in file_ms_p50: offline-long 16.3% raw and
# 7.5% scaled, causal-short 10.8% and 3.3%, simulate 12.6% and 6.1%.

CAL_REF_S = 0.005
CAL_SHARE = 0.1          # calibration time per second of timed work
CAL_WINDOW = 2           # calls on each side whose units set a call's speed
_cal_rng = np.random.default_rng(12345)
_CAL_H = (0.1 * _cal_rng.standard_normal((33, 16))).astype(np.float32)
_CAL_W = (0.3 * _cal_rng.standard_normal((16, 48))).astype(np.float32)
_CAL_U = (0.5 * _cal_rng.standard_normal((33, 16))).astype(np.float32)
_CAL_X = _cal_rng.standard_normal((2, 64, 512))
_CAL_S = np.fft.rfft(_CAL_X, axis=-1)


def calibration_unit() -> float:
    """Seconds for a fixed mix of the kinds of work the pipeline does:
    GRU-like small-matrix steps, an IVA-like weighted covariance einsum over
    complex spectra, real FFTs and a pure Python loop.  It calls nothing in
    hybridse, so a change to the program cannot move it."""
    t0 = time.perf_counter()
    h = _CAL_H
    for _ in range(240):
        g = h @ _CAL_W
        h = np.tanh(g[:, :16] + _CAL_U) * (1.0 / (1.0 + np.exp(-g[:, 16:32])))
    for _ in range(6):
        r = np.sqrt(np.sum(np.abs(_CAL_S[0]) ** 2, axis=1))
        np.einsum("alk,blk->kab", _CAL_S * (1.0 / r)[None, :, None], np.conj(_CAL_S))
    for _ in range(2):
        np.fft.irfft(np.fft.rfft(_CAL_X, axis=-1), axis=-1)
    acc = 0
    for i in range(30000):
        acc += i & 7
    return time.perf_counter() - t0


class Speed:
    """Calibration units timed after each timed region of one run."""

    def __init__(self):
        self.samples: List[List[float]] = []

    def sample(self, busy_s: float) -> None:
        """Time calibration units worth CAL_SHARE of ``busy_s`` (at least one)
        after the timed region numbered ``len(self.samples)``."""
        count = max(1, round(CAL_SHARE * busy_s / CAL_REF_S))
        self.samples.append([calibration_unit() for _ in range(count)])

    def scale(self, i: int) -> float:
        """Factor taking region i's wall time to the reference speed, from the
        units after regions i - CAL_WINDOW .. i + CAL_WINDOW."""
        near = self.samples[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1]
        return CAL_REF_S / statistics.median(u for units in near for u in units)

    def summary(self) -> str:
        units = [u for units in self.samples for u in units]
        return (f"{len(units)} calibration units, median {1e3 * statistics.median(units):.3f} ms "
                f"(reference {1e3 * CAL_REF_S:g} ms)")


# --------------------------------------------------------------------------
# the counting path: one CLI call, its outcome and its output checks


@dataclass
class Call:
    ms: float
    audio_s: float
    outcome: str
    detail: str = ""
    outputs: List[np.ndarray] = field(default_factory=list)   # checked output audio
    out_path: Optional[Path] = None


class CheckFailed(Exception):
    pass


def call_cli(argv: List[str]):
    """Run ``cli.main(argv)`` in-process; returns (ms, outcome, stdout, detail).
    Exit codes 2/3/4 and uncaught exceptions are told apart."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:          # argparse rejects its arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001  (counted, then the loop goes on)
        ms = 1e3 * (time.perf_counter() - t0)
        return ms, "uncaught", out.getvalue(), f"{type(exc).__name__}: {exc}"
    ms = 1e3 * (time.perf_counter() - t0)
    if code == 0:
        return ms, "ok", out.getvalue(), ""
    outcome = f"exit_{code}" if code in (2, 3, 4) else "exit_other"
    return ms, outcome, out.getvalue(), err.getvalue().strip()


def _read_checked(path: Path, channels: int, n: int) -> np.ndarray:
    if not path.is_file():
        raise CheckFailed(f"{path.name}: missing")
    rate, wave = read_wav(path)
    shape = (n,) if channels == 1 else (channels, n)
    if rate != workloads.FS or wave.shape != shape:
        raise CheckFailed(f"{path.name}: {rate} Hz {wave.shape}, expected {shape}")
    if not np.all(np.isfinite(wave)):
        raise CheckFailed(f"{path.name}: non-finite samples")
    return wave


def enhance_call(inp: Path, n: int, out: Path, no_iva: bool) -> Call:
    argv = ["enhance", str(inp), "--out", str(out)] + (["--no-iva"] if no_iva else [])
    ms, outcome, printed, detail = call_cli(argv)
    call = Call(ms, n / workloads.FS, outcome, detail, out_path=out)
    if outcome == "ok":
        try:
            if printed.strip() != str(out):
                raise CheckFailed(f"printed {printed.strip()!r}, expected {str(out)!r}")
            call.outputs = [_read_checked(out, 1, n)]
        except (CheckFailed, OSError, ValueError) as exc:    # ValueError: unreadable WAV
            call.outcome, call.detail = "check_failed", str(exc)
    return call


def simulate_call(inputs: workloads.Inputs, scene_seed: int, out_dir: Path) -> Call:
    argv = ["simulate", "--speech-dir", str(inputs.speech_dir),
            "--noise-dir", str(inputs.noise_dir), "--n-scenes", "1",
            "--seed", str(scene_seed), "--out", str(out_dir)]
    ms, outcome, _, detail = call_cli(argv)
    n = int(workloads.CORPUS_SPEECH_SECONDS * workloads.FS)
    call = Call(ms, n / workloads.FS, outcome, detail, out_path=out_dir)
    if outcome == "ok":
        try:
            records = [json.loads(line) for line in
                       (out_dir / "manifest.jsonl").read_text().splitlines()]
            if len(records) != 1 or not np.isfinite(records[0]["measured_snr_db"]):
                raise CheckFailed(f"manifest: {records!r}")
            n = read_wav(records[0]["speech_file"])[1].shape[-1]
            call.audio_s = n / workloads.FS
            call.outputs = [_read_checked(out_dir / records[0]["mixture"], 2, n),
                            _read_checked(out_dir / records[0]["target"], 1, n)]
        except (CheckFailed, OSError, KeyError, ValueError) as exc:
            call.outcome, call.detail = "check_failed", str(exc)
    return call


def fingerprint(outputs: List[np.ndarray]) -> List[int]:
    """Output samples at fixed evenly spaced positions, in 16-bit steps."""
    flat = np.concatenate([np.ravel(o) for o in outputs])
    idx = np.linspace(0, flat.size - 1, FINGERPRINT_POINTS).round().astype(int)
    return [int(v) for v in np.round(flat[idx] * 32768.0)]


def fingerprint_error(got: List[int], want: List[int]) -> Optional[str]:
    got_a, want_a = np.asarray(got, float), np.asarray(want, float)
    if got_a.shape != want_a.shape:
        return f"fingerprint has {got_a.size} points, reference {want_a.size}"
    tol = FINGERPRINT_REL * np.max(np.abs(want_a)) + FINGERPRINT_LSB
    worst = float(np.max(np.abs(got_a - want_a)))
    if worst > tol:
        return f"fingerprint deviates by {worst:.0f} LSB (tolerance {tol:.1f})"
    return None


class Job:
    """The workload's inputs and the CLI call for call number i."""

    def __init__(self, workload: str, seed: int, work: Path, pool: Optional[int] = None):
        self.workload = workload
        self.seed = seed
        if pool is None:        # the benchmark: render in a child process
            subprocess.run([sys.executable, str(HERE / "workloads.py"), "--workload", workload,
                            "--seed", str(seed), "--out", str(work / "in")],
                           cwd=ROOT, env=child_env(), check=True, timeout=120)
            self.inputs = workloads.load_inputs(work / "in" / "inputs.json")
        else:                   # tests: a smaller pool, rendered in-process
            self.inputs = workloads.make_inputs(workload, seed, work / "in", pool)
        self.out = work / "out"
        self.out.mkdir(parents=True, exist_ok=True)

    def file_index(self, i: int) -> int:
        return i % len(self.inputs.scene_seeds or self.inputs.files)

    def scene_seed(self, i: int) -> int:
        return self.inputs.scene_seeds[self.file_index(i)]

    def __call__(self, i: int) -> Call:
        if self.workload == "simulate":
            out_dir = self.out / "sim"
            shutil.rmtree(out_dir, ignore_errors=True)
            return simulate_call(self.inputs, self.scene_seed(i), out_dir)
        k = self.file_index(i)
        inp = self.inputs.files[k]
        n = int(round(self.inputs.seconds[k] * workloads.FS))
        out = self.out / f"{inp.stem}.enhanced.wav"
        out.unlink(missing_ok=True)
        return enhance_call(inp, n, out, no_iva=self.workload == "causal-short")


# --------------------------------------------------------------------------
# statistics


def tail(values: List[float]):
    """Highest percentile with at least ten samples above it:
    ``(value, percentile, n)``.  Below 11 samples there is none; the maximum
    is returned with percentile 100."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def measure_setup() -> List[float]:
    """Wall seconds from starting a fresh interpreter to ready, per probe.
    The probe reads the clock itself: timing the child's exit from here
    would add interpreter shutdown and, with a timeout, the 50 ms polling
    steps of ``Popen.wait``.  Not scaled to the reference speed: start-up is
    dominated by file access and loading, which the calibration units do not
    track."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, repr(start)], cwd=ROOT,
                              env=child_env(), check=True, timeout=60,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def environment(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
        "nproc": affinity, "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(), "machine": platform.machine(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (the
    benchmark may run from an export that has no .git)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


# --------------------------------------------------------------------------
# runs


def closed_loop(seconds: float, step: Callable[[int], None]) -> None:
    """Call step(0), step(1), ... until ``seconds`` of wall time have passed
    (at least once)."""
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        step(i)
        i += 1


class Checker:
    """Tallies outcomes and compares fingerprints at the default seed."""

    def __init__(self, job: Job, reference: Optional[dict]):
        self.job = job
        self.tally = {k: 0 for k in OUTCOMES}
        self.details: List[str] = []
        self.want = {}
        if job.seed == DEFAULT_SEED and reference is not None:
            self.want = {e["index"]: e["samples"]
                         for e in reference["workloads"].get(job.workload, [])}
        self.compared = set()

    def __call__(self, i: int, call: Call) -> Call:
        k = self.job.file_index(i)
        if call.outcome == "ok" and k in self.want and k not in self.compared:
            self.compared.add(k)
            err = fingerprint_error(fingerprint(call.outputs), self.want[k])
            if err:
                call.outcome, call.detail = "check_failed", f"file {k}: {err}"
        call.outputs = []                     # keep peak_rss_mb independent of run length
        self.tally[call.outcome] += 1
        if call.outcome != "ok" and len(self.details) < 5:
            self.details.append(f"call {i} ({call.outcome}): {call.detail}")
        return call


def quality_gain() -> float:
    """Median SI-SNR gain of the IVA speech channel over the noisy reference
    channel on the fixed quality panel (untimed)."""
    cfg = StftConfig()
    gains = []
    for scene in workloads.quality_panel():
        sources, _ = auxiva_separate(stft(scene.mixture, cfg), IvaConfig())
        est = istft(sources[0], cfg, length=scene.mixture.shape[1])
        gains.append(si_snr(est, scene.target) - si_snr(scene.mixture[0], scene.target))
    return float(np.median(gains))


def untraced_run(job: Job, checker: Checker, seconds: float, report: List[str]) -> dict:
    setup = measure_setup()
    job(0)                                    # warm-up: lazy imports, caches
    calls: List[Call] = []
    speed = Speed()

    def step(i: int):
        calls.append(checker(i, job(i)))
        speed.sample(calls[-1].ms / 1e3)

    closed_loop(seconds, step)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    audio = sum(c.audio_s for c in calls)
    failed = len(calls) - checker.tally["ok"]
    gain = quality_gain()
    unscaled = {"setup_s": metric(statistics.median(setup), "s"),
                "success_rate": metric(checker.tally["ok"] / len(calls), "ratio"),
                "peak_rss_mb": metric(rss_mb, "MB"),
                "iva_sisnr_gain_db": metric(gain, "dB")}

    def timing(ms: List[float]):
        value, pct, n = tail(ms)
        return {"rtf": metric(sum(ms) / 1e3 / audio, "s/s"),
                "file_ms_p50": metric(statistics.median(ms), "ms"),
                "file_ms_tail": metric(value, "ms"), **unscaled}, pct, n

    raw, _, _ = timing([c.ms for c in calls])
    m, pct, n = timing([c.ms * speed.scale(i) for i, c in enumerate(calls)])

    def line(name: str, note: str = "") -> str:
        v, r = m[name], raw[name]
        if v["value"] == r["value"]:
            return f"{name} {v['value']:.4f} {v['unit']}{note}"
        return f"{name} {v['value']:.4f} {v['unit']} (raw {r['value']:.4f}{note})"

    report += [
        f"files {len(calls)} ({audio:.1f} s of audio), closed loop, one client",
        f"times at reference speed, raw wall time in brackets; {speed.summary()}",
        line("setup_s", f"; median of {len(setup)} fresh interpreters, raw"),
        line("rtf"), line("file_ms_p50"),
        line("file_ms_tail", f"; p{pct:.1f}, n={n}"),
        f"fail_rate {failed / len(calls):.4f} ratio ({failed}/{len(calls)})",
        line("success_rate"), line("peak_rss_mb"),
        line("iva_sisnr_gain_db", f"; fixed panel of {workloads.PANEL_SCENES} scenes"),
    ]
    return {"attempted": len(calls), "failed": failed, "metrics": m, "raw_metrics": raw,
            "setup_probes_s": setup, "tail": {"percentile": pct, "n": n}}


# spans reported as <name>_ms, the median per file of their summed self time
LAYER_SPANS = ("dsp.stft", "dsp.istft", "auxiva.project_order", "bands.filterbank",
               "bands.merge", "bands.split", "model.features", "model.encode",
               "model.gdprnn", "model.decode", "model.apply_mask", "weights.init",
               "wavio.read", "wavio.write", "simkit.sample", "simkit.rir", "simkit.render")
# analytic MAC groups joined with the span (or replay) that does the work
MAC_PARTS = {"enc": "model.encode", "dprnn.intra": "nn.gru_intra",
             "dprnn.inter": "nn.gru_inter", "dec": "model.decode"}


def traced_run(job: Job, checker: Checker, seconds: float, report: List[str],
               spans_path: Path) -> dict:
    tr = spans.Tracer()
    rng = np.random.default_rng(job.seed)
    files: List[dict] = []
    mismatches: List[str] = []
    numerical_errors = 0
    traced_out = job.out / "traced"
    traced_out.mkdir(exist_ok=True)
    speed = Speed()

    def step(i: int):
        nonlocal numerical_errors
        t0 = time.perf_counter()
        call = checker(i, job(i))
        rec = {"ms": call.ms, "audio_s": call.audio_s, "bytes": 0}
        tr.file_id = i
        try:
            if job.workload == "simulate":
                t = spans.traced_simulate(tr, job.inputs.speech_dir, job.inputs.noise_dir,
                                          job.scene_seed(i), traced_out)
                rec["taps"] = t.taps
                rec["bytes"] = sum(p.stat().st_size for p in
                                   (t.speech_file, t.noise_file,
                                    traced_out / "mix.wav", traced_out / "target.wav"))
                if call.outcome != "ok":
                    bad = "the CLI call failed"
                else:
                    record = json.loads((call.out_path / "manifest.jsonl").read_text())
                    bad = spans.check_simulate(t, traced_out, call.out_path, record)
                    bad = bad and f"first diverging layer {bad}"
            else:
                inp = job.inputs.files[job.file_index(i)]
                t = spans.traced_enhance(tr, inp, traced_out / "out.wav",
                                         use_iva=job.workload != "causal-short")
                rec["bytes"] = inp.stat().st_size + (traced_out / "out.wav").stat().st_size
                rec["nn.gru_intra"], rec["nn.gru_inter"], rec["steps"] = spans.gru_replay(t, rng)
                if call.outcome != "ok":
                    bad = "the CLI call failed"
                else:
                    bad = spans.check_enhance(t, traced_out / "out.wav", call.out_path)
                    bad = bad and f"first diverging layer {bad}"
        except HybridseError as exc:
            numerical_errors += isinstance(exc, NumericalError)
            bad = f"{type(exc).__name__}: {exc}"
        if bad:
            mismatches.append(f"file {i}: {bad}")
        files.append(rec)
        speed.sample(time.perf_counter() - t0)

    job(0)                                    # warm-up: lazy imports, caches
    closed_loop(seconds, step)
    tr.write(spans_path)

    # Per file, at reference speed: self seconds per span name, plus the IVA
    # stage total; the file's untraced call and GRU replays are scaled alike.
    raw_rtf = sum(f["ms"] for f in files) / 1e3 / sum(f["audio_s"] for f in files)
    scales = [speed.scale(i) for i in range(len(files))]
    for f, k in zip(files, scales):
        for key in ("ms", "nn.gru_intra", "nn.gru_inter"):
            if key in f:
                f[key] *= k
    per_file: List[Dict[str, float]] = [{} for _ in files]
    sweeps: List[float] = []
    for s, self_s in zip(tr.spans, tr.self_times()):
        acc, k = per_file[s.file_id], scales[s.file_id]
        acc[s.name] = acc.get(s.name, 0.0) + k * self_s
        if s.name == "auxiva.separate":
            acc["auxiva.total"] = acc.get("auxiva.total", 0.0) + k * (s.end - s.start)
        elif s.name == "auxiva.sweep":
            sweeps.append(k * (s.end - s.start))
            acc["n_sweeps"] = acc.get("n_sweeps", 0) + 1
        elif s.name == spans.ROOT:
            acc["root_s"] = k * (s.end - s.start)

    def med(values) -> float:
        return statistics.median(values) if values else 0.0

    def med_ms(key: str) -> float:
        return 1e3 * med([acc.get(key, 0.0) for acc in per_file])

    m = {span + "_ms": metric(med_ms(span), "ms") for span in LAYER_SPANS}
    m["auxiva.separate_ms"] = metric(med_ms("auxiva.total"), "ms")
    m["auxiva.sweep_ms"] = metric(1e3 * med(sweeps), "ms")
    m["auxiva.sweeps"] = metric(med([acc.get("n_sweeps", 0) for acc in per_file]), "count")
    m["auxiva.numerical_errors"] = metric(numerical_errors, "count")
    iva_audio = sum(f["audio_s"] for f, acc in zip(files, per_file) if acc.get("n_sweeps"))
    m["auxiva.mac_per_s"] = metric(
        iva_macs_per_second(IvaConfig()) * iva_audio / sum(sweeps) if sweeps else 0.0, "MAC/s")
    # the untraced call minus the time the traced layers account for
    overhead = [f["ms"] - 1e3 * (acc.get("root_s", 0.0) - acc.get(spans.ROOT, 0.0))
                for f, acc in zip(files, per_file)]
    m["cli.overhead_ms"] = metric(med(overhead), "ms")
    m["wavio.bytes"] = metric(med([f["bytes"] for f in files]), "B")
    m["simkit.rir_taps"] = metric(med([f.get("taps", 0) for f in files]), "count")
    for key in ("nn.gru_intra", "nn.gru_inter"):
        m[key + "_ms"] = metric(1e3 * med([f.get(key, 0.0) for f in files]), "ms")
    m["nn.gru_steps"] = metric(med([f.get("steps", 0) for f in files]), "count")
    mac_rows = mac_join(job, files, per_file, m)

    audio = sum(f["audio_s"] for f in files)
    untraced_rtf = sum(f["ms"] for f in files) / 1e3 / audio
    traced_rtf = sum(acc.get("root_s", 0.0) for acc in per_file) / audio
    m["trace.overhead_rtf"] = metric(traced_rtf - untraced_rtf, "s/s")
    m["trace.mismatches"] = metric(len(mismatches), "count")
    m["trace.files"] = metric(len(files), "count")

    report += [f"traced files {len(files)}; times at reference speed ({speed.summary()})",
               f"untraced rtf {untraced_rtf:.4f} (raw {raw_rtf:.4f}), traced rtf "
               f"{traced_rtf:.4f}, tracing overhead {traced_rtf - untraced_rtf:+.4f}",
               "trace equivalence: " + ("bit-identical on every file" if not mismatches
                                        else f"INVALID on {len(mismatches)} file(s)")]
    report += mismatches[:5]
    report += ["per-layer metrics (times: median per file of span self time):"]
    report += [f"  {k:28s} {v['value']:16.4f} {v['unit']}" for k, v in sorted(m.items())]
    report += ["MAC join (MACs analytic, not measured; MAC/s = analytic MACs / traced time):"]
    report += mac_rows
    return {"attempted": len(files), "failed": len(files) - checker.tally["ok"],
            "metrics": m, "trace_valid": not mismatches, "mismatches": mismatches}


def gru_share(cfg, part: str) -> float:
    """Share of a G-DPRNN part's ``macs_breakdown`` count that is the GRU
    recurrence.  The rest is the per-group output projection, which the GRU
    replay does not run, so the replay's time covers only this share."""
    gw = cfg.gtconv_channels // cfg.dprnn_groups
    if part == "dprnn.intra":
        h, directions = cfg.intra_hidden, 2
    elif part == "dprnn.inter":
        h, directions = cfg.inter_hidden, 1
    else:
        return 1.0
    gru = directions * 3 * (gw * h + h * h)
    return gru / (gru + directions * h * gw)


def mac_join(job: Job, files: List[dict], per_file: List[dict], m: dict) -> List[str]:
    """model.<part>.macs (per file) and .mac_per_s from macs_breakdown; the
    MAC/s counts only the MACs of the work its time covers."""
    cfg = preset_config(DEFAULT_PRESET)
    rates = macs_breakdown(cfg)
    rows = []
    for part, span in MAC_PARTS.items():
        rate = sum(v for k, v in rates.items() if k == part or k.startswith(part + "."))
        per = [rate * f["audio_s"] for f in files]
        if span.startswith("nn."):
            busy = sum(f.get(span, 0.0) for f in files)
        else:
            busy = sum(acc.get(span, 0.0) for acc in per_file)
        if not busy:                           # layer not on this workload's path
            per = [0.0]
        timed = gru_share(cfg, part) * sum(per)
        m[f"model.{part}.macs"] = metric(statistics.median(per), "MAC")
        m[f"model.{part}.mac_per_s"] = metric(timed / busy if busy else 0.0, "MAC/s")
        if busy:
            rows.append(f"  {part:12s} {statistics.median(per) / 1e6:10.2f} MMAC/file "
                        f"{1e3 * busy / len(files):9.2f} ms/file ({span}) "
                        f"{timed / busy / 1e6:9.1f} MMAC/s"
                        + ("  (GRU MACs only)" if span.startswith("nn.") else ""))
    iva = [(f["audio_s"], acc["auxiva.sweep"]) for f, acc in zip(files, per_file)
           if "auxiva.sweep" in acc]
    if iva:
        rate = iva_macs_per_second(IvaConfig())
        busy = sum(b for _, b in iva)
        rows.append(f"  {'auxiva':12s} {rate * statistics.median(a for a, _ in iva) / 1e6:10.2f} "
                    f"MMAC/file {1e3 * busy / len(iva):9.2f} ms/file (auxiva.sweep) "
                    f"{m['auxiva.mac_per_s']['value'] / 1e6:9.1f} MMAC/s")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for spans and scratch files")
    args = ap.parse_args(argv)

    out = Path(args.out)
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else None
    report = [f"workload {args.workload}, seed {args.seed}, "
              f"{'traced' if args.trace else 'untraced'} run of {args.seconds:g} s"]
    try:
        job = Job(args.workload, args.seed, work)
        checker = Checker(job, reference)
        if args.trace:
            result = traced_run(job, checker, args.seconds, report,
                                out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            result = untraced_run(job, checker, args.seconds, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if checker.want and not checker.compared:
        checker.tally["check_failed"] += 1
        result["failed"] += 1
        checker.details.append("no fingerprinted file was processed")
    result["outcomes"] = checker.tally
    result["fingerprint_checked"] = sorted(checker.compared)
    result["environment"] = environment(args)
    report.append("outcomes " + ", ".join(f"{k} {v}" for k, v in checker.tally.items()))
    report += checker.details
    for line in report:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

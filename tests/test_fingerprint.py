"""The byte-identity script prints the same fingerprints on every run."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
# loads the script from argv[1] and prints its lines for two presets
_REDUCED_RUN = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("fingerprint", sys.argv[1])
fp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fp)
for line in fp.fingerprints(rir_seeds=range(2), presets=("lps-sn-m2", "lps-sn-m2-dual")):
    print(line)
"""


def load_script():
    spec = importlib.util.spec_from_file_location("fingerprint", SCRIPT)
    fp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fp)
    return fp


def test_same_lines_at_one_and_two_blas_threads():
    fp = load_script()
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, **{var: threads for var in fp.THREAD_VARS}}
        runs.append(subprocess.run([sys.executable, "-c", _REDUCED_RUN, str(SCRIPT)], env=env,
                                   capture_output=True, text=True, check=True).stdout)
    assert "enhance lps-sn-m2 iva scene-10s wave" in runs[0]
    assert runs[0].splitlines() == runs[1].splitlines()


def test_environment_line_names_the_blas_and_every_thread_variable(monkeypatch):
    fp = load_script()
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    line = fp.environment()
    assert re.fullmatch(r"# blas \S+ \S+; .+", line)
    assert "OPENBLAS_NUM_THREADS=3" in line and "OMP_NUM_THREADS=unset" in line
    assert [word.split("=")[0] for word in line.split("; ", 1)[1].split()] == list(fp.THREAD_VARS)


def test_same_lines_twice_on_a_reduced_input():
    fp = load_script()
    first = list(fp.fingerprints(rir_seeds=range(2), presets=("lps-sn-m2",)))
    assert first == list(fp.fingerprints(rir_seeds=range(2), presets=("lps-sn-m2",)))
    names = [line.rsplit(" ", 1)[0] for line in first]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r".+ [0-9a-f]{64}", line) for line in first)
    assert {name.split()[0] for name in names} == {
        "enhance", "separate", "fail", "features", "band_merge", "sfe", "istft", "conv2d",
        "gru_scan", "image_rir", "render_scene", "simulate", "inspect"}
    assert {f"image_rir seed {seed} {source}" for seed in (0, 1, 142, 1132, 1827)
            for source in ("speech", "noise")} <= set(names)
    assert {f"enhance lps-sn-m2 {iva} {frames} frames {artifact}" for iva in ("iva", "no-iva")
            for frames in (65, 129) for artifact in ("wave", "mask")} <= set(names)
    assert {"separate scene-10s noise", "separate cli scene-10s.noise.wav",
            "separate scene-40-frames speech", "enhance 30s cli scene-30s.enhanced.wav",
            "separate 30s cli scene-30s.speech.wav", "separate 30s cli scene-30s.noise.wav",
            "istft stereo length 3328", "conv2d depthwise float32 2000 frames",
            "conv2d 1x1 depthwise zeros bias", "conv2d 1x5 stride 2 zeros no-bias"} <= set(names)
    for frames in (125, 208):
        for path in ("intra", "inter"):
            for dtype in ("float32", "float64"):
                assert {f"gru_scan {path} {frames} frames {dtype} {start}"
                        for start in ("zeros", "h0")} <= set(names)
    assert {f"gru_scan 1x7x5 3->4 {dtype} h0" for dtype in ("float32", "float64")} <= set(names)
    for frames in (1, 18, 19, 208):
        tag = f"lps-sn-m2 {frames} frames"
        assert {f"features {tag}", f"band_merge float32 {tag}", f"band_merge float64 {tag}",
                f"sfe {tag}"} <= set(names)
    cli_runs = {line.split()[2]: line.split()[3] for line in first
                if line.startswith("enhance cli ")}
    assert list(cli_runs) == ["seed-0", "seed-1", "config-lps-s-m2", "seed-0-again", "weights"]
    assert cli_runs["seed-0"] == cli_runs["seed-0-again"]
    assert len(set(cli_runs.values())) == 4
    failures = {line.split()[1]: line.split()[3] for line in first if line.startswith("fail ")}
    assert failures == {"missing-config": "2", "config-negative-seed": "2",
                        "config-unknown-key": "2", "enhance-mono": "2", "corrupt-weights": "3",
                        "enhance-batch": "2", "enhance-batch-early": "2",
                        "enhance-batch-early-jobs2": "2"}

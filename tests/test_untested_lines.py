"""The untested-lines script names the package lines a test run misses."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def untested(*tests) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "scripts/untested_lines.py", *tests],
                          cwd=ROOT, capture_output=True, text=True, check=True)


@pytest.fixture(scope="module")
def loss_run():
    return untested("tests/test_loss.py")


def test_lists_the_lines_one_module_misses(loss_run):
    lines = loss_run.stdout.splitlines()
    assert lines and all(re.fullmatch(r"src/hybridse/\w+\.py:\d+: \S.*", line)
                         for line in lines)
    assert "passed" in loss_run.stderr             # pytest's report
    missed = {line.split(": ", 1)[1] for line in lines}
    # read_wav's body runs in no loss test, si_snr's in several
    assert 'with open(path, "rb") as fh:' in missed
    assert "target = (float(np.dot(est, ref)) / ref_pow) * ref" not in missed
    # lines that run only as a script
    assert "src/hybridse/__main__.py:8: sys.exit(main())" in lines


def test_same_list_on_every_run(loss_run):
    # hypothesis draws from a fixed seed, so its tests reach the same lines
    assert loss_run.stdout and untested("tests/test_loss.py").stdout == loss_run.stdout


def test_lines_on_the_render_thread_are_seen():
    # render_scene images the noise on a helper thread, which the hook
    # follows: the helper's body, its error path included, is reached
    lines = untested("tests/test_simkit.py::TestRenderScene").stdout.splitlines()
    source = (ROOT / "src/hybridse/simkit.py").read_text().splitlines()
    start = next(i for i, line in enumerate(source) if "def image_noise():" in line)
    helper = {f"src/hybridse/simkit.py:{start + k + 1}:" for k in range(1, 6)}
    assert "image_rir(" in source[start + 2] and "apply_rir(noise, rir_n)" in source[start + 3]
    assert "noise_image[\"error\"] = error" in source[start + 5]
    assert not [line for line in lines if line.split(" ", 1)[0] in helper]

"""The untested-lines script names the package lines a test run misses."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_lists_the_lines_one_module_misses():
    run = subprocess.run([sys.executable, "scripts/untested_lines.py", "tests/test_loss.py"],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    lines = run.stdout.splitlines()
    assert lines and all(re.fullmatch(r"src/hybridse/\w+\.py:\d+: \S.*", line)
                         for line in lines)
    assert "passed" in run.stderr                  # pytest's report
    missed = {line.split(": ", 1)[1] for line in lines}
    # read_wav's body runs in no loss test, si_snr's in several
    assert 'with open(path, "rb") as fh:' in missed
    assert "target = (float(np.dot(est, ref)) / ref_pow) * ref" not in missed
    # lines that run only as a script
    assert "src/hybridse/__main__.py:8: sys.exit(main())" in lines

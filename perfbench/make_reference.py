#!/usr/bin/env python3
"""Regenerate ``reference.json``: output fingerprints of the current code at
the default seed, which later runs at that seed must match within the
tolerance set in ``worker.py``.

    python3 perfbench/make_reference.py

Only regenerate when an output change is intended, and say so in the change.
"""

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import THREADS, THREAD_VARS  # noqa: E402

# the pinning the benchmark's workers run under, set before numpy loads BLAS
os.environ.update({v: THREADS for v in THREAD_VARS})

import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    work = HERE / "out" / "reference-work"
    entries = {}
    try:
        for name in workloads.WORKLOADS:
            job = worker.Job(name, worker.DEFAULT_SEED, work / name)
            entries[name] = []
            for k in range(worker.FINGERPRINT_FILES):
                call = job(k)
                if call.outcome != "ok":
                    raise SystemExit(f"{name} file {k}: {call.outcome} {call.detail}")
                entries[name].append({"index": k, "samples": worker.fingerprint(call.outputs)})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ref = {"seed": worker.DEFAULT_SEED, "points": worker.FINGERPRINT_POINTS,
           "workloads": entries}
    worker.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    print(worker.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())

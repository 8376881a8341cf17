#!/usr/bin/env python3
"""hybridse benchmark: one command, every workload, every metric.

    python3 perfbench/run.py                                  # all workloads
    python3 perfbench/run.py --workload offline-long --seed 3 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``.
Each workload runs in a fresh process (``worker.py``) whose environment pins
BLAS/OpenMP to one thread; nothing outside that process's environment is
changed.  Each workload measures for ``run_seconds`` of ``BENCHMARK.json``
unless ``--seconds`` is given.  The last line on stdout is the JSON result;
the full record (environment, outcome tallies, tail percentile) is written
to ``perfbench/out/``.  See ``perfbench/README.md`` for the workloads and the
metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("offline-long", "causal-short", "simulate")
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
TIME_LIMIT = 170.0
# A run also spends about 15 s on set-up probes, input rendering and the
# quality panel, so a measured span up to this ends well inside TIME_LIMIT.
MAX_SECONDS = 60.0


def run_seconds() -> float:
    """The measured span of one run: ``run_seconds`` of ``BENCHMARK.json``."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def seconds_arg(text: str) -> float:
    value = float(text)
    if not 0 < value <= MAX_SECONDS:
        raise argparse.ArgumentTypeError(f"must be in (0, {MAX_SECONDS:g}]")
    return value


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: THREADS for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    env = child_env()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: worker exited with {proc.returncode}")
    record = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=seconds_arg, default=None,
                    help="measured span per workload (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hybridse" / "__init__.py").is_file():
        print(f"error: no hybridse source tree at {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else run_seconds()
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT * len(names)
    records = {}
    try:
        for name in names:
            records[name] = run_workload(name, args.seed, seconds, args.trace, deadline)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def key(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}/{metric}"

    result = {
        "correct": all(r["failed"] == 0 for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {key(n, k): v for n, r in records.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a base revision with the working tree in alternating pairs of
benchmark runs.

    python3 scripts/pairs.py --base HEAD~1 --workload causal-short --seeds 1-10

The base side is ``git archive REV`` unpacked into a temporary directory;
the change side is the checkout this script sits in, as it is on disk.
Both must hold the same harness (every file under ``perfbench/`` and
``BENCHMARK.json``), or nothing runs.  For each seed, the two sides run
their own ``perfbench/run.py --trace 0``, one after the other, and the
side that runs first alternates from pair to pair.  Each run's record is
read from its tree's ``perfbench/out/``; a run that fails, or whose record
counts a failed call, stops the comparison.

Per workload and end-to-end metric of ``BENCHMARK.json`` it prints both
sides' medians and quartiles, the change's win count and a verdict, once
on the scaled ``metrics`` and once on the ``raw_metrics``, and flags each
metric where the two verdicts differ.  A change is ``better`` when it
wins at least 9 of 10 pairs and its median beats the base median by more
than the base's quartile distance; ``worse`` is the same rule the other
way round, ``same`` means every pair was equal, and anything else is
``unresolved``.  The JSON file at ``--out`` holds both commits, the seeds,
these figures and each run's raw over scaled ``rtf``, the machine's speed
against the reference speed the benchmark scales to.
"""

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("offline-long", "causal-short", "simulate")
# directories under perfbench/ that runs and tests write, not the harness
_SKIPPED = {"out", "__pycache__", ".pytest_cache", ".hypothesis"}


class PairsError(Exception):
    """A comparison that cannot be made; its message says why."""


def seed_range(text: str) -> list:
    """``"A-B"`` (inclusive) or ``"A"`` as a list of seeds."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def harness(root: Path) -> dict:
    """Relative path -> bytes of every harness file of the tree ``root``."""
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for path in sorted((root / "perfbench").rglob("*")):
        rel = path.relative_to(root)
        if path.is_file() and not _SKIPPED.intersection(rel.parts):
            files[rel.as_posix()] = path.read_bytes()
    return files


def harness_differences(base: Path, change: Path) -> list:
    """The harness files that are missing from one tree or differ."""
    a, b = harness(base), harness(change)
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


def export(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` of this checkout into ``dest``; returns
    the full commit id."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout


def run_side(root: Path, workload: str, seed: int, seconds) -> dict:
    """Run ``root``'s own benchmark for one seed; returns workload ->
    record, read from ``root/perfbench/out``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", "0", *(["--seconds", str(seconds)] if seconds else [])]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        raise PairsError(f"{root}: seed {seed}: run.py exited with {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    names = WORKLOADS if workload == "all" else (workload,)
    out = root / "perfbench" / "out"
    return {name: json.loads((out / f"{name}-seed{seed}-trace0.json").read_text())
            for name in names}


def verdict(base: list, change: list, better: str) -> dict:
    """Both sides' quartiles, the change's wins and the verdict for one
    metric over pairs ``(base[i], change[i])``."""
    sign = 1.0 if better == "lower" else -1.0
    gains = [sign * (b - c) for b, c in zip(base, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    bq, cq = np.percentile(base, [25, 50, 75]), np.percentile(change, [25, 50, 75])
    gap, spread = sign * (bq[1] - cq[1]), bq[2] - bq[0]
    n = len(gains)
    if wins == losses == 0:
        call = "same"
    elif 10 * wins >= 9 * n and gap > spread:
        call = "better"
    elif 10 * losses >= 9 * n and -gap > spread:
        call = "worse"
    else:
        call = "unresolved"
    return {"base": {"q1": bq[0], "median": bq[1], "q3": bq[2]},
            "change": {"q1": cq[0], "median": cq[1], "q3": cq[2]},
            "change_over_base": cq[1] / bq[1] if bq[1] else None,
            "wins": wins, "pairs": n, "verdict": call}


def summarize(pairs: list, metrics: list) -> dict:
    """Per workload, the :func:`verdict` of each end-to-end metric on the
    scaled and on the raw figures, and the metrics whose two verdicts
    differ.  ``pairs`` holds ``(base_records, change_records)``, each
    workload -> record; ``metrics`` the ``end_to_end`` entries of
    ``BENCHMARK.json``."""
    out = {}
    for workload in pairs[0][0]:
        result = {}
        for kind in ("metrics", "raw_metrics"):
            result[kind] = {}
            for m in metrics:
                name = m["name"]
                if name not in pairs[0][0][workload][kind]:
                    continue
                values = [[side[workload][kind][name]["value"] for side in pair]
                          for pair in pairs]
                result[kind][name] = verdict(*zip(*values), m["better"])
        result["disagree"] = [name for name, v in result["metrics"].items()
                              if v["verdict"] != result["raw_metrics"][name]["verdict"]]
        out[workload] = result
    return out


def compare(base: Path, change: Path, workload: str, seeds: list, seconds,
            run=run_side) -> dict:
    """Alternating pairs of ``run`` over ``seeds`` in the trees ``base``
    and ``change``, summarized; raises :class:`PairsError` before any run
    when their harnesses differ."""
    differ = harness_differences(base, change)
    if differ:
        raise PairsError("the two trees hold different harnesses: " + ", ".join(differ))
    metrics = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]
    pairs, runs = [], []
    for i, seed in enumerate(seeds):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        got = {}
        for side in order:
            got[side] = run(base if side == "base" else change, workload, seed, seconds)
            for name, record in got[side].items():
                if record["failed"]:
                    raise PairsError(f"{side} seed {seed} {name}: {record['failed']} of "
                                     f"{record['attempted']} calls failed")
                rtf = [record[kind]["rtf"]["value"] for kind in ("metrics", "raw_metrics")]
                runs.append({"workload": name, "seed": seed, "side": side,
                             "first": side == order[0], "raw_over_scaled_rtf": rtf[1] / rtf[0]})
        pairs.append((got["base"], got["change"]))
    return {"seeds": list(seeds), "results": summarize(pairs, metrics), "runs": runs,
            "environment": pairs[0][1][next(iter(pairs[0][1]))].get("environment")}


def report(summary: dict) -> str:
    lines = []
    for workload, result in summary["results"].items():
        seeds = summary["seeds"]
        lines.append(f"{workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}")
        for kind in ("metrics", "raw_metrics"):
            lines.append(f"  {'scaled' if kind == 'metrics' else 'raw'}:")
            for name, v in result[kind].items():
                b, c = v["base"], v["change"]
                ratio = "" if v["change_over_base"] is None else f"{v['change_over_base']:.4f}"
                flag = "  ! scaled and raw disagree" if name in result["disagree"] else ""
                lines.append(
                    f"    {name:18} base {b['median']:.5g} [{b['q1']:.5g}, {b['q3']:.5g}]"
                    f"  change {c['median']:.5g} [{c['q1']:.5g}, {c['q3']:.5g}]"
                    f"  ratio {ratio:6}  wins {v['wins']}/{v['pairs']}  {v['verdict']}{flag}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the revision to compare against")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"),
                    help="inclusive seed range A-B, one pair per seed (default 1-10)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured span per run (default: the benchmark's run_seconds)")
    ap.add_argument("--out", type=Path, default=None,
                    help="JSON output (default: BENCH_<change commit>.json here)")
    args = ap.parse_args(argv)

    head = _git("rev-parse", "HEAD").strip()
    dirty = bool(_git("status", "--porcelain").strip())
    try:
        with tempfile.TemporaryDirectory() as tmp:
            base_commit = export(args.base, Path(tmp))
            summary = compare(Path(tmp), ROOT, args.workload, args.seeds, args.seconds)
    except (PairsError, subprocess.CalledProcessError, OSError) as exc:
        print(f"error: {getattr(exc, 'stderr', None) or exc}", file=sys.stderr)
        return 1
    summary = {"base": {"rev": args.base, "commit": base_commit},
               "change": {"commit": head, "uncommitted_changes": dirty},
               "workload": args.workload, "seconds": args.seconds, **summary}
    out = args.out or Path(f"BENCH_{head[:7]}{'-dirty' if dirty else ''}.json")
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(report(summary))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded input generation for the benchmark workloads.

Every input is a pure function of ``(seed, workload, index)`` through
``numpy.random.SeedSequence``, so the same seed yields the same WAV bytes on
every machine with the same numpy, and different seeds yield different
inputs.  The program under test sees only the rendered WAV files.

Signals are synthetic speech proxies, because no speech corpus ships with the
repository: a Laplacian carrier under a heavy-tailed block envelope (the
property the IVA source ordering keys on) against Gaussian noise with a
block-level level fluctuation.  Scenes come from the repository's own
image-method simulator with its default constraints.
"""

import argparse
import json
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional

import numpy as np

from hybridse.simkit import SceneRender, render_scene, sample_scene
from hybridse.wavio import write_wav
from run import WORKLOADS

FS = 16000
BLOCK = 800


# Pool sizes: the timed loop cycles through the pool, so a pool only has to
# cover the spread of input properties, not the number of calls.
OFFLINE_POOL = 8
OFFLINE_SECONDS = 10.0
SHORT_POOL = 48
SHORT_RANGE = (1.0, 3.0)
CORPUS_FILES = 6
CORPUS_SPEECH_SECONDS = 4.0
CORPUS_NOISE_SECONDS = 5.0
SCENE_POOL = 512            # a power of two, for the bit-reversal order
SCENE_CANDIDATES = 4096
SCENE_KEEP = 0.985

# Quality panel for iva_sisnr_gain_db: a fixed set of offline-long scenes,
# independent of --seed, so two commits are compared on identical scenes.
# Per-scene IVA gain ranges over more than 15 dB across simulator scenes, so
# a panel redrawn per seed could not resolve a quality change.
PANEL_KEY = 20250519
PANEL_SCENES = 8

_TAGS = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def rng_for(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _TAGS[workload], index]))


def speech_proxy(rng: np.random.Generator, n: int) -> np.ndarray:
    env = np.repeat(rng.exponential(1.0, n // BLOCK + 1), BLOCK)[:n] + 0.01
    return 0.1 * rng.laplace(size=n) * env


def fluctuating_noise(rng: np.random.Generator, n: int) -> np.ndarray:
    env = np.repeat(rng.uniform(0.5, 1.5, n // BLOCK + 1), BLOCK)[:n]
    return 0.1 * rng.standard_normal(n) * env


def render(rng: np.random.Generator, seconds: float) -> SceneRender:
    """A simulator scene (defaults) around a speech proxy and noise."""
    n = int(round(seconds * FS))
    speech = speech_proxy(rng, n)
    noise = fluctuating_noise(rng, n)
    return render_scene(sample_scene(int(rng.integers(0, 2 ** 63))), speech, noise)


def short_lengths(rng: np.random.Generator, count: int) -> np.ndarray:
    """Clip lengths in seconds, stratified over SHORT_RANGE: one draw per
    equal-width stratum, shuffled.  Per-file time scales with length, so
    stratifying keeps the length mix, and with it file_ms_p50, nearly the same
    from seed to seed while each seed still draws its own lengths."""
    lo, hi = SHORT_RANGE
    u = (np.arange(count) + rng.uniform(size=count)) / count
    return lo + (hi - lo) * rng.permutation(u)


@dataclass
class Inputs:
    files: List[Path]                # enhance inputs, stereo WAV
    seconds: List[float]             # audio seconds per file
    speech_dir: Optional[Path] = None
    noise_dir: Optional[Path] = None
    scene_seeds: List[int] = field(default_factory=list)   # simulate --seed per call


def make_inputs(workload: str, seed: int, work: Path, pool: Optional[int] = None) -> Inputs:
    """Render the workload's inputs for ``seed`` under ``work``.

    ``pool`` shrinks the pool (tests only); the benchmark uses the defaults.
    """
    work.mkdir(parents=True, exist_ok=True)
    if workload == "simulate":
        return _make_corpora(seed, work, pool or CORPUS_FILES)
    if workload == "offline-long":
        count = pool or OFFLINE_POOL
        lengths = [OFFLINE_SECONDS] * count
    elif workload == "causal-short":
        count = pool or SHORT_POOL
        lengths = list(short_lengths(rng_for(seed, workload, 0), count))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files, secs = [], []
    for i, length in enumerate(lengths):
        scene = render(rng_for(seed, workload, i + 1), length)
        path = work / f"in_{i:03d}.wav"
        write_wav(path, FS, scene.mixture)
        files.append(path)
        secs.append(scene.mixture.shape[1] / FS)
    return Inputs(files, secs)


def _make_corpora(seed: int, work: Path, count: int, pool: int = SCENE_POOL) -> Inputs:
    speech_dir, noise_dir = work / "speech", work / "noise"
    speech_dir.mkdir(exist_ok=True)
    noise_dir.mkdir(exist_ok=True)
    for i in range(count):
        rng = rng_for(seed, "simulate", i + 1)
        write_wav(speech_dir / f"s{i:02d}.wav", FS,
                  speech_proxy(rng, int(CORPUS_SPEECH_SECONDS * FS)))
        write_wav(noise_dir / f"n{i:02d}.wav", FS,
                  fluctuating_noise(rng, int(CORPUS_NOISE_SECONDS * FS)))
    return Inputs([], [], speech_dir, noise_dir, scene_seeds(seed, pool))


def scene_seeds(seed: int, pool: int = SCENE_POOL,
                candidates: int = SCENE_CANDIDATES) -> List[int]:
    """The ``hybridse simulate --seed`` values of calls 0, 1, ... (cycled).

    Render cost and memory grow with the number of image sources, about
    (RT60 + 50 ms)^3 / room volume, which is heavy-tailed over the simulator's
    scenes, so a few scenes would set the tail time and the peak memory of a
    run.  So the seeds are stratified by that cost: ``candidates`` seeds are
    drawn from ``seed`` and sorted by the cost of the scene the CLI will draw
    from each; the costliest 1.5% are dropped, and the middle seed of each
    of ``pool`` equal strata is kept.  Calls take the strata in bit-reversed
    order, so any run of a few hundred calls covers the cost range evenly.
    """
    rng = rng_for(seed, "simulate", 0)
    drawn = [int(s) for s in rng.integers(0, 2 ** 31, candidates)]
    order = np.argsort([_scene_cost(s) for s in drawn], kind="stable")
    kept = order[:int(len(order) * SCENE_KEEP)]
    picks = [drawn[stratum[len(stratum) // 2]] for stratum in np.array_split(kept, pool)]
    bits = pool.bit_length() - 1
    return [picks[int(format(k, f"0{bits}b")[::-1], 2)] for k in range(pool)]


def _scene_cost(cli_seed: int) -> float:
    # the scene `hybridse simulate --seed cli_seed --n-scenes 1` renders
    rng = np.random.default_rng(cli_seed)
    spec = sample_scene(int(rng.integers(0, 2 ** 63)))
    return (spec.rt60 + 0.05) ** 3 / float(np.prod(spec.room_dims))


def quality_panel():
    """The fixed scenes behind iva_sisnr_gain_db (see PANEL_KEY)."""
    return [render(np.random.default_rng(np.random.SeedSequence([PANEL_KEY, i])),
                   OFFLINE_SECONDS) for i in range(PANEL_SCENES)]


def load_inputs(path: Path) -> Inputs:
    d = json.loads(Path(path).read_text())
    return Inputs([Path(f) for f in d["files"]], d["seconds"],
                  *(Path(d[k]) if d[k] else None for k in ("speech_dir", "noise_dir")),
                  d["scene_seeds"])


def main(argv=None) -> int:
    """Render a workload's inputs and write their list to ``<out>/inputs.json``.
    The worker runs this in a child process, so that the memory rendering
    takes stays out of the workload process's peak_rss_mb."""
    ap = argparse.ArgumentParser(description=main.__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    inputs = make_inputs(args.workload, args.seed, Path(args.out))
    (Path(args.out) / "inputs.json").write_text(json.dumps(asdict(inputs), default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())

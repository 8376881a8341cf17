#!/usr/bin/env python3
"""Print one sha256 line per program output, to show that a change keeps
every output byte for byte.

Run it in two checkouts and compare; it takes no options and imports the
package from the ``src/`` next to it:

    python3 scripts/fingerprint.py > before.txt    # at the parent commit
    python3 scripts/fingerprint.py > after.txt     # with the change
    diff before.txt after.txt

The first line, ``# blas <name> <version>; <thread variables>``, names the
BLAS library numpy was built with and the thread-count variables of the
run, so a diff between two machines shows where it may come from.

The artifacts, one line each:

- ``enhance`` wave and mask for every preset, with and without IVA, on a
  2 s scene, a 10 s scene (625 frames, which the network runs in three
  blocks), a silent file (IVA bypass) and a 100-sample file; the scenes
  are mixed by :func:`fixed_mixture`, so a change to the simulator's
  convolution moves only the ``render_scene`` and ``simulate`` lines;
- ``enhance`` wave and mask for ``lps-sn-m2`` and ``lps-sn-m2-dual``, with
  and without IVA, on the first 65 and 129 frames of the 10 s scene: one
  forward block whose frame-local front runs in two and three pieces;
- ``enhance`` wave and mask for every preset on the 2 s scene with IVA,
  its weights' batch norm statistics and PReLU slopes drawn per channel
  (:func:`with_norms`), so that each fold of a batch norm into its conv
  and each PReLU shows in the output;
- ``enhance`` wave and mask for every preset with IVA on two rank-deficient
  inputs: microphone 0 of the 2 s scene on both channels, and microphone 1
  on both; and for the ``mask1_iva`` presets, microphone 0 of the 2 s and
  of the 10 s scene on both channels, scaled to peak 10 and to peak 1000:
  beyond full scale, where IVA's remainder sits at its envelope floor;
- ``separate``'s speech and noise waves (Aux-IVA, then ``istft`` at the
  input length) on the 2 s and the 10 s scene, on the first 40 frames of
  the 2 s scene (fewer than 64, see :func:`hybridse.covariance_stats`), on
  the two rank-deficient inputs and on the four loud ones, and the WAVs
  one ``hybridse separate`` run over both scenes writes;
- the WAVs of one ``hybridse enhance`` and one ``hybridse separate`` run
  on a 30 s scene, which the network runs in eight blocks;
- the WAVs of four ``hybridse enhance`` runs on the 2 s scene in one
  process: seed 0, seed 1, a ``--config`` file that switches the preset,
  then seed 0 again, so a setting one call leaves behind shows as a
  changed line; and of one run with a ``--weights`` file that holds the
  default preset's seed-0 weights, drawn per channel by :func:`with_norms`;
- the exit code and stderr of five failing ``hybridse`` calls: a missing
  ``--config`` file, ``seed = -3`` and an unknown key in a config file, a
  mono input to ``enhance`` and a corrupt ``--weights`` file; and the exit
  code, stdout, stderr and written file names of an ``enhance`` of a
  silent file, the 2 s scene and a mono file, in that order, and of an
  ``enhance`` of a silent file, a mono file and the 2 s scene, serially
  and with ``--jobs 2``, whose two lines are equal;
- per preset, at 1, 18, 19 and 208 frames of the 10 s scene: the
  ``build_features`` planes, their ``band_merge`` in float32 and in
  float64, and the ``sfe`` stack of the float64 merge cast to float32
  (what the network read before the merge kept float32);
- a depthwise ``conv2d`` at 600 and 2000 frames, float32 and float64,
  dilation ``(5, 1)``;
- a 1x1 depthwise and a 1x5 strided ``conv2d`` on input that holds exact
  zeros, with and without a bias that holds -0.0, so the sign of every
  zero sum shows;
- ``gru_scan`` at the G-DPRNN's intra shape (4 GRUs over 33 bands, the
  block's frames as the batch, 8 -> 32) and inter shape (2 GRUs over the
  block's frames, 33 bands as the batch, 8 -> 16) at 125 and 208 frames,
  and at ``[1, 7, 5, 3 -> 4]``, float32 and float64, from zeros and from
  an ``h0``;
- ``istft`` of a stereo spectrogram at lengths short of, at and beyond
  its overlap-add extent;
- ``image_rir`` taps and direct-path indices of ``sample_scene`` seeds
  0-599 and of the heavy-tail seeds 142, 1132 and 1827 (the scenes that
  span the most chunks), for the speech and for the noise source;
- ``render_scene`` mixture and target of ``sample_scene`` seeds 0-7;
- every WAV and the manifest of one ``hybridse simulate`` run;
- ``hybridse inspect`` stdout for every preset.
"""

import contextlib
import dataclasses
import hashlib
import io
import os
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hybridse import (DEFAULT_PRESET, PRESETS, IvaConfig,  # noqa: E402
                      auxiva_separate, enhance, image_rir, init_random, istft,
                      mix_at_snr, render_scene, sample_scene, save_weights,
                      stft, write_wav)
from hybridse.bands import band_merge  # noqa: E402
from hybridse.cli import main as cli_main  # noqa: E402
from hybridse.model import build_features, sfe  # noqa: E402
from hybridse.nn import conv2d, gru_scan  # noqa: E402

FS = 16000
# the environment variables that set a BLAS or OpenMP thread count
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# small rooms near RT60 0.4 s, whose images span the most image_rir chunks
HEAVY_RIR_SEEDS = (142, 1132, 1827)


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


def dry_signals(seed: int, n: int):
    """A speech stand-in (Laplacian under a block envelope) and noise."""
    rng = np.random.default_rng(seed)
    env = np.repeat(0.05 + rng.exponential(0.5, n // 800 + 1), 800)[:n]
    return 0.1 * env * rng.laplace(size=n), 0.1 * rng.standard_normal(n)


def smooth_length(n: int) -> int:
    """The smallest 2-3-5-smooth integer >= ``n``: the FFT length the
    simulator once used for a whole-signal convolution."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def fixed_mixture(seed: int, speech, noise):
    """The mixture ``render_scene(sample_scene(seed), speech, noise)`` gave
    while the simulator convolved whole signals: each source convolved with
    its ``image_rir`` taps at the full convolution's fast FFT length, mixed
    by ``mix_at_snr``.  The ``enhance`` and ``separate`` inputs stay fixed
    when the simulator's convolution changes."""
    scene = sample_scene(seed)

    def image(wave, position):
        taps = image_rir(dataclasses.replace(scene, source_position=position)).taps
        nfft = smooth_length(wave.size + taps.shape[1] - 1)
        return np.fft.irfft(np.fft.rfft(wave, nfft) * np.fft.rfft(taps, nfft), nfft)[:, :wave.size]
    return mix_at_snr(image(speech, scene.source_position),
                      image(noise, scene.noise_position), scene.snr_db)[0]


def with_norms(w, seed: int):
    """``w`` with every batch norm's gamma, beta, mean and var and every
    PReLU slope drawn per channel; the slopes lie in (-0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    draws = {"gamma": (0.5, 1.5), "beta": (-0.2, 0.2), "mean": (-0.2, 0.2),
             "var": (0.3, 2.0), "alpha": (-0.5, 1.5)}
    out = dict(w)
    for name, tensor in w.items():
        leaf = name.rsplit(".", 1)[1]
        if leaf in draws:
            out[name] = rng.uniform(*draws[leaf], tensor.shape).astype(np.float32)
    return out


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"hybridse {' '.join(argv)} exited {rc}")
    return out.getvalue()


def failing_cli(argv, root: Path, written=None) -> str:
    """``"exit <code> <sha256>"`` of a call that must fail: the sha256 of
    its stderr or, given the directory ``written``, of its stdout, its
    stderr and the names of the files in ``written``; ``root`` is replaced
    by ``<tmp>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_main(argv)
    if rc == 0:
        raise RuntimeError(f"hybridse {' '.join(argv)} exited 0")
    text = err.getvalue()
    if written is not None:
        names = "".join(f"{path.name}\n" for path in sorted(written.glob("*")))
        text = f"{out.getvalue()}\0{text}\0{names}"
    text = text.replace(str(root), "<tmp>")
    return f"exit {rc} {hashlib.sha256(text.encode()).hexdigest()}"


def fingerprints(rir_seeds=range(600), presets=tuple(sorted(PRESETS))):
    """Yield ``"<artifact> <sha256>"`` lines."""
    speech, noise = dry_signals(0, 2 * FS)
    long_speech, long_noise = dry_signals(2, 10 * FS)
    inputs = {"scene": fixed_mixture(0, speech, noise),
              "scene-10s": fixed_mixture(1, long_speech, long_noise),
              "silent": np.zeros((2, 2 * FS)),
              "short": 0.1 * np.random.default_rng(1).standard_normal((2, 100))}
    copied = {"mic0-twice": inputs["scene"][[0, 0]], "mic1-twice": inputs["scene"][[1, 1]]}
    loud = {f"{tag}mic0-twice-peak{peak}": peak / np.max(np.abs(mix[0])) * mix[[0, 0]]
            for tag, mix in (("", inputs["scene"]), ("10s-", inputs["scene-10s"]))
            for peak in (10, 1000)}
    for preset in presets:
        w = init_random(PRESETS[preset], 0)
        for use_iva in (True, False):
            for name, wave in inputs.items():
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    res = enhance(wave, w, PRESETS[preset], IvaConfig(), use_iva=use_iva)
                tag = f"enhance {preset} {'iva' if use_iva else 'no-iva'} {name}"
                yield f"{tag} wave {digest(res.wave)}"
                yield f"{tag} mask {digest(res.mask)}"
        res = enhance(inputs["scene"], with_norms(w, 5), PRESETS[preset], IvaConfig())
        yield f"enhance {preset} iva scene norms wave {digest(res.wave)}"
        yield f"enhance {preset} iva scene norms mask {digest(res.mask)}"
        for name, wave in copied.items():
            res = enhance(wave, w, PRESETS[preset], IvaConfig())
            yield f"enhance {preset} iva {name} wave {digest(res.wave)}"
            yield f"enhance {preset} iva {name} mask {digest(res.mask)}"
        if PRESETS[preset].masking == "mask1_iva":
            for name, wave in loud.items():
                res = enhance(wave, w, PRESETS[preset], IvaConfig())
                yield f"enhance {preset} iva {name} wave {digest(res.wave)}"
                yield f"enhance {preset} iva {name} mask {digest(res.mask)}"

    # 65 and 129 frames: one forward block, its front run in two and three
    # pass blocks
    for preset in (p for p in ("lps-sn-m2", "lps-sn-m2-dual") if p in presets):
        w = init_random(PRESETS[preset], 0)
        for frames in (65, 129):
            for use_iva in (True, False):
                res = enhance(inputs["scene-10s"][:, :frames * 256], w, PRESETS[preset],
                              IvaConfig(), use_iva=use_iva)
                tag = f"enhance {preset} {'iva' if use_iva else 'no-iva'} {frames} frames"
                yield f"{tag} wave {digest(res.wave)}"
                yield f"{tag} mask {digest(res.mask)}"

    # 40 frames: below 64, where the statistics' cross term moved once
    for name, wave in [("scene", inputs["scene"]), ("scene-10s", inputs["scene-10s"]),
                       ("scene-40-frames", inputs["scene"][:, :40 * 256]),
                       *copied.items(), *loud.items()]:
        sources, _ = auxiva_separate(stft(wave), IvaConfig())
        for source, spec in zip(("speech", "noise"), sources):
            yield f"separate {name} {source} {digest(istft(spec, length=wave.shape[1]))}"

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in ("scene", "scene-10s"):
            write_wav(root / f"{name}.wav", FS, inputs[name])
        run_cli(["separate", str(root / "scene.wav"), str(root / "scene-10s.wav"),
                 "--out", str(root / "out")])
        for path in sorted((root / "out").iterdir()):
            yield f"separate cli {path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"
        write_wav(root / "scene-30s.wav", FS, fixed_mixture(2, *dry_signals(3, 30 * FS)))
        for command in ("enhance", "separate"):
            run_cli([command, str(root / "scene-30s.wav"), "--out", str(root / command)])
            for path in sorted((root / command).iterdir()):
                data = path.read_bytes()
                yield f"{command} 30s cli {path.name} {hashlib.sha256(data).hexdigest()}"

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_wav(root / "scene.wav", FS, inputs["scene"])
        (root / "preset.cfg").write_text("preset = lps-s-m2\n")
        config = ["--config", str(root / "preset.cfg")]
        weights = root / "norms.gtcw"
        weights.write_bytes(save_weights(with_norms(init_random(PRESETS[DEFAULT_PRESET], 0), 5)))
        for name, lead, flags in [("seed-0", [], ["--seed", "0"]),
                                  ("seed-1", [], ["--seed", "1"]),
                                  ("config-lps-s-m2", config, []),
                                  ("seed-0-again", [], ["--seed", "0"]),
                                  ("weights", [], ["--weights", str(weights)])]:
            out = root / f"{name}.wav"
            run_cli([*lead, "enhance", str(root / "scene.wav"), "--out", str(out), *flags])
            yield f"enhance cli {name} {hashlib.sha256(out.read_bytes()).hexdigest()}"

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_wav(root / "scene.wav", FS, inputs["scene"])
        write_wav(root / "mono.wav", FS, inputs["scene"][0])
        (root / "seed.cfg").write_text("seed = -3\n")
        (root / "key.cfg").write_text("nonsense = 1\n")
        (root / "corrupt.gtcw").write_bytes(b"GTCW" + bytes(12))
        enhance_scene = ["enhance", str(root / "scene.wav"), "--out", str(root / "o.wav")]
        for name, argv in [
                ("missing-config", ["--config", str(root / "missing.cfg"), "inspect"]),
                ("config-negative-seed", ["--config", str(root / "seed.cfg"), *enhance_scene]),
                ("config-unknown-key", ["--config", str(root / "key.cfg"), "inspect"]),
                ("enhance-mono", ["enhance", str(root / "mono.wav"), "--out", str(root / "o.wav")]),
                ("corrupt-weights", [*enhance_scene, "--weights", str(root / "corrupt.gtcw")])]:
            yield f"fail {name} {failing_cli(argv, root)}"
        write_wav(root / "silent.wav", FS, inputs["silent"])
        batch = root / "batch"
        argv = ["enhance", *(str(root / f"{name}.wav") for name in ("silent", "scene", "mono")),
                "--out", str(batch)]
        yield f"fail enhance-batch {failing_cli(argv, root, batch)}"
        # the mono file fails before the scene, which neither run may write
        early = root / "early"
        for name, jobs in (("enhance-batch-early", "1"), ("enhance-batch-early-jobs2", "2")):
            shutil.rmtree(early, ignore_errors=True)
            argv = ["enhance", *(str(root / f"{stem}.wav") for stem in ("silent", "mono", "scene")),
                    "--out", str(early), "--jobs", jobs]
            yield f"fail {name} {failing_cli(argv, root, early)}"

    y = stft(inputs["scene-10s"])
    y_iva = 0.5 * y[::-1]
    for preset in presets:
        cfg = PRESETS[preset]
        for frames in (1, 18, 19, 208):
            feats = build_features(y[:, :frames], y_iva[:, :frames], cfg)
            merged64 = band_merge(feats.astype(np.float64))
            tag = f"{preset} {frames} frames"
            yield f"features {tag} {digest(feats)}"
            yield f"band_merge float32 {tag} {digest(band_merge(feats))}"
            yield f"band_merge float64 {tag} {digest(merged64)}"
            yield f"sfe {tag} {digest(sfe(merged64.astype(np.float32)[None], cfg.sfe_kernel))}"

    rng = np.random.default_rng(4)
    for dtype in (np.float32, np.float64):
        k = rng.standard_normal((16, 1, 3, 3)).astype(dtype)
        bias = rng.standard_normal(16).astype(dtype)
        for frames in (600, 2000):
            x = rng.standard_normal((1, 16, frames, 33)).astype(dtype)
            out = conv2d(x, k, bias, dilation=(5, 1), groups=16)
            yield f"conv2d depthwise {np.dtype(dtype).name} {frames} frames {digest(out)}"

    x = rng.standard_normal((1, 16, 40, 33)).astype(np.float32)
    x.reshape(-1)[::3] = 0.0
    x[:, :, 5] = -0.0
    signed_bias = rng.standard_normal(16).astype(np.float32)
    signed_bias[::2] = [-0.0, 0.0] * 4
    for name, shape, kwargs in (("1x1 depthwise", (16, 1, 1, 1), {"groups": 16}),
                                ("1x5 stride 2", (16, 16, 1, 5), {"stride": (1, 2)})):
        k = rng.standard_normal(shape).astype(np.float32)
        for bias in ("no-bias", "bias"):
            out = conv2d(x, k, signed_bias if bias == "bias" else None, **kwargs)
            yield f"conv2d {name} zeros {bias} {digest(out)}"

    rng = np.random.default_rng(6)
    shapes = [(f"{name} {frames} frames", shape) for frames in (125, 208)
              for name, shape in (("intra", (4, 33, frames, 8, 32)),
                                  ("inter", (2, frames, 33, 8, 16)))]
    for name, (s, t_len, batch, d_in, hidden) in [*shapes, ("1x7x5 3->4", (1, 7, 5, 3, 4))]:
        for dtype in (np.float32, np.float64):
            x = rng.standard_normal((s, t_len, batch, d_in)).astype(dtype)
            weights = [(0.3 * rng.standard_normal(shape)).astype(dtype) for shape in
                       ((s, d_in, 3 * hidden), (s, hidden, 3 * hidden), (s, 3 * hidden))]
            h0 = rng.standard_normal((s, batch, hidden)).astype(dtype)
            for start, h in (("zeros", None), ("h0", h0)):
                out = gru_scan(x, *weights, h0=h)
                yield f"gru_scan {name} {np.dtype(dtype).name} {start} {digest(out)}"

    rng = np.random.default_rng(3)
    spec = rng.standard_normal((2, 12, 257)) + 1j * rng.standard_normal((2, 12, 257))
    for length in (3000, 11 * 256 + 512, 4000):   # short of, at and past the extent
        yield f"istft stereo length {length} {digest(istft(spec, length=length))}"

    for seed in (*rir_seeds, *(s for s in HEAVY_RIR_SEEDS if s not in rir_seeds)):
        sc = sample_scene(seed)
        for source, pos in (("speech", sc.source_position), ("noise", sc.noise_position)):
            rir = image_rir(dataclasses.replace(sc, source_position=pos))
            yield f"image_rir seed {seed} {source} {digest(rir.taps, rir.direct_path_index)}"

    speech, noise = dry_signals(1, FS)
    for seed in range(8):
        render = render_scene(sample_scene(seed), speech, noise)
        yield f"render_scene seed {seed} mixture {digest(render.mixture)}"
        yield f"render_scene seed {seed} target {digest(render.target)}"

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for sub in ("speech", "noise", "out"):
            (root / sub).mkdir()
        for i in range(2):
            speech, noise = dry_signals(10 + i, FS)
            write_wav(root / "speech" / f"s{i}.wav", FS, speech)
            write_wav(root / "noise" / f"n{i}.wav", FS, noise)
        run_cli(["simulate", "--speech-dir", str(root / "speech"),
                 "--noise-dir", str(root / "noise"), "--n-scenes", "4",
                 "--seed", "0", "--out", str(root / "out")])
        for path in sorted((root / "out").iterdir()):
            data = path.read_bytes().replace(str(root).encode(), b"<corpus>")
            yield f"simulate {path.name} {hashlib.sha256(data).hexdigest()}"

    for preset in presets:
        text = run_cli(["inspect", preset])
        yield f"inspect {preset} {hashlib.sha256(text.encode()).hexdigest()}"


def environment() -> str:
    """``"# blas <name> <version>; <thread variables>"``: what a diff of two
    machines' lines may come from."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}" for var in THREAD_VARS)
    return f"# blas {blas.get('name')} {blas.get('version')}; {threads}"


if __name__ == "__main__":
    print(environment())
    for line in fingerprints():
        print(line)

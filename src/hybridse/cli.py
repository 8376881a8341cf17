"""Command-line frontend.

Subcommands: enhance (full pipeline), separate (IVA only), simulate (scene
generator), eval (SI-SNR report), inspect (parameter/MAC accounting).

Exit codes are a stable contract: 0 success, 2 input validation, 3 weight
format or config mismatch, 4 numerical failure.

A plain ``key = value`` config file can preload any long flag (names without
the leading double dash); explicit command-line flags win.
"""

import argparse
import sys
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import numpy as np

from .auxiva import IvaConfig, auxiva_separate, iva_macs_per_second
from .dsp import DEFAULT_SAMPLE_RATE, stft, istft
from .errors import (DegenerateInputError, InvalidInputError, NumericalError,
                     SceneInfeasibleError, WeightFormatError)
from .loss import si_snr
from .model import (DEFAULT_PRESET, count_macs, count_params, enhance,
                    init_random, load_weights, macs_breakdown, param_breakdown,
                    preset_config)
from .simkit import render_scene, sample_scene, write_manifest
from .wavio import read_wav, write_wav

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_WEIGHTS = 3
EXIT_NUMERICAL = 4


def _positive_int(raw: str) -> int:
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw}")
    return int(raw)


_CONFIG_KEYS = {
    "preset": str,
    "weights": str,
    "iva-iters": int,
    "no-iva": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "seed": int,
    "out": str,
    "jobs": _positive_int,
}


def _load_config_file(path: str) -> dict:
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise InvalidInputError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            values[key.replace("-", "_")] = _CONFIG_KEYS[key](raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidInputError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="hybridse",
        description="Dual-channel low-SNR speech enhancement (IVA + refinement network)")
    parser.add_argument("--config", help="key=value file preloading any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance stereo WAV files to mono speech")
    p.add_argument("inputs", nargs="+", help="stereo 16 kHz WAV files")
    p.add_argument("--preset", default=DEFAULT_PRESET)
    p.add_argument("--weights", help="weight file; omitted = seeded random init")
    p.add_argument("--iva-iters", type=int, default=IvaConfig.iterations)
    p.add_argument("--no-iva", action="store_true",
                   help="feed the noisy spectrogram in place of the IVA output")
    p.add_argument("--seed", type=int, default=0, help="seed for the random weights")
    p.add_argument("--out", help="output file or directory")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes over the input files")

    p = sub.add_parser("separate", help="Aux-IVA separation only")
    p.add_argument("inputs", nargs="+", help="stereo 16 kHz WAV files")
    p.add_argument("--iva-iters", type=int, default=IvaConfig.iterations)
    p.add_argument("--out", help="output file or directory")

    p = sub.add_parser("simulate", help="render random scenes from dry corpora")
    p.add_argument("--speech-dir", required=True)
    p.add_argument("--noise-dir", required=True)
    p.add_argument("--n-scenes", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed for scene generation")
    p.add_argument("--out", help="output directory (default: scenes)")

    p = sub.add_parser("eval", help="SI-SNR report for estimate/reference pairs")
    p.add_argument("--est-dir", required=True, help="mono 16 kHz WAV files")
    p.add_argument("--ref-dir", required=True, help="mono 16 kHz WAV files")
    p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("inspect", help="parameter and MAC accounting for a preset")
    p.add_argument("preset", nargs="?", default=DEFAULT_PRESET)
    p.add_argument("--iva-iters", type=int, default=IvaConfig.iterations)
    return parser, list(sub.choices.values())


def _read_input(path, channels: int):
    """Read a 16 kHz WAV of ``channels`` channels: [n] if mono, else [channels, n]."""
    rate, wave = read_wav(path)
    if rate != DEFAULT_SAMPLE_RATE:
        raise InvalidInputError(f"{path}: expected {DEFAULT_SAMPLE_RATE} Hz, got {rate}")
    got = 1 if wave.ndim == 1 else wave.shape[0]
    if got != channels:
        layout = "a mono" if channels == 1 else "a stereo"
        raise InvalidInputError(f"{path}: expected {layout} file, got {got} channels")
    return wave


def _out_path(out, in_path: str, suffix: str, multi: bool) -> Path:
    stem = Path(in_path).stem
    if out is None:
        return Path(in_path).with_name(f"{stem}{suffix}")
    out = Path(out)
    if not multi and out.suffix.lower() == ".wav":
        out.parent.mkdir(parents=True, exist_ok=True)
        return out
    out.mkdir(parents=True, exist_ok=True)
    return out / f"{stem}{suffix}"


@contextmanager
def _naming(path):
    """Prefix ``path`` to a per-file processing error, keeping its class and
    so its exit code."""
    try:
        yield
    except (InvalidInputError, DegenerateInputError, NumericalError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _enhance_one(path, cfg, w, iva_cfg, no_iva, out, multi):
    wave = _read_input(path, 2)
    with _naming(path):
        res = enhance(wave, w, cfg, iva_cfg=iva_cfg, use_iva=not no_iva)
    if not np.all(np.isfinite(res.wave)):
        raise NumericalError(f"{path}: enhancement produced non-finite samples")
    target = _out_path(out, path, ".enhanced.wav", multi)
    write_wav(target, DEFAULT_SAMPLE_RATE, res.wave)
    return str(target)


def cmd_enhance(args) -> int:
    cfg = preset_config(args.preset)
    if args.weights:
        w = load_weights(Path(args.weights).read_bytes(), cfg)
    else:
        w = init_random(cfg, args.seed)
    enhance_file = partial(_enhance_one, cfg=cfg, w=w,
                           iva_cfg=IvaConfig(iterations=args.iva_iters),
                           no_iva=args.no_iva, out=args.out, multi=len(args.inputs) > 1)
    if args.jobs > 1 and len(args.inputs) > 1:
        # deferred: the process pool costs import time that one job never uses
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            written = list(pool.map(enhance_file, args.inputs))
    else:
        written = [enhance_file(path) for path in args.inputs]
    for path in written:
        print(path)
    return EXIT_OK


def cmd_separate(args) -> int:
    iva_cfg = IvaConfig(iterations=args.iva_iters)
    multi = len(args.inputs) > 1
    for path in args.inputs:
        wave = _read_input(path, 2)
        with _naming(path):
            sources, _ = auxiva_separate(stft(wave), iva_cfg)
        speech = istft(sources[0], length=wave.shape[1])
        residual = istft(sources[1], length=wave.shape[1])
        speech_out = _out_path(args.out, path, ".speech.wav", multi)
        noise_out = _out_path(args.out, path, ".noise.wav", multi)
        write_wav(speech_out, DEFAULT_SAMPLE_RATE, speech)
        write_wav(noise_out, DEFAULT_SAMPLE_RATE, residual)
        print(speech_out)
        print(noise_out)
    return EXIT_OK


def _wav_files(directory: str):
    d = Path(directory)
    if not d.is_dir():
        raise InvalidInputError(f"{directory}: not a directory")
    return sorted(p for p in d.iterdir() if p.suffix.lower() == ".wav")


def cmd_simulate(args) -> int:
    if args.n_scenes < 0:
        raise InvalidInputError("n-scenes must be >= 0")
    speech_files = _wav_files(args.speech_dir)
    noise_files = _wav_files(args.noise_dir)
    if args.n_scenes > 0 and (not speech_files or not noise_files):
        raise InvalidInputError("speech and noise directories must each hold >= 1 WAV")
    out_dir = Path(args.out or "scenes")
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(args.seed)
    records = []
    for i in range(args.n_scenes):
        scene_seed = int(rng.integers(0, 2 ** 63))
        sp_path = speech_files[int(rng.integers(len(speech_files)))]
        nz_path = noise_files[int(rng.integers(len(noise_files)))]
        scene = sample_scene(scene_seed)
        speech = _read_input(sp_path, 1)
        noise = _read_input(nz_path, 1)
        render = render_scene(scene, speech, noise)
        mix_name = f"scene_{i:05d}.mix.wav"
        tgt_name = f"scene_{i:05d}.target.wav"
        write_wav(out_dir / mix_name, DEFAULT_SAMPLE_RATE, render.mixture)
        write_wav(out_dir / tgt_name, DEFAULT_SAMPLE_RATE, render.target)
        g2 = np.sum((render.mixture[0] - render.norm * render.speech_image[0]) ** 2)
        measured = 10.0 * np.log10(
            np.sum((render.norm * render.speech_image[0]) ** 2) / g2)
        rec = scene.to_dict()
        rec.update({
            "speech_file": str(sp_path), "noise_file": str(nz_path),
            "mixture": mix_name, "target": tgt_name,
            "norm": render.norm, "measured_snr_db": float(measured),
        })
        records.append(rec)
    write_manifest(out_dir / "manifest.jsonl", records)
    print(out_dir / "manifest.jsonl")
    return EXIT_OK


def cmd_eval(args) -> int:
    est_files = {p.name: p for p in _wav_files(args.est_dir)}
    ref_files = {p.name: p for p in _wav_files(args.ref_dir)}
    missing = sorted(set(est_files) ^ set(ref_files))
    lines = []
    scores = []
    for name in sorted(set(est_files) & set(ref_files)):
        est = _read_input(est_files[name], 1)
        ref = _read_input(ref_files[name], 1)
        n = min(est.size, ref.size)
        with _naming(f"{est_files[name]} vs {ref_files[name]}"):
            score = si_snr(est[:n], ref[:n])
        scores.append(score)
        lines.append(f"{name}\t{score:+.2f} dB")
    if scores:
        lines.append(f"mean\t{np.mean(scores):+.2f} dB over {len(scores)} files")
    else:
        lines.append("no file pairs evaluated")
    for name in missing:
        lines.append(f"unpaired\t{name}")
    report = "\n".join(lines)
    print(report)
    if args.out:
        Path(args.out).write_text(report + "\n")
    return EXIT_INVALID if missing else EXIT_OK


def cmd_inspect(args) -> int:
    cfg = preset_config(args.preset)
    iva_cfg = IvaConfig(iterations=args.iva_iters)
    params = param_breakdown(cfg)
    total = count_params(cfg)
    print(f"preset {args.preset}: {cfg}")
    print(f"parameters: {total} total")
    for layer, n in params.items():
        print(f"  {layer:28s} {n:8d}")
    macs = macs_breakdown(cfg, iva_cfg=iva_cfg)
    print(f"MACs/s: {count_macs(cfg, iva_cfg=iva_cfg) / 1e6:.2f} M total")
    for layer, n in macs.items():
        print(f"  {layer:28s} {n / 1e6:10.3f} M")
    per_iter = iva_macs_per_second(IvaConfig(iterations=1)) / 1e6
    print(f"IVA: {per_iter:.3f} MMACs/s per iteration, "
          f"{iva_cfg.iterations} iterations configured")
    return EXIT_OK


_DISPATCH = {
    "enhance": cmd_enhance,
    "separate": cmd_separate,
    "simulate": cmd_simulate,
    "eval": cmd_eval,
    "inspect": cmd_inspect,
}


def main(argv=None) -> int:
    parser, children = _build_parser()
    # apply config-file defaults before the real parse so flags still win;
    # each subcommand parser needs them too, since a subparser re-applies its
    # own action defaults over whatever the parent put in the namespace
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    prelim, _ = pre.parse_known_args(argv)
    if prelim.config:
        try:
            values = _load_config_file(prelim.config)
        except OSError as exc:
            print(f"error: cannot read config: {exc}", file=sys.stderr)
            return EXIT_INVALID
        except InvalidInputError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INVALID
        for target in [parser, *children]:
            target.set_defaults(**values)
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except WeightFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEIGHTS
    except (InvalidInputError, DegenerateInputError, SceneInfeasibleError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

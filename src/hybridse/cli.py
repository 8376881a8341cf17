"""Command-line frontend.

Subcommands: enhance (full pipeline), separate (IVA only), simulate (scene
generator), eval (SI-SNR report), inspect (parameter/MAC accounting).

Exit codes are a stable contract (``_EXIT_CODES``): 0 success, 2 input
validation or any other toolkit or OS error, 3 weight format or config
mismatch, 4 numerical failure, 5 out of memory.

``enhance`` and ``separate`` run one batch loop (:func:`_run_batch`).  Each
input file is read and computed by a call that writes nothing; then, in
input order and in this process, its outputs are written, its ``warning:``
lines are printed to stderr and its output paths to stdout, and its result
is dropped before the next file's is taken.  The warnings are the
pipeline's, then one for each output that clips at full scale or that
truncates to all-zero 16-bit PCM.  The first failure ends the run with its
one ``error:`` line, and no later file is written.  ``enhance --jobs``
moves only the computing to worker processes.

A plain ``key = value`` config file can preload any long flag a subcommand
takes but does not require (names without the leading double dash).  The
flag's own ``type`` reads the value, and a switch such as ``--no-iva`` reads
a boolean; explicit command-line flags win.

A process that calls :func:`main` many times, as a host driving it per file
does, builds what does not depend on the file only once: the argument
parsers (once per distinct set of config-file values; the file itself is
still read and checked on every call) and the prepared plans of the seeded
weights (:func:`model.prepare`, once per preset and ``--seed``, read-only).
Each cache keeps the ``_CACHED`` most recently used.  A ``--weights`` file
is read on every call, so a rewritten file takes effect, and prepared once
per call for all of its input files.  On glibc the first call also fixes
the allocator's thresholds and keeps every thread on one heap, so freed
memory is reused by the next file (:func:`_keep_freed_heap`).
"""

import argparse
import os
import re
import sys
import warnings
from contextlib import ExitStack, contextmanager
from functools import lru_cache, partial
from pathlib import Path

import numpy as np

from .auxiva import IvaConfig, auxiva_demixer, check_reference, iva_macs_per_second
from .dsp import DEFAULT_SAMPLE_RATE, istft_blocks, stft
from .errors import (DegenerateInputError, HybridseError, InvalidInputError,
                     NumericalError, WeightFormatError)
from .loss import si_snr
from .model import (DEFAULT_PRESET, _enhance, count_params, init_random,
                    load_weights, macs_breakdown, param_breakdown, prepare,
                    preset_config)
from .simkit import render_scene, sample_scene, write_manifest
from .wavio import read_wav, write_wav

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_WEIGHTS = 3
EXIT_NUMERICAL = 4
EXIT_MEMORY = 5

# exit code by error class; an error takes the first class of its MRO listed
_EXIT_CODES = {WeightFormatError: EXIT_WEIGHTS, NumericalError: EXIT_NUMERICAL,
               MemoryError: EXIT_MEMORY, HybridseError: EXIT_INVALID,
               OSError: EXIT_INVALID}

# parsers and seeded plans one process keeps; the least recently used goes
# first
_CACHED = 16

# glibc's mallopt parameters, and the values its dynamic rule reaches at its
# 64-bit ceiling (trim = 2 x the mmap threshold)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 64 << 20


@lru_cache(maxsize=None)
def _keep_freed_heap() -> None:
    """Once per process, on glibc only: serve blocks under 32 MiB from the
    heap and keep up to 64 MiB of freed heap mapped, so the next file reuses
    the pages the last one touched instead of faulting in fresh ones; larger
    blocks, such as a long file's spectrogram, still go straight back to the
    OS.  Setting either value turns off glibc's own adjustment of both, so
    both are set.  Every thread allocates from the one heap (one arena):
    the helper thread of :func:`simkit.render_scene` would otherwise keep a
    second arena, with its own freed pages mapped.  ``--jobs`` workers are
    forked and inherit the policy."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError, OSError):      # not POSIX, or not glibc
        return
    import ctypes       # deferred: importing the CLI module costs nothing more
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):    # 0 where glibc refuses it
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
        mallopt(_M_ARENA_MAX, 1)


class _Parser(argparse.ArgumentParser):
    def _get_values(self, action, arg_strings):
        # Python 3.11 strips the "--" of "--seed=--" and hands the option an
        # empty list, past its type check
        if action.option_strings and action.nargs is None and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)


def _positive_int(raw: str) -> int:
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {raw}")
    return int(raw)


def _non_negative_int(raw: str) -> int:
    if not raw.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {raw}")
    return int(raw)


_BOOLEANS = {"1": True, "0": False, "true": True, "false": False,
             "yes": True, "no": False, "on": True, "off": False}


def _boolean(raw: str) -> bool:
    if raw.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {raw}")
    return _BOOLEANS[raw.lower()]


def _load_config_file(path: str, subparsers) -> dict:
    flags = {opt[2:]: action for p in subparsers for action in p._actions
             for opt in action.option_strings
             if opt.startswith("--") and not action.required
             and action.default is not argparse.SUPPRESS}      # not --help
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"cannot read config: {exc}") from exc
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        # a comment starts with the line or after whitespace: a#b is a value
        line = re.split(r"(?:^|\s)#", line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"{path}:{lineno}: expected key = value")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in flags:
            raise InvalidInputError(f"{path}:{lineno}: unknown option {key!r}")
        action = flags[key]
        try:
            if action.nargs == 0:           # a switch such as --no-iva
                values[action.dest] = action.const if _boolean(raw) else action.default
            else:
                values[action.dest] = (action.type or str)(raw)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidInputError(f"{path}:{lineno}: {key}: {exc}") from exc
    return values


@lru_cache(maxsize=_CACHED)
def _build_parser(defaults=()):
    """``(parser, children)``: the full parser and its subcommand parsers,
    each of which sets ``run`` to its ``cmd_<name>`` handler.

    ``defaults`` are the sorted ``(dest, value)`` pairs a config file set;
    they are baked into the full parser and into each subcommand parser,
    since a subparser re-applies its own action defaults over whatever the
    parent put in the namespace.  Parsing leaves a parser unchanged, so one
    is built per distinct ``defaults`` and reused.
    """
    parser = _Parser(
        prog="hybridse",
        description="Dual-channel low-SNR speech enhancement (IVA + refinement network)")
    parser.add_argument("--config", help="key=value file preloading any flag")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="enhance stereo WAV files to mono speech")
    p.set_defaults(run=cmd_enhance)
    p.add_argument("inputs", nargs="+", help="stereo 16 kHz WAV files")
    p.add_argument("--preset", default=DEFAULT_PRESET)
    p.add_argument("--weights", help="weight file; omitted = seeded random init")
    p.add_argument("--iva-iters", type=_non_negative_int, default=IvaConfig.iterations)
    p.add_argument("--no-iva", action="store_true",
                   help="feed the noisy spectrogram in place of the IVA output")
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seed for the random weights")
    p.add_argument("--out", help="output file or directory")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="parallel worker processes over the input files")

    p = sub.add_parser("separate", help="Aux-IVA separation only")
    p.set_defaults(run=cmd_separate)
    p.add_argument("inputs", nargs="+", help="stereo 16 kHz WAV files")
    p.add_argument("--iva-iters", type=_non_negative_int, default=IvaConfig.iterations)
    p.add_argument("--out", help="output file or directory")

    p = sub.add_parser("simulate", help="render random scenes from dry corpora")
    p.set_defaults(run=cmd_simulate)
    p.add_argument("--speech-dir", required=True)
    p.add_argument("--noise-dir", required=True)
    p.add_argument("--n-scenes", type=_non_negative_int, required=True)
    p.add_argument("--seed", type=_non_negative_int, default=0,
                   help="seed for scene generation")
    p.add_argument("--out", help="output directory (default: scenes)")

    p = sub.add_parser("eval", help="SI-SNR report for estimate/reference pairs")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--est-dir", required=True, help="mono 16 kHz WAV files")
    p.add_argument("--ref-dir", required=True, help="mono 16 kHz WAV files")
    p.add_argument("--out", help="also write the report to this file")

    p = sub.add_parser("inspect", help="parameter and MAC accounting for a preset")
    p.set_defaults(run=cmd_inspect)
    p.add_argument("preset", nargs="?", default=DEFAULT_PRESET)
    p.add_argument("--iva-iters", type=_non_negative_int, default=IvaConfig.iterations)
    children = tuple(sub.choices.values())
    for target in [parser, *children]:
        target.set_defaults(**dict(defaults))
    return parser, children


@lru_cache(maxsize=_CACHED)
def _seeded_weights(cfg, seed: int):
    """The plan of ``init_random(cfg, seed)``, built once per ``(cfg,
    seed)`` and shared by every later call; a plan is read-only."""
    return prepare(init_random(cfg, seed), cfg)


def _read_input(path, channels: int):
    """Read a 16 kHz WAV of ``channels`` channels: [n] if mono, else [channels, n]."""
    with _naming(path, errors=()):      # read_wav and OSError name the file themselves
        rate, wave = read_wav(path)
    if rate != DEFAULT_SAMPLE_RATE:
        raise InvalidInputError(f"{path}: expected {DEFAULT_SAMPLE_RATE} Hz, got {rate}")
    got = 1 if wave.ndim == 1 else wave.shape[0]
    if got != channels:
        layout = "a mono" if channels == 1 else "a stereo"
        raise InvalidInputError(f"{path}: expected {layout} file, got {got} channels")
    return wave


def _targets(out, inputs, suffixes):
    """Each input's output paths, one per suffix: next to the input, in the
    directory ``out``, or ``out`` itself if it ends in ``.wav`` and the call
    writes one file.  Two outputs on one file, or an output on an input,
    are invalid input, raised before anything is written."""
    one_file = (out is not None and Path(out).suffix.lower() == ".wav"
                and len(inputs) * len(suffixes) == 1)
    read = {Path(path).resolve(): path for path in inputs}
    owner, targets = {}, []
    for path in inputs:
        folder = Path(path).parent if out is None else Path(out)
        paths = [Path(out) if one_file else folder / (Path(path).stem + suffix)
                 for suffix in suffixes]
        for target in paths:
            key = target.resolve()
            if key in read:
                raise InvalidInputError(f"{path} would write over the input {read[key]}")
            if key in owner:
                raise InvalidInputError(f"{owner[key]} and {path} both write {target}")
            owner[key] = path
        targets.append(paths)
    return targets


@contextmanager
def _naming(path, errors=(InvalidInputError, DegenerateInputError, NumericalError)):
    """Prefix ``path`` to a per-file error of one of the classes
    ``errors``, keeping its class and so its exit code, and to running out
    of memory."""
    try:
        yield
    except errors as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except MemoryError as exc:      # numpy's subclass takes (shape, dtype), not a message
        raise MemoryError(f"{path}: out of memory ({exc})") from exc


def _write(target: Path, wave: np.ndarray) -> None:
    with _naming(target, errors=()):    # write_wav and OSError name the file themselves
        target.parent.mkdir(parents=True, exist_ok=True)
        write_wav(target, DEFAULT_SAMPLE_RATE, wave)


def _pcm_warnings(path, target: Path, wave: np.ndarray) -> list:
    """A ``warning: <path>: ...`` line for what 16-bit PCM loses of
    ``wave``, the output of ``path`` bound for ``target``: the samples
    beyond full scale, which :func:`write_wav` clips, or a non-zero wave
    whose every sample truncates to 0."""
    # two reductions, which allocate nothing, before any count is taken
    peak = float(max(wave.max(initial=0.0), -wave.min(initial=0.0)))
    if peak > 1.0:
        clipped = np.count_nonzero(wave > 1.0) + np.count_nonzero(wave < -1.0)
        return [f"warning: {path}: {target}: {clipped} of {wave.size} samples "
                "clipped at full scale"]
    if 0.0 < peak and peak * 32767.0 < 1.0:     # write_wav's scale, then trunc
        return [f"warning: {path}: {target}: every sample truncates to 0 in "
                f"16-bit PCM (peak {peak:.3g})"]
    return []


def _enhance_one(path, cfg, w, iva_cfg, no_iva):
    """The enhanced wave of one input, in a list, and a ``warning: <path>:
    <message>`` line for each warning ``enhance`` raised."""
    read = [_read_input(path, 2)]       # read outside _naming: it names the file itself
    with _naming(path), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # enhance's pipeline, which keeps no mask or estimate block; popped
        # into the call, so it holds the input's one reference and frees it
        # after stft
        wave = _enhance(read.pop(), w, cfg, iva_cfg, not no_iva)[0]
    if not np.all(np.isfinite(wave)):
        raise NumericalError(f"{path}: enhancement produced non-finite samples")
    return [wave], [f"warning: {path}: {item.message}" for item in caught]


def _separate_one(path, iva_cfg):
    """The speech and noise waves of one input, as ``[2, n]``, and no
    warning line: :func:`auxiva_separate`'s sources, demixed one pass
    block at a time and overlap-added into the output as they come, so no
    whole-file source array is built."""
    wave = _read_input(path, 2)
    with _naming(path):
        check_reference(wave)
        spec, n = stft(wave), wave.shape[1]
        del wave                    # nothing reads the input after stft
        demixer = auxiva_demixer(spec, iva_cfg)
        return istft_blocks(demixer.blocks(spec), spec.shape[1], length=n), []


def _report(path, targets, waves, notes) -> None:
    """Write one input's output ``waves`` to its ``targets``, then print its
    warning lines, those of the writes last, and its output paths."""
    for target, wave in zip(targets, waves):
        notes += _pcm_warnings(path, target, wave)
        _write(target, wave)
    for note in notes:
        print(note, file=sys.stderr)
    print(*targets, sep="\n")


def _run_batch(compute, inputs, targets, jobs=1) -> int:
    """Report each input in input order: ``compute(path)`` reads it and
    returns its output waves and warning lines, writing nothing, and this
    process writes and prints them (:func:`_report`) before the next file.
    With ``jobs`` above 1 only the computing moves to worker processes.
    The first failure ends the run, and no later file is written."""
    with ExitStack() as stack:
        results = map(compute, inputs)
        if jobs > 1 and len(inputs) > 1:
            # deferred: the process pool costs import time that one job never uses
            from concurrent.futures import ProcessPoolExecutor
            # fork starts every worker up front, so no more than there are files
            pool = ProcessPoolExecutor(max_workers=min(jobs, len(inputs)))
            # on a failure, files that no worker has started are not computed
            stack.callback(pool.shutdown, cancel_futures=True)
            results = pool.map(compute, inputs)
        for path, paths in zip(inputs, targets):
            # taken by next() into the call, so no name keeps a file's
            # waves while the next file runs
            _report(path, paths, *next(results))
    return EXIT_OK


def cmd_enhance(args) -> int:
    targets = _targets(args.out, args.inputs, [".enhanced.wav"])
    cfg = preset_config(args.preset)
    if args.weights:
        w = load_weights(Path(args.weights).read_bytes(), cfg)
    else:
        w = _seeded_weights(cfg, args.seed)
    enhance_file = partial(_enhance_one, cfg=cfg, w=w,
                           iva_cfg=IvaConfig(iterations=args.iva_iters),
                           no_iva=args.no_iva)
    return _run_batch(enhance_file, args.inputs, targets, args.jobs)


def cmd_separate(args) -> int:
    iva_cfg = IvaConfig(iterations=args.iva_iters)
    targets = _targets(args.out, args.inputs, [".speech.wav", ".noise.wav"])
    return _run_batch(partial(_separate_one, iva_cfg=iva_cfg), args.inputs, targets)


def _wav_files(directory: str):
    d = Path(directory)
    if not d.is_dir():
        raise InvalidInputError(f"{directory}: not a directory")
    return sorted(p for p in d.iterdir() if p.suffix.lower() == ".wav")


def cmd_simulate(args) -> int:
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
        with _naming(f"{sp_path}, {nz_path}"):
            render = render_scene(scene, speech, noise)
        mix_name = f"scene_{i:05d}.mix.wav"
        tgt_name = f"scene_{i:05d}.target.wav"
        _write(out_dir / mix_name, render.mixture)
        _write(out_dir / tgt_name, render.target)
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
    print(f"MACs/s: {sum(macs.values()) / 1e6:.2f} M total")
    for layer, n in macs.items():
        print(f"  {layer:28s} {n / 1e6:10.3f} M")
    per_iter = iva_macs_per_second(IvaConfig(iterations=1)) / 1e6
    print(f"IVA: {per_iter:.3f} MMACs/s per iteration, "
          f"{iva_cfg.iterations} iterations configured")
    return EXIT_OK


def main(argv=None) -> int:
    _keep_freed_heap()
    parser, children = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:     # its values become the parser's defaults, so flags still win
            values = _load_config_file(args.config, children)
            args = _build_parser(tuple(sorted(values.items())))[0].parse_args(argv)
        return args.run(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)


if __name__ == "__main__":
    sys.exit(main())

"""Tracing for the traced benchmark run.

The traced run does not instrument the program.  It calls each module's
public functions in the order ``cli._enhance_one`` / ``enhance`` / ``forward``
(or ``cli.cmd_simulate`` / ``render_scene``) use them, and records a span
around each call.  Spans are kept in memory and written out when the run
ends.  Because the composition lives here, each traced file is also checked
bit for bit against the program's own path (:func:`check_enhance`,
:func:`check_simulate`); on a mismatch the first diverging layer is named and
the trace of that file is marked invalid.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from hybridse import nn
from hybridse.auxiva import (IvaConfig, demix, iva_sweep, order_sources,
                             projection_back)
from hybridse.bands import band_merge, band_split, make_erb_filterbank
from hybridse.dsp import DEFAULT_SAMPLE_RATE, StftConfig, istft, stft
from hybridse.model import (DEFAULT_PRESET, apply_mask, build_features, decode,
                            encode, enhance, gdprnn, init_random,
                            preset_config, sfe)
from hybridse.simkit import (SceneConstraints, SceneSpec, apply_rir,
                             early_target, image_rir, mix_at_snr,
                             render_scene, sample_scene)
from hybridse.wavio import read_wav, write_wav

ROOT = "file"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    file_id: int


class Tracer:
    """Collects spans; one tracer per run, ``file_id`` set per input file."""

    def __init__(self):
        self.spans: List[Span] = []
        self.file_id = 0
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.file_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> List[float]:
        """Seconds per span not covered by its child spans."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "file": s.file_id, "self_s": own[i]}) + "\n")


# --------------------------------------------------------------------------
# enhance: cli._enhance_one -> enhance -> forward


@dataclass
class EnhanceTrace:
    wave: np.ndarray          # input as read, [2, n]
    weights: object
    cfg: object
    use_iva: bool
    stages: Dict[str, np.ndarray]   # checkpoint name -> array, pipeline order
    latent_shape: tuple


def traced_enhance(tr: Tracer, in_path, out_path, use_iva: bool) -> EnhanceTrace:
    """``hybridse enhance in --out out [--no-iva]`` (default preset, seed 0
    and IVA sweeps) as a span-per-layer composition of the package's public
    functions."""
    stft_cfg = StftConfig()
    with tr.span(ROOT):
        with tr.span("weights.init"):
            cfg = preset_config(DEFAULT_PRESET)
            w = init_random(cfg, 0)
        with tr.span("wavio.read"):
            _, wave = read_wav(in_path)
        wave = np.asarray(wave, dtype=np.float64)
        with tr.span("dsp.stft"):
            y = stft(wave, stft_cfg)
        bypass = not use_iva or not np.any(y) or y.shape[1] < 2
        if bypass:
            y_iva = y
        else:
            with tr.span("auxiva.separate"):
                y_iva = _traced_auxiva(tr, y, IvaConfig())
        with tr.span("bands.filterbank"):
            fb = make_erb_filterbank()
        with tr.span("model.features"):
            feats = build_features(y, y_iva, cfg)
        with tr.span("bands.merge"):
            merged = band_merge(feats, fb).astype(np.float32)
        with tr.span("model.features"):
            x = sfe(merged[None], cfg.sfe_kernel)
        with tr.span("model.encode"):
            latent, skip = encode(x, w, cfg)
        with tr.span("model.gdprnn"):
            z = gdprnn(latent, w, cfg) + skip
        with tr.span("model.decode"):
            m = decode(z, w, cfg)
        with tr.span("bands.split"):
            mask = band_split(m.astype(np.float64), fb)[0]
        with tr.span("model.apply_mask"):
            est = apply_mask(mask, y, y_iva, cfg.masking)
        with tr.span("dsp.istft"):
            out = istft(est, stft_cfg, length=wave.shape[1])
        with tr.span("wavio.write"):
            write_wav(out_path, DEFAULT_SAMPLE_RATE, out)
    stages = {"dsp.stft": y, "auxiva": y_iva, "model.forward": mask,
              "model.apply_mask": est, "dsp.istft": out}
    return EnhanceTrace(wave, w, cfg, use_iva, stages, latent.shape)


def _traced_auxiva(tr: Tracer, spec: np.ndarray, cfg: IvaConfig) -> np.ndarray:
    # auxiva_separate unrolled so that each sweep gets its own span
    w = np.tile(np.eye(2, dtype=np.complex128), (spec.shape[2], 1, 1))
    for _ in range(cfg.iterations):
        with tr.span("auxiva.sweep"):
            w, _ = iva_sweep(spec, w, cfg)
    with tr.span("auxiva.project_order"):
        sources = projection_back(demix(spec, w), w, cfg.ref_channel)
        return sources[order_sources(sources)]


def check_enhance(t: EnhanceTrace, traced_out: Path, cli_out: Path) -> Optional[str]:
    """First checkpoint where the traced composition differs from
    ``enhance()`` (or from the CLI's output file), or None if all match
    bit for bit."""
    ref = enhance(t.wave, t.weights, t.cfg, iva_cfg=IvaConfig(), use_iva=t.use_iva)
    want = {"dsp.stft": ref.noisy_spec, "auxiva": ref.iva_spec,
            "model.forward": ref.mask, "model.apply_mask": ref.est_spec,
            "dsp.istft": ref.wave}
    for name, got in t.stages.items():
        if not _identical(got, want[name]):
            return name
    if Path(traced_out).read_bytes() != Path(cli_out).read_bytes():
        return "wavio.write"
    return None


def _identical(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def gru_replay(t: EnhanceTrace, rng: np.random.Generator):
    """Time ``nn.gru_sequence`` at the file's exact G-DPRNN shapes: per group,
    the bidirectional intra-frame GRU over the bands (batch = frames) and the
    forward inter-frame GRU over the frames (batch = bands).  Returns
    ``(intra_s, inter_s, python_steps)``."""
    _, channels, frames, bands = t.latent_shape
    groups = t.cfg.dprnn_groups
    gw = channels // groups
    intra = inter = 0.0
    for g in range(groups):
        fwd = _gru(t.weights, f"dprnn.intra.g{g}.fwd")
        bwd = _gru(t.weights, f"dprnn.intra.g{g}.bwd")
        x = (0.1 * rng.standard_normal((bands, frames, gw))).astype(np.float32)
        t0 = time.perf_counter()
        nn.gru_sequence(x, (fwd, bwd), "bidirectional")
        intra += time.perf_counter() - t0
        p = _gru(t.weights, f"dprnn.inter.g{g}.gru")
        x = (0.1 * rng.standard_normal((frames, bands, gw))).astype(np.float32)
        t0 = time.perf_counter()
        nn.gru_sequence(x, p, "forward")
        inter += time.perf_counter() - t0
    return intra, inter, groups * (2 * bands + frames)


def _gru(w, name: str) -> nn.GruParams:
    return nn.GruParams(w_x=w[f"{name}.w_x"], w_h=w[f"{name}.w_h"], bias=w[f"{name}.bias"])


# --------------------------------------------------------------------------
# simulate: cli.cmd_simulate with --n-scenes 1 -> render_scene


@dataclass
class SimulateTrace:
    scene: SceneSpec
    speech: np.ndarray
    noise: np.ndarray
    speech_file: Path
    noise_file: Path
    stages: Dict[str, np.ndarray]
    taps: int


def traced_simulate(tr: Tracer, speech_dir: Path, noise_dir: Path, seed: int,
                    out_dir: Path) -> SimulateTrace:
    """``hybridse simulate --n-scenes 1 --seed seed`` as a span-per-layer
    composition; writes ``mix.wav`` and ``target.wav`` under ``out_dir``."""
    speech_files = sorted(p for p in Path(speech_dir).iterdir() if p.suffix == ".wav")
    noise_files = sorted(p for p in Path(noise_dir).iterdir() if p.suffix == ".wav")
    with tr.span(ROOT):
        with tr.span("simkit.sample"):
            rng = np.random.default_rng(seed)
            scene_seed = int(rng.integers(0, 2 ** 63))
            sp_path = speech_files[int(rng.integers(len(speech_files)))]
            nz_path = noise_files[int(rng.integers(len(noise_files)))]
            scene = sample_scene(scene_seed, SceneConstraints())
        with tr.span("wavio.read"):
            _, speech = read_wav(sp_path)
            _, noise = read_wav(nz_path)
        with tr.span("simkit.rir"):
            rir_s = image_rir(scene)
            rir_n = image_rir(SceneSpec(
                room_dims=scene.room_dims, rt60=scene.rt60,
                mic_positions=scene.mic_positions,
                source_position=scene.noise_position,
                noise_position=scene.noise_position,
                snr_db=scene.snr_db, seed=scene.seed))
        with tr.span("simkit.render"):
            n_sp = np.asarray(noise, dtype=np.float64).ravel()
            if n_sp.size < speech.size:
                n_sp = np.tile(n_sp, -(-speech.size // n_sp.size))
            mix, norm = mix_at_snr(apply_rir(speech, rir_s),
                                   apply_rir(n_sp[:speech.size], rir_n), scene.snr_db)
            target = early_target(speech, rir_s) * norm
        with tr.span("wavio.write"):
            write_wav(out_dir / "mix.wav", DEFAULT_SAMPLE_RATE, mix)
            write_wav(out_dir / "target.wav", DEFAULT_SAMPLE_RATE, target)
    return SimulateTrace(scene, speech, noise, sp_path, nz_path,
                         {"mixture": mix, "target": target},
                         rir_s.taps.size + rir_n.taps.size)


def check_simulate(t: SimulateTrace, traced_dir: Path, cli_dir: Path,
                   record: dict) -> Optional[str]:
    """First layer where the traced composition differs from
    ``render_scene()`` or from the files and manifest the CLI wrote."""
    want = t.scene.to_dict()
    if any(record.get(k) != v for k, v in want.items()) or \
            Path(record["speech_file"]) != t.speech_file or \
            Path(record["noise_file"]) != t.noise_file:
        return "simkit.sample"
    ref = render_scene(t.scene, t.speech, t.noise)
    if not (_identical(t.stages["mixture"], ref.mixture)
            and _identical(t.stages["target"], ref.target)):
        return "simkit.render"
    for traced, cli_name in (("mix.wav", record["mixture"]),
                             ("target.wav", record["target"])):
        if (traced_dir / traced).read_bytes() != (cli_dir / cli_name).read_bytes():
            return "wavio.write"
    return None

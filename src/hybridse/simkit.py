"""Two-microphone acoustic scene simulator.

Scenes are shoebox rooms with uniform wall absorption derived from the
requested reverberation time through Sabine's formula.  Impulse responses
come from the image method with nearest-sample delays, truncated at
RT60 + 50 ms.  Mixtures are speech and noise images summed at a requested
channel-1 SNR; the training target is the speech convolved with the early
(first 50 ms after the direct path) part of the channel-1 RIR.

Everything is deterministic given a seed, so a scene record plus the dry
source files reproduce the audio bit for bit.  The protocol is fixed: the
ranges scenes are drawn from are class constants of :class:`SceneConstraints`,
RIRs are at 16 kHz and the image order follows from the RT60 + 50 ms horizon.
"""

import json
from dataclasses import dataclass, replace
from typing import ClassVar, Sequence, Tuple

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE
from .errors import InvalidInputError, SceneInfeasibleError

SPEED_OF_SOUND = 343.0
# the training target keeps this much of the channel-1 RIR after the direct path
_EARLY_WINDOW_S = 0.050


@dataclass(frozen=True)
class SceneConstraints:
    """The scene protocol, as class constants: every scene is drawn from these
    ranges, so nothing is settable and all instances compare equal."""
    room_low: ClassVar[Tuple[float, float, float]] = (3.0, 3.0, 2.5)
    room_high: ClassVar[Tuple[float, float, float]] = (10.0, 10.0, 3.0)
    rt60_range: ClassVar[Tuple[float, float]] = (0.1, 0.4)
    snr_range: ClassVar[Tuple[float, float]] = (-10.0, 0.0)
    distances: ClassVar[Tuple[float, ...]] = (0.5, 1.0, 2.0, 3.0)
    min_doa_deg: ClassVar[float] = 5.0
    wall_margin: ClassVar[float] = 0.1
    mic_spacing: ClassVar[float] = 0.04
    max_attempts: ClassVar[int] = 10000


@dataclass(frozen=True, eq=False)
class SceneSpec:
    room_dims: np.ndarray          # [3] meters
    rt60: float                    # seconds
    mic_positions: np.ndarray      # [2, 3] meters
    source_position: np.ndarray    # [3]
    noise_position: np.ndarray     # [3]
    snr_db: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "seed": int(self.seed),
            "room_dims": [float(v) for v in self.room_dims],
            "rt60": float(self.rt60),
            "mic_positions": [[float(v) for v in m] for m in self.mic_positions],
            "source_position": [float(v) for v in self.source_position],
            "noise_position": [float(v) for v in self.noise_position],
            "snr_db": float(self.snr_db),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        return cls(
            room_dims=np.asarray(d["room_dims"], dtype=np.float64),
            rt60=float(d["rt60"]),
            mic_positions=np.asarray(d["mic_positions"], dtype=np.float64),
            source_position=np.asarray(d["source_position"], dtype=np.float64),
            noise_position=np.asarray(d["noise_position"], dtype=np.float64),
            snr_db=float(d["snr_db"]),
            seed=int(d["seed"]),
        )


@dataclass(frozen=True, eq=False)
class Rir:
    taps: np.ndarray               # [2, n] at fs
    direct_path_index: np.ndarray  # [2] sample of first arrival per mic
    fs: ClassVar[int] = DEFAULT_SAMPLE_RATE


def _inside(p, dims, margin) -> bool:
    return bool(np.all(p >= margin) and np.all(p <= dims - margin))


def _unit(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-6:
            return v / n


def sample_scene(seed: int, constraints: SceneConstraints = SceneConstraints()) -> SceneSpec:
    """Draw a random scene satisfying all geometric constraints.

    Room size and RT60 are redrawn together until Sabine yields a wall
    absorption below 1 (a large room cannot support a very short RT60), so
    every returned scene is renderable.  SNR and the source distance are
    drawn once; positions are then rejection-sampled until the source fits
    inside the room (with wall margin) and the noise direction differs from
    the speech direction by more than the minimum angle.  Deterministic
    given the seed.  ``constraints`` is stateless and kept for perfbench.
    """
    c = constraints
    rng = np.random.default_rng(seed)
    for _ in range(c.max_attempts):
        dims = rng.uniform(c.room_low, c.room_high)
        rt60 = float(rng.uniform(*c.rt60_range))
        if _sabine_alpha(dims, rt60) < 1.0:
            break
    else:
        raise SceneInfeasibleError(
            f"no Sabine-feasible room/rt60 pair after {c.max_attempts} "
            f"attempts (seed {seed})")
    snr_db = float(rng.uniform(*c.snr_range))
    dist = float(rng.choice(np.asarray(c.distances, dtype=np.float64)))

    half = c.mic_spacing / 2.0
    lo = c.wall_margin + half
    hi = dims - (c.wall_margin + half)

    for _ in range(c.max_attempts):
        center = rng.uniform(lo, hi)
        axis = _unit(rng)
        mics = np.stack([center - half * axis, center + half * axis])
        src_dir = _unit(rng)
        src = center + dist * src_dir
        if not _inside(src, dims, c.wall_margin):
            continue
        noise = rng.uniform(c.wall_margin, dims - c.wall_margin)
        noise_vec = noise - center
        nn = np.linalg.norm(noise_vec)
        if nn < 1e-6:
            continue
        cos = float(np.clip(np.dot(src_dir, noise_vec / nn), -1.0, 1.0))
        if np.degrees(np.arccos(cos)) <= c.min_doa_deg:
            continue
        return SceneSpec(room_dims=dims, rt60=rt60, mic_positions=mics,
                         source_position=src, noise_position=noise,
                         snr_db=snr_db, seed=int(seed))
    raise SceneInfeasibleError(
        f"no admissible geometry after {c.max_attempts} attempts (seed {seed})")


def _sabine_alpha(room_dims, rt60: float) -> float:
    """Sabine's 0.1611 V / (S T60), with no range checks."""
    lx, ly, lz = (float(v) for v in room_dims)
    return 0.1611 * (lx * ly * lz) / (2.0 * (lx * ly + lx * lz + ly * lz) * rt60)


def sabine_absorption(room_dims, rt60: float) -> float:
    """Uniform wall absorption alpha per Sabine; errors if the geometry
    cannot reach the requested RT60 (alpha would hit 1)."""
    if min(float(v) for v in room_dims) <= 0 or rt60 <= 0:
        raise InvalidInputError("room dims and rt60 must be positive")
    alpha = _sabine_alpha(room_dims, rt60)
    if alpha >= 1.0:
        raise InvalidInputError(
            f"requested rt60={rt60:.3f}s needs absorption {alpha:.2f} >= 1 for this room")
    return alpha


def _axis_images(src: float, length: float, n_max: int):
    n = np.arange(-n_max, n_max + 1)
    coords = np.concatenate([2.0 * n * length + src, 2.0 * n * length - src])
    refl = np.concatenate([2 * np.abs(n), np.abs(2 * n - 1)])
    return coords, refl


def image_rir(scene: SceneSpec) -> Rir:
    """Image-method RIR for both microphones.

    Uniform reflection coefficient beta = sqrt(1 - alpha) on all six walls;
    each image source contributes beta^reflections / (4 pi d) at the
    nearest-sample delay d / c.  Taps are kept up to RT60 + 50 ms.  The
    reflection order is capped where any further image would land beyond
    that horizon anyway.
    """
    dims = np.asarray(scene.room_dims, dtype=np.float64)
    alpha = sabine_absorption(dims, scene.rt60)
    beta = float(np.sqrt(1.0 - alpha))

    n_taps = int(round((scene.rt60 + 0.05) * DEFAULT_SAMPLE_RATE))
    horizon = SPEED_OF_SOUND * (n_taps / DEFAULT_SAMPLE_RATE)
    max_order = int(np.ceil(horizon / float(np.min(dims)))) + 2
    # an image farther than this from the mic midpoint is beyond the horizon
    # at both mics, with one sample to spare for rounding, so it is dropped
    # before the per-mic distances are taken
    mics = np.asarray(scene.mic_positions, dtype=np.float64)
    mid = 0.5 * (mics[0] + mics[1])
    reach = (horizon + 0.5 * float(np.linalg.norm(mics[1] - mics[0]))
             + SPEED_OF_SOUND / DEFAULT_SAMPLE_RATE)

    # per axis, the images that can land within the horizon
    (cx, rx), (cy, ry), (cz, rz) = [
        _axis_images(float(scene.source_position[ax]), float(dims[ax]),
                     int(np.ceil((horizon / dims[ax] + 1.0) / 2.0)) + 1)
        for ax in range(3)]
    dx, dy, dz = [(c - mid[ax]) ** 2 for ax, c in enumerate((cx, cy, cz))]
    near = dx[:, None, None] + dy[None, :, None] + dz[None, None, :] <= reach ** 2
    refl = rx[:, None, None] + ry[None, :, None] + rz[None, None, :]
    ix, iy, iz = np.nonzero(near & (refl <= max_order))
    coords = np.stack([cx[ix], cy[iy], cz[iz]], axis=1)
    gains = beta ** refl[ix, iy, iz] / (4.0 * np.pi)

    taps = np.zeros((2, n_taps), dtype=np.float64)
    for m in range(2):
        d = np.linalg.norm(coords - mics[m], axis=1)
        d = np.maximum(d, 1e-3)
        idx = np.rint(d * DEFAULT_SAMPLE_RATE / SPEED_OF_SOUND).astype(np.int64)
        ok = idx < n_taps
        np.add.at(taps[m], idx[ok], gains[ok] / d[ok])

    peak = np.max(np.abs(taps), axis=1, keepdims=True)
    if np.any(peak == 0):
        raise InvalidInputError("empty impulse response; check geometry")
    above = np.abs(taps) > 0.01 * peak
    dpi = np.argmax(above, axis=1).astype(np.int64)
    return Rir(taps=taps, direct_path_index=dpi)


def _fft_length(n: int) -> int:
    """The smallest 2-3-5-smooth integer >= ``n``: a fast real FFT size."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Each row of ``kernels`` [k, L] convolved with ``x`` [n], cut to [k, n].

    One transform of ``x`` serves every row, and the rows go through one
    batched transform, at the full convolution's fast FFT length."""
    if kernels.shape[1] == 0:
        raise InvalidInputError("empty impulse response")
    nfft = _fft_length(x.size + kernels.shape[1] - 1)
    spec = np.fft.rfft(x, nfft) * np.fft.rfft(kernels, nfft)
    return np.fft.irfft(spec, nfft)[:, :x.size]


def _early_kernel(rir: Rir) -> np.ndarray:
    """The channel-1 RIR from the direct-path arrival to 50 ms after it,
    zero elsewhere (delay preserved), at the RIR's full length."""
    dpi = int(rir.direct_path_index[0])
    stop = min(dpi + int(round(_EARLY_WINDOW_S * rir.fs)), rir.taps.shape[1])
    kernel = np.zeros(rir.taps.shape[1])
    kernel[dpi:stop] = rir.taps[0, dpi:stop]
    return kernel


def early_target(speech: np.ndarray, rir: Rir) -> np.ndarray:
    """Speech convolved with the early part of the channel-1 RIR.

    The kernel keeps taps from the direct-path arrival to 50 ms after it
    (delay preserved), so the target stays time-aligned with the full
    mixture.
    """
    speech = np.asarray(speech, dtype=np.float64).ravel()
    return _convolve(speech, _early_kernel(rir)[None])[0]


def apply_rir(wave: np.ndarray, rir: Rir) -> np.ndarray:
    """Render the two-channel image of a mono signal (length preserved)."""
    return _convolve(np.asarray(wave, dtype=np.float64).ravel(), rir.taps)


def mix_at_snr(speech_img: np.ndarray, noise_img: np.ndarray,
               snr_db: float) -> Tuple[np.ndarray, float]:
    """Sum two-channel images with the noise scaled to hit ``snr_db`` at
    channel 1; returns ``(mixture, norm)`` where ``norm`` is the scalar the
    mixture was multiplied by to avoid clipping (1.0 when no rescale was
    needed).  Apply the same scalar to any stored target.
    """
    speech_img = np.asarray(speech_img, dtype=np.float64)
    noise_img = np.asarray(noise_img, dtype=np.float64)
    if speech_img.shape != noise_img.shape or speech_img.ndim != 2 or speech_img.shape[0] != 2:
        raise InvalidInputError(
            f"expected matching [2, n] images, got {speech_img.shape} and {noise_img.shape}")
    e_s = float(np.sum(speech_img[0] ** 2))
    e_n = float(np.sum(noise_img[0] ** 2))
    if e_n == 0.0:
        raise InvalidInputError("zero-energy noise image")
    if e_s == 0.0:
        raise InvalidInputError("zero-energy speech image at channel 1")
    g = np.sqrt(e_s / (e_n * 10.0 ** (snr_db / 10.0)))
    mix = speech_img + g * noise_img
    peak = float(np.max(np.abs(mix)))
    norm = 1.0
    if peak > 1.0:
        norm = 0.9 / peak
        mix = mix * norm
    return mix, norm


@dataclass(frozen=True, eq=False)
class SceneRender:
    mixture: np.ndarray    # [2, n]
    target: np.ndarray     # [n], early-reflection speech at channel 1
    speech_image: np.ndarray
    noise_image: np.ndarray
    norm: float
    scene: SceneSpec


def render_scene(scene: SceneSpec, speech: np.ndarray, noise: np.ndarray) -> SceneRender:
    """Full pipeline: RIRs for both sources, imaging, SNR mixing, target."""
    speech = np.asarray(speech, dtype=np.float64).ravel()
    noise = np.asarray(noise, dtype=np.float64).ravel()
    if speech.size == 0:
        raise InvalidInputError("empty speech signal")
    if noise.size < speech.size:
        if noise.size == 0:
            raise InvalidInputError("empty noise signal")
        reps = -(-speech.size // noise.size)
        noise = np.tile(noise, reps)
    noise = noise[: speech.size]

    rir_s = image_rir(scene)
    rir_n = image_rir(replace(scene, source_position=scene.noise_position))
    # one transform of the speech serves its image and its early target
    rows = _convolve(speech, np.vstack([rir_s.taps, _early_kernel(rir_s)]))
    s_img = rows[:2]
    n_img = apply_rir(noise, rir_n)
    mix, norm = mix_at_snr(s_img, n_img, scene.snr_db)
    target = rows[2] * norm
    return SceneRender(mixture=mix, target=target, speech_image=s_img,
                       noise_image=n_img, norm=norm, scene=scene)


def schroeder_rt60(taps: np.ndarray, fs: int = DEFAULT_SAMPLE_RATE) -> float:
    """Reverberation time from the Schroeder backward integral, via a line
    fit on the -5 dB to -25 dB stretch extrapolated to 60 dB of decay."""
    taps = np.asarray(taps, dtype=np.float64).ravel()
    energy = taps ** 2
    total = float(np.sum(energy))
    if total <= 0:
        raise InvalidInputError("impulse response has no energy")
    tail = np.cumsum(energy[::-1])[::-1] / total
    with np.errstate(divide="ignore"):
        curve = 10.0 * np.log10(np.maximum(tail, 1e-300))
    sel = (curve <= -5.0) & (curve >= -25.0)
    if np.count_nonzero(sel) < 2:
        raise InvalidInputError("decay range too short for a Schroeder fit")
    t = np.nonzero(sel)[0] / fs
    slope, _ = np.polyfit(t, curve[sel], 1)
    if slope >= 0:
        raise InvalidInputError("impulse response does not decay")
    return float(-60.0 / slope)


def write_manifest(path, records: Sequence[dict]) -> None:
    """Write one JSON object per line: scene fields plus audio file paths."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_manifest(path) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]

"""Two-microphone acoustic scene simulator.

Scenes are shoebox rooms with uniform wall absorption derived from the
requested reverberation time through Sabine's formula.  Impulse responses
come from the image method with nearest-sample delays, truncated at
RT60 + 50 ms, with image distances and gains read from per-axis tables;
the images are accumulated a chunk of fixed size at a time, so the memory
a RIR takes does not grow with the scene.  Sources are imaged by
overlap-add FFT convolution with their RIRs.  The calling thread computes
the speech RIR and image while one helper thread computes the noise RIR
and image, so one source's RIR overlaps the other's transforms (numpy's
FFT releases the GIL).  Mixtures are speech and noise images summed at a
requested SNR at microphone 0; the training target is the speech
convolved with the early (first 50 ms after the direct path) part of
microphone 0's RIR.

Everything is deterministic given a seed, so a scene record plus the dry
source files reproduce the audio bit for bit.  The protocol is fixed: the
ranges scenes are drawn from are class constants of :class:`SceneConstraints`,
RIRs are at 16 kHz and the image order follows from the RT60 + 50 ms horizon.
"""

import json
import threading
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Sequence, Tuple

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE
from .errors import InvalidInputError, SceneInfeasibleError

SPEED_OF_SOUND = 343.0
# the training target keeps this much of microphone 0's RIR after the direct path
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
        """The JSON-native record of the scene: arrays as nested lists of
        floats, each other field through the type it is annotated with."""
        return {f.name: _to_json(f.type, getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "SceneSpec":
        """The scene of a :meth:`to_dict` record; other keys are ignored."""
        return cls(**{f.name: _from_json(f.type, d[f.name]) for f in fields(cls)})


def _to_json(kind, value):
    return np.asarray(value, dtype=np.float64).tolist() if kind is np.ndarray else kind(value)


def _from_json(kind, value):
    return np.asarray(value, dtype=np.float64) if kind is np.ndarray else kind(value)


@dataclass(frozen=True, eq=False)
class Rir:
    taps: np.ndarray               # [2, n] at 16 kHz
    direct_path_index: np.ndarray  # [2] sample of first arrival per mic


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
        if not (np.all(src >= c.wall_margin) and np.all(src <= dims - c.wall_margin)):
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
    if not all(0.0 < float(v) < np.inf for v in (*room_dims, rt60)):
        raise InvalidInputError("room dims and rt60 must be positive and finite")
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


# image_rir takes the candidate images of this many x-y cells by z at a time
# (at least one cell).  Two calls on two threads ran faster than one after
# the other at 32768 and 65536 candidates, slower at 16384 and 8192
_CHUNK_IMAGES = 32768


def image_rir(scene: SceneSpec) -> Rir:
    """Image-method RIR for both microphones.

    Uniform reflection coefficient beta = sqrt(1 - alpha) on all six walls;
    each image source contributes beta^reflections / (4 pi d) at the
    nearest-sample delay d / c.  Taps are kept up to RT60 + 50 ms, and the
    reflection order is capped at ceil(horizon / shortest side) + 2.  An
    image's squared distance is read from per-axis tables (x plus y, then z:
    the order of ``np.linalg.norm``) and its gain from a table per order.
    The x-y cells that can hold a kept image are walked in chunks of about
    ``_CHUNK_IMAGES`` candidate images, so the memory a call takes does not
    grow with the scene; each chunk's images are added with ``np.add.at``
    into one tap buffer per microphone, in C order, so each tap is the sum
    a loop over all images forms.  Microphones and source must lie strictly
    inside the room.
    """
    dims = np.asarray(scene.room_dims, dtype=np.float64)
    beta = float(np.sqrt(1.0 - sabine_absorption(dims, scene.rt60)))
    points = np.vstack([scene.mic_positions, scene.source_position])
    if not np.all((points > 0.0) & (points < dims)):
        raise InvalidInputError("microphones and source must lie strictly inside the room")

    n_taps = int(round((scene.rt60 + 0.05) * DEFAULT_SAMPLE_RATE))
    horizon = SPEED_OF_SOUND * (n_taps / DEFAULT_SAMPLE_RATE)
    max_order = int(np.ceil(horizon / float(np.min(dims)))) + 2
    # images farther than this from the mic midpoint are past the horizon at
    # both mics, with one sample to spare for rounding, and are dropped first
    mics = np.asarray(scene.mic_positions, dtype=np.float64)
    mid = 0.5 * (mics[0] + mics[1])
    half = 0.5 * float(np.linalg.norm(mics[1] - mics[0]))
    reach = horizon + half + SPEED_OF_SOUND / DEFAULT_SAMPLE_RATE

    # per axis, the images that can land within the horizon
    (cx, rx), (cy, ry), (cz, rz) = [
        _axis_images(float(scene.source_position[ax]), float(dims[ax]),
                     int(np.ceil((horizon / dims[ax] + 1.0) / 2.0)) + 1)
        for ax in range(3)]

    def squared_distances(p):  # an [nx * ny] x-plus-y table and an [nz] z table
        ex, ey, ez = [(c - p[ax]) ** 2 for ax, c in enumerate((cx, cy, cz))]
        return (ex[:, None] + ey[None, :]).ravel(), ez
    dxy, dz = squared_distances(mid)
    rxy = (rx[:, None] + ry[None, :]).ravel()
    # x-y cells none of whose images can be kept go first: a cell's sum with
    # the smallest z term rounds no higher than its sum with any other
    cells = np.flatnonzero((dxy + dz.min() <= reach ** 2) & (rxy + rz.min() <= max_order))
    gain_of_order = beta ** np.arange(max_order + 1) / (4.0 * np.pi)
    at_mics = [squared_distances(p) for p in mics]
    # a kept image is at most reach + half the spacing from either mic, so
    # every delay lands in the buffer (one sample spare for rounding); the
    # taps past the horizon are cut last
    taps = np.zeros((2, int(np.ceil((reach + half) * DEFAULT_SAMPLE_RATE
                                    / SPEED_OF_SOUND)) + 2))
    step = max(1, min(cells.size, _CHUNK_IMAGES // cz.size))
    # each chunk's arrays are views of buffers made once per call: a render
    # runs two calls and two convolutions on one heap, which arrays of a new
    # size per chunk would fragment.  Every index is in range, and
    # mode="clip" lets np.take write into its out= unbuffered
    near = np.empty((step, cz.size))
    kept, low = np.empty((2, step, cz.size), dtype=bool)
    ints = np.empty((4, step * cz.size), dtype=np.int64)
    floats = np.empty((3, step * cz.size))
    for start in range(0, cells.size, step):
        chunk = cells[start:start + step]
        m = chunk.size
        np.less_equal(np.add(dxy[chunk, None], dz, out=near[:m]), reach ** 2, out=kept[:m])
        kept[:m] &= np.less_equal(rz, max_order - rxy[chunk, None], out=low[:m])
        flat = np.flatnonzero(kept[:m])
        icell, iz, ixy, idx = ints[:, :flat.size]
        gains, d, delay = floats[:, :flat.size]
        np.divmod(flat, cz.size, out=(icell, iz))
        np.take(chunk, icell, out=ixy, mode="clip")
        # each image's reflection order, then its gain
        np.add(np.take(rxy, ixy, out=idx, mode="clip"),
               np.take(rz, iz, out=icell, mode="clip"), out=idx)
        np.take(gain_of_order, idx, out=gains, mode="clip")
        for row, (exy, ez) in zip(taps, at_mics):
            # max(sqrt(d^2), 1e-3), rint(d * fs / c) and gain / d
            np.add(np.take(exy, ixy, out=d, mode="clip"),
                   np.take(ez, iz, out=delay, mode="clip"), out=d)
            np.maximum(np.sqrt(d, out=d), 1e-3, out=d)
            np.multiply(d, DEFAULT_SAMPLE_RATE, out=delay)
            delay /= SPEED_OF_SOUND
            idx[:] = np.rint(delay, out=delay)
            np.add.at(row, idx, np.divide(gains, d, out=delay))
    taps = taps[:, :n_taps].copy()

    peak = np.max(np.abs(taps), axis=1, keepdims=True)
    if np.any(peak == 0):
        raise InvalidInputError("empty impulse response; check geometry")
    above = np.abs(taps) > 0.01 * peak
    dpi = np.argmax(above, axis=1).astype(np.int64)
    return Rir(taps=taps, direct_path_index=dpi)


# the overlap-add block transform: 12288 to 20480 points ran fastest
# on 2400-7200-tap RIRs, 32768 and more slower, as whole-signal transforms of
# some 72000 points fall out of the L2 cache
_BLOCK_FFT = 16384


def _convolve(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Each row of ``kernels`` [k, L] convolved with ``x`` [n], cut to [k, n].

    Overlap-add: ``x`` is cut into blocks of ``nfft - L + 1`` samples, each
    transformed at ``nfft``: ``_BLOCK_FFT``, or the smallest power of two
    >= ``2L - 1`` when the kernels need more.  The blocks are transformed
    once; then row by row, their product with the row's kernel is inverted
    into one buffer and each block's last ``L - 1`` samples are added to
    the start of the next.  A row's result does not depend on which other
    rows share the call."""
    n, taps = x.size, kernels.shape[1]
    if taps == 0:
        raise InvalidInputError("empty impulse response")
    # an empty x is one block of zeros; nfft >= 2 taps - 1, so hop >= taps
    # and a block's tail reaches only the next
    nfft = max(_BLOCK_FFT, 1 << (2 * taps - 2).bit_length())
    hop = nfft - taps + 1
    blocks = np.zeros((-(-max(n, 1) // hop), hop))
    blocks.reshape(-1)[:n] = x
    spec = np.fft.rfft(blocks, nfft)
    del blocks                      # render_scene runs two convolutions at once
    inverse = np.empty((spec.shape[0], nfft))
    out = np.empty((kernels.shape[0], spec.shape[0] * hop))
    for row, kernel in zip(out, np.fft.rfft(kernels, nfft)):
        np.fft.irfft(spec * kernel, nfft, out=inverse)
        row = row.reshape(-1, hop)
        row[:] = inverse[:, :hop]
        row[1:, :taps - 1] += inverse[:-1, hop:]
    return out[:, :n]


def _early_kernel(rir: Rir) -> np.ndarray:
    """Microphone 0's RIR from the direct-path arrival to 50 ms after it,
    zero elsewhere (delay preserved), at the RIR's full length."""
    dpi = int(rir.direct_path_index[0])
    stop = min(dpi + int(round(_EARLY_WINDOW_S * DEFAULT_SAMPLE_RATE)), rir.taps.shape[1])
    kernel = np.zeros(rir.taps.shape[1])
    kernel[dpi:stop] = rir.taps[0, dpi:stop]
    return kernel


def early_target(speech: np.ndarray, rir: Rir) -> np.ndarray:
    """Speech convolved with the early part of microphone 0's RIR.

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
    microphone 0; returns ``(mixture, norm)`` where ``norm`` is the scalar the
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
        raise InvalidInputError("zero-energy speech image at microphone 0")
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
    target: np.ndarray     # [n], early-reflection speech at microphone 0
    speech_image: np.ndarray
    noise_image: np.ndarray
    norm: float
    scene: SceneSpec


def render_scene(scene: SceneSpec, speech: np.ndarray, noise: np.ndarray) -> SceneRender:
    """Full pipeline: RIRs for both sources, imaging, SNR mixing, target.

    A helper thread computes the noise RIR and then the noise image, while
    the calling thread computes the speech RIR and then the speech image
    and its early target from one transform; so one source's RIR overlaps
    the other's transforms, which release the GIL.  The helper is joined
    before mixing, on every path, so no thread outlives the call.  What the
    calling thread raised is raised first (when both RIRs fail, the
    speech's error); otherwise what the helper raised is raised here.  An
    interrupt (Ctrl-C) that breaks into the join is raised once the helper
    is done.  The bytes are those of :func:`image_rir`, :func:`apply_rir`,
    :func:`early_target` and :func:`mix_at_snr` called one after the other.
    """
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

    noise_image = {}                # the helper's image, or what it raised

    def image_noise():
        try:
            rir_n = image_rir(replace(scene, source_position=scene.noise_position))
            noise_image["image"] = apply_rir(noise, rir_n)
        except BaseException as error:      # re-raised below, in the caller
            noise_image["error"] = error

    helper = threading.Thread(target=image_noise, name="render_scene noise")
    helper.start()
    try:
        rir_s = image_rir(scene)
        # one transform of the speech serves its image and its early target
        rows = _convolve(speech, np.vstack([rir_s.taps, _early_kernel(rir_s)]))
    finally:
        try:
            helper.join()
        except BaseException:       # an interrupt broke into the wait
            helper.join()
            raise
    if "error" in noise_image:
        raise noise_image.pop("error")
    s_img = rows[:2]
    n_img = noise_image["image"]
    mix, norm = mix_at_snr(s_img, n_img, scene.snr_db)
    target = rows[2] * norm
    return SceneRender(mixture=mix, target=target, speech_image=s_img,
                       noise_image=n_img, norm=norm, scene=scene)


def schroeder_rt60(taps: np.ndarray) -> float:
    """Reverberation time of 16 kHz taps from the Schroeder backward
    integral, via a line fit on the -5 dB to -25 dB stretch extrapolated to
    60 dB of decay.  A stretch that holds one level (the curve crosses it in
    a gap of zero taps) does not decay: its fitted slope is rounding noise."""
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
    t = np.nonzero(sel)[0] / DEFAULT_SAMPLE_RATE
    slope, _ = np.polyfit(t, curve[sel], 1)
    if np.ptp(curve[sel]) == 0 or slope >= 0:
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

"""Time-frequency analysis and synthesis.

Analysis and synthesis both use a square-root Hann window (periodic form, so
the squared window satisfies constant overlap-add at 50% hop).  The forward
transform is the plain unnormalized FFT; the 1/N factor lives in synthesis,
which makes an analysis/synthesis round trip exact away from the signal edges.

The geometry is fixed, and :class:`StftConfig` is its one owner: 512-point
frames at hop 256 and 16 kHz.  Spectrograms are complex arrays indexed
``[channel, frame, bin]`` (without the channel axis for mono input), with
``n_bins = fft_size // 2 + 1 = 257``.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidInputError

DEFAULT_SAMPLE_RATE = 16000

# COLA envelope values below this are left undivided during synthesis
# (only the very first/last window tail, where sqrt-Hann -> 0).
_COLA_FLOOR = 1e-11

# Frames per block of every pass over a whole file's frames: stft windows
# and transforms this many frames of one channel at a time, straight into
# its output, and istft_blocks inverts and overlap-adds this many; Aux-IVA
# builds its statistics, recomputes its cancelled envelopes and gathers its
# ordering envelopes this many at a time, and its demixer's blocks are this
# long; the network runs each forward block's frame-local front, from the
# noisy frames and their IVA spectrum to the strided encoder convs, over
# pieces of at most this many, and without IVA enhance transforms each
# piece's frames from the waveform.  So no pass holds a windowed copy, an
# inverse or a temporary of every frame.
PASS_FRAMES = 64

# log_power clamps |Y|^2 here, so digital silence maps to ln(1e-12) = -27.6
_POWER_FLOOR = 1e-12


def sqrt_hann(length: int) -> np.ndarray:
    """Periodic square-root Hann window of the given length."""
    n = np.arange(length)
    return np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * n / length)))


@dataclass(frozen=True)
class StftConfig:
    """The STFT geometry, as class constants: the band layout downstream is
    built for exactly its 257 bins, so nothing here is settable.  An instance
    only names the geometry (all instances compare equal); the window is
    stored read-only so it can be shared."""
    fft_size: ClassVar[int] = 512
    hop: ClassVar[int] = 256
    window: ClassVar[np.ndarray] = sqrt_hann(fft_size)
    window.flags.writeable = False
    n_bins: ClassVar[int] = fft_size // 2 + 1
    frames_per_second: ClassVar[float] = DEFAULT_SAMPLE_RATE / hop

    def n_frames(self, n_samples: int) -> int:
        """Frame count so that every sample is covered by at least one frame."""
        return -(-n_samples // self.hop)


def stft(wave: np.ndarray, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Forward STFT.

    ``wave`` is ``[n]`` or ``[channels, n]``.  Frame f covers samples
    ``[f*hop, f*hop + fft_size)``; the first frame starts at sample 0 and the
    tail is zero-padded (no reflection, no centering).  Returns
    ``[frames, bins]`` or ``[channels, frames, bins]`` complex.

    A frame whose transform overflows the float64 range comes out with
    infinite or NaN bins, silently: rejecting such a spectrogram is the
    caller's range check (see :func:`check_float32_range`).
    """
    wave = np.asarray(wave)
    if wave.size == 0:
        raise InvalidInputError("empty waveform")
    if wave.ndim not in (1, 2):
        raise InvalidInputError(f"waveform must be 1-D or 2-D, got shape {wave.shape}")

    n, n_frames = wave.shape[-1], cfg.n_frames(wave.shape[-1])
    extent = (n_frames - 1) * cfg.hop + cfg.fft_size
    padded = np.zeros(wave.shape[:-1] + (extent,), dtype=np.float64)
    padded[..., :n] = wave
    frames = sliding_window_view(padded, cfg.fft_size, axis=-1)[..., ::cfg.hop, :]
    spec = np.empty(wave.shape[:-1] + (n_frames, cfg.n_bins), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for channel in np.ndindex(wave.shape[:-1]):
            for start in range(0, n_frames, PASS_FRAMES):
                block = slice(start, start + PASS_FRAMES)
                np.fft.rfft(frames[channel][block] * cfg.window, axis=-1,
                            out=spec[channel][block])
    return spec


def istft(spec: np.ndarray, cfg: StftConfig = StftConfig(), length: int = None) -> np.ndarray:
    """Inverse STFT by windowed overlap-add.

    Accepts ``[frames, bins]`` or ``[channels, frames, bins]``.  The output is
    truncated or zero-padded to ``length`` samples (default: full overlap-add
    extent).  Interior samples of ``istft(stft(x))`` equal ``x`` exactly up to
    roundoff; the first and last ``hop`` samples follow the window taper.
    The frames are inverted :data:`PASS_FRAMES` at a time
    (:func:`istft_blocks`).
    """
    spec = np.asarray(spec)
    if spec.ndim not in (2, 3):
        raise InvalidInputError(f"spectrogram must be 2-D or 3-D, got shape {spec.shape}")
    return istft_blocks((spec,), spec.shape[-2], cfg, length)


def istft_blocks(blocks, n_frames: int, cfg: StftConfig = StftConfig(),
                 length: int = None) -> np.ndarray:
    """:func:`istft` of a spectrogram of ``n_frames`` frames that arrives as
    consecutive runs of its frames: ``blocks`` yields them in frame order,
    each ``[frames, bins]`` or ``[channels, frames, bins]``, with one
    leading shape.  The result has the bytes of :func:`istft` of their
    concatenation, which is never built: each run is inverted
    :data:`PASS_FRAMES` frames at a time, wherever it starts, and
    overlap-added into the output as it comes.
    """
    total = (n_frames - 1) * cfg.hop + cfg.fft_size
    length = total if length is None else length
    if length < 0:
        raise InvalidInputError(f"length must be non-negative, got {length}")
    # at the 50% hop, block b of hop samples is zero + the tail of frame b - 1
    # + the head of frame b: the sums a frame-by-frame overlap-add forms.
    # A frame block's first hop block already holds the previous frame's
    # tail when its own head is added.
    n_hops = max(n_frames + 1, -(-length // cfg.hop))
    out, done = None, 0
    for spec in blocks:
        spec = np.asarray(spec)
        if spec.ndim not in (2, 3):
            raise InvalidInputError(f"spectrogram must be 2-D or 3-D, got shape {spec.shape}")
        if spec.shape[-1] != cfg.n_bins:
            raise InvalidInputError(
                f"bin count {spec.shape[-1]} does not match config ({cfg.n_bins})")
        if out is None:
            out = np.zeros(spec.shape[:-2] + (n_hops, cfg.hop), dtype=np.float64)
        if spec.shape[:-2] != out.shape[:-2] or done + spec.shape[-2] > n_frames:
            raise InvalidInputError(f"block of shape {spec.shape} does not continue a "
                                    f"{out.shape[:-2]} spectrogram of {n_frames} frames")
        for start in range(0, spec.shape[-2], PASS_FRAMES):
            frames = np.fft.irfft(spec[..., start:start + PASS_FRAMES, :], n=cfg.fft_size,
                                  axis=-1)
            frames *= cfg.window
            a, b = done + start, done + start + frames.shape[-2]
            out[..., a + 1:b + 1, :] += frames[..., cfg.hop:]
            out[..., a:b, :] += frames[..., :cfg.hop]
            del frames
        done += spec.shape[-2]
        del spec                    # dropped before the next run is made
    if out is None or done != n_frames:
        raise InvalidInputError(f"blocks hold {done} frames, expected {n_frames}")
    head, tail = (cfg.window**2).reshape(2, cfg.hop)
    for a, b, env in ((0, 1, head), (1, n_frames, head + tail), (n_frames, n_frames + 1, tail)):
        np.divide(out[..., a:b, :], env, out=out[..., a:b, :], where=env > _COLA_FLOOR)
    return out.reshape(out.shape[:-2] + (-1,))[..., :length]


def check_float32_range(*parts: np.ndarray) -> None:
    """Raise InvalidInputError unless all ``parts`` lie in the float32 range (NaN fails)."""
    limit = np.finfo(np.float32).max
    for x in parts:
        if not (x.max() <= limit and x.min() >= -limit):
            raise InvalidInputError("input too loud: spectrogram exceeds the float32 range")


def log_power(spec: np.ndarray) -> np.ndarray:
    """Log-power spectrogram ln(max(|Y|^2, 1e-12)), same shape as the input,
    computed in place in one array.  A power beyond the float range comes
    out +inf, silently: rejecting it is the caller's range check."""
    spec = np.asarray(spec)
    with np.errstate(over="ignore"):
        power = np.abs(spec.astype(np.result_type(spec, 1.0), copy=False))
        power **= 2
    np.maximum(power, _POWER_FLOOR, out=power)
    return np.log(power, out=power)

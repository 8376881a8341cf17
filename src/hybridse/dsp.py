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

# stft windows this many frames of one channel at a time and transforms them
# straight into its output, so no windowed copy of the whole file's frames is
# built, and each transform writes one contiguous block
_STFT_BLOCK = 64

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
            for start in range(0, n_frames, _STFT_BLOCK):
                block = slice(start, start + _STFT_BLOCK)
                np.fft.rfft(frames[channel][block] * cfg.window, axis=-1,
                            out=spec[channel][block])
    return spec


def istft(spec: np.ndarray, cfg: StftConfig = StftConfig(), length: int = None) -> np.ndarray:
    """Inverse STFT by windowed overlap-add.

    Accepts ``[frames, bins]`` or ``[channels, frames, bins]``.  The output is
    truncated or zero-padded to ``length`` samples (default: full overlap-add
    extent).  Interior samples of ``istft(stft(x))`` equal ``x`` exactly up to
    roundoff; the first and last ``hop`` samples follow the window taper.
    """
    spec = np.asarray(spec)
    if spec.ndim not in (2, 3):
        raise InvalidInputError(f"spectrogram must be 2-D or 3-D, got shape {spec.shape}")
    if spec.shape[-1] != cfg.n_bins:
        raise InvalidInputError(
            f"bin count {spec.shape[-1]} does not match config ({cfg.n_bins})")

    lead, n_frames = spec.shape[:-2], spec.shape[-2]
    total = (n_frames - 1) * cfg.hop + cfg.fft_size
    length = total if length is None else length
    if length < 0:
        raise InvalidInputError(f"length must be non-negative, got {length}")
    # at the 50% hop, block b of hop samples is zero + the tail of frame b - 1
    # + the head of frame b: the sums a frame-by-frame overlap-add forms
    n_blocks = max(n_frames + 1, -(-length // cfg.hop))
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=-1)
    frames *= cfg.window
    out = np.zeros(lead + (n_blocks, cfg.hop), dtype=np.float64)
    out[..., 1:n_frames + 1, :] += frames[..., cfg.hop:]
    out[..., :n_frames, :] += frames[..., :cfg.hop]
    head, tail = (cfg.window**2).reshape(2, cfg.hop)
    for a, b, env in ((0, 1, head), (1, n_frames, head + tail), (n_frames, n_frames + 1, tail)):
        np.divide(out[..., a:b, :], env, out=out[..., a:b, :], where=env > _COLA_FLOOR)
    return out.reshape(lead + (-1,))[..., :length]


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

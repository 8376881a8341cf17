"""Time-frequency analysis and synthesis.

Analysis and synthesis both use a square-root Hann window (periodic form, so
the squared window satisfies constant overlap-add at 50% hop).  The forward
transform is the plain unnormalized FFT; the 1/N factor lives in synthesis,
which makes an analysis/synthesis round trip exact away from the signal edges.

Spectrograms are complex arrays indexed ``[channel, frame, bin]`` (the channel
axis is dropped for mono input), with ``n_bins = fft_size // 2 + 1``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

DEFAULT_SAMPLE_RATE = 16000

# COLA envelope values below this are left undivided during synthesis
# (only the very first/last window tail, where sqrt-Hann -> 0).
_COLA_FLOOR = 1e-11


def sqrt_hann(length: int) -> np.ndarray:
    """Periodic square-root Hann window of the given length."""
    n = np.arange(length)
    return np.sqrt(0.5 * (1.0 - np.cos(2.0 * np.pi * n / length)))


@dataclass(frozen=True)
class StftConfig:
    """STFT geometry.  The window is the periodic square-root Hann of length
    ``fft_size``, stored read-only so one instance can be shared (as a
    default argument, say)."""
    fft_size: int = 512
    hop: int = 256
    window: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.fft_size <= 0 or (self.fft_size & (self.fft_size - 1)) != 0:
            raise InvalidInputError(f"fft_size must be a power of two, got {self.fft_size}")
        if self.hop <= 0 or self.fft_size % self.hop != 0:
            raise InvalidInputError(f"hop must divide fft_size, got hop={self.hop}")
        window = sqrt_hann(self.fft_size)
        window.flags.writeable = False
        object.__setattr__(self, "window", window)

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1

    @property
    def frames_per_second(self) -> float:
        return DEFAULT_SAMPLE_RATE / self.hop

    def n_frames(self, n_samples: int) -> int:
        """Frame count so that every sample is covered by at least one frame."""
        return -(-n_samples // self.hop)


def stft(wave: np.ndarray, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Forward STFT.

    ``wave`` is ``[n]`` or ``[channels, n]``.  Frame f covers samples
    ``[f*hop, f*hop + fft_size)``; the first frame starts at sample 0 and the
    tail is zero-padded (no reflection, no centering).  Returns
    ``[frames, bins]`` or ``[channels, frames, bins]`` complex.
    """
    wave = np.asarray(wave)
    if wave.size == 0:
        raise InvalidInputError("empty waveform")
    squeeze = wave.ndim == 1
    if squeeze:
        wave = wave[None, :]
    if wave.ndim != 2:
        raise InvalidInputError(f"waveform must be 1-D or 2-D, got shape {wave.shape}")

    n = wave.shape[1]
    n_frames = cfg.n_frames(n)
    padded = np.zeros((wave.shape[0], (n_frames - 1) * cfg.hop + cfg.fft_size), dtype=np.float64)
    padded[:, :n] = wave
    offsets = np.arange(n_frames) * cfg.hop
    idx = offsets[:, None] + np.arange(cfg.fft_size)[None, :]
    frames = padded[:, idx] * cfg.window
    spec = np.fft.rfft(frames, n=cfg.fft_size, axis=-1)
    return spec[0] if squeeze else spec


def istft(spec: np.ndarray, cfg: StftConfig = StftConfig(), length: int = None) -> np.ndarray:
    """Inverse STFT by windowed overlap-add.

    Accepts ``[frames, bins]`` or ``[channels, frames, bins]``.  The output is
    truncated or zero-padded to ``length`` samples (default: full overlap-add
    extent).  Interior samples of ``istft(stft(x))`` equal ``x`` exactly up to
    roundoff; the first and last ``hop`` samples follow the window taper.
    """
    spec = np.asarray(spec)
    squeeze = spec.ndim == 2
    if squeeze:
        spec = spec[None]
    if spec.ndim != 3:
        raise InvalidInputError(f"spectrogram must be 2-D or 3-D, got shape {spec.shape}")
    if spec.shape[-1] != cfg.n_bins:
        raise InvalidInputError(
            f"bin count {spec.shape[-1]} does not match config ({cfg.n_bins})")

    n_ch, n_frames, _ = spec.shape
    total = (n_frames - 1) * cfg.hop + cfg.fft_size
    out = np.zeros((n_ch, total), dtype=np.float64)
    cola = np.zeros(total, dtype=np.float64)
    frames = np.fft.irfft(spec, n=cfg.fft_size, axis=-1) * cfg.window
    w2 = cfg.window**2
    for f in range(n_frames):
        start = f * cfg.hop
        out[:, start:start + cfg.fft_size] += frames[:, f]
        cola[start:start + cfg.fft_size] += w2
    nz = cola > _COLA_FLOOR
    out[:, nz] /= cola[nz]

    if length is None:
        length = total
    if length <= total:
        out = out[:, :length]
    else:
        out = np.pad(out, ((0, 0), (0, length - total)))
    return out[0] if squeeze else out


def log_power(spec: np.ndarray, floor: float = 1e-12) -> np.ndarray:
    """Log-power spectrogram ln(max(|Y|^2, floor)), same shape as the input."""
    if floor <= 0:
        raise InvalidInputError("floor must be positive")
    spec = np.asarray(spec)
    power = np.abs(spec) ** 2
    return np.log(np.maximum(power, floor))

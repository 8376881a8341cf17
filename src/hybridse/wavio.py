"""Minimal WAV I/O: 8-bit unsigned, 16- and 32-bit PCM and 32- and 64-bit
float in, 16-bit PCM out.

Arrays are float64 in [-1, 1], shaped [n] for mono and [channels, n]
otherwise.  Output samples are truncated (no dither) toward zero when
quantizing to 16 bits.
"""

import numpy as np
from scipy.io import wavfile

from .errors import InvalidInputError

_SCALE = {
    np.dtype(np.int16): 1.0 / 32768.0,
    np.dtype(np.int32): 1.0 / 2147483648.0,
}


def read_wav(path):
    """Returns ``(sample_rate, wave)`` with wave [n] or [channels, n] float64.

    Raises :class:`InvalidInputError` naming the path on an unreadable file,
    an unsupported sample format, or a NaN/Inf sample in a float file."""
    try:
        rate, data = wavfile.read(path)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.dtype in _SCALE:
        wave = data.astype(np.float64) * _SCALE[data.dtype]
    elif data.dtype == np.uint8:
        wave = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype in (np.float32, np.float64):
        wave = data.astype(np.float64)
        if not np.all(np.isfinite(wave)):
            raise InvalidInputError(f"{path}: non-finite samples")
    else:
        raise InvalidInputError(f"{path}: unsupported WAV sample format {data.dtype}")
    if wave.ndim == 2:
        wave = wave.T
    return int(rate), wave


def write_wav(path, sample_rate: int, wave: np.ndarray) -> None:
    """Write [n] or [channels, n] float samples as 16-bit PCM (truncating)."""
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim not in (1, 2):
        raise InvalidInputError(f"waveform must be 1-D or 2-D, got shape {wave.shape}")
    pcm = np.trunc(np.clip(wave, -1.0, 1.0) * 32767.0).astype(np.int16)
    wavfile.write(path, int(sample_rate), pcm.T if pcm.ndim == 2 else pcm)

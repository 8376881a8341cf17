"""Minimal WAV I/O in numpy: uncompressed PCM and float in, 16-bit PCM out.

``read_wav`` accepts RIFF (little-endian), RIFX (big-endian) and RF64
(``ds64``) containers holding
  * PCM in an 8-bit unsigned, 16-bit, 24-bit or 32-bit container
    (24-bit samples are read left-justified into int32, as 32-bit ones);
  * IEEE float32 or float64;
  * either of these inside ``WAVE_FORMAT_EXTENSIBLE`` (PCM or float GUID).
Chunks other than ``fmt `` and ``data`` are skipped, and a data chunk cut
short by the end of the file is read as far as it goes in whole frames.
Everything else is rejected with :class:`InvalidInputError` naming the file:
a malformed or truncated header, no ``data`` chunk, 40-64-bit PCM
containers, compressed or unknown format tags, a PCM header whose
``nAvgBytesPerSec`` is not ``rate * nBlockAlign``, and NaN/Inf float samples.

Arrays are float64 in [-1, 1], shaped [n] for mono and [channels, n]
otherwise.  Output samples are truncated (no dither) toward zero when
quantizing to 16 bits.
"""

import struct

import numpy as np

from .errors import InvalidInputError

_PCM, _FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE
# the trailing 12 bytes of the EXTENSIBLE sub-format GUID {tag-0000-0010-8000-00AA00389B71}
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xAA\x00\x38\x9B\x71"}


class _Reader:
    """File-like cursor over the bytes of a WAV file: a read past the end
    returns what is left, a skip may move beyond it."""

    def __init__(self, buf: bytes):
        self.buf, self.pos = buf, 0

    def take(self, n: int) -> bytes:
        out = self.buf[self.pos:self.pos + n]
        self.pos += len(out)
        return out

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        raw = self.take(size)
        if len(raw) < size:
            raise ValueError("header cut short")
        return struct.unpack(fmt, raw)

    def skip(self, n: int) -> None:
        """Moves past a chunk body of ``n`` bytes and its pad byte (odd ``n``)."""
        self.pos += n + n % 2

    def samples(self, dtype: str, count: int) -> np.ndarray:
        """Up to ``count`` items; a short read consumes the rest of the file."""
        start, width = self.pos, np.dtype(dtype).itemsize
        self.pos = min(start + count * width, len(self.buf))
        return np.frombuffer(self.buf, dtype, (self.pos - start) // width, start)


def _parse_fmt(r: _Reader, e: str):
    """``(format_tag, channels, rate, block_align, bits)`` of a ``fmt `` chunk."""
    size, = r.unpack(e + "I")
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes")
    tag, channels, rate, byte_rate, align, bits = r.unpack(e + "HHIIHH")
    used = 16
    if tag == _EXTENSIBLE and size >= 18:
        ext, = r.unpack(e + "H")
        if ext < 22:
            raise ValueError("truncated WAVE_FORMAT_EXTENSIBLE header")
        guid = r.take(22)[6:]
        used += 24
        if guid.endswith(_GUID_TAIL[e]):
            tag, = struct.unpack(e + "I", guid[:4])
    if tag not in (_PCM, _FLOAT):
        raise ValueError(f"unsupported format tag {tag:#06x}")
    r.take(max(size - used, 0))
    r.pos += size % 2
    if tag == _PCM and byte_rate != rate * align:
        raise ValueError(f"nAvgBytesPerSec {byte_rate} != rate {rate} * nBlockAlign {align}")
    return tag, channels, rate, align, bits


def _parse_data(r: _Reader, e: str, fmt, size: int) -> np.ndarray:
    """The data chunk's samples as [frames] or [frames, channels] ints/floats."""
    tag, channels, _, align, bits = fmt
    width = align // channels if channels else 0
    if width == 0:
        raise ValueError(f"{channels} channels in {align}-byte frames")
    if tag == _PCM and 1 <= bits <= 8:
        data = r.samples("u1", size // width)
    elif tag == _PCM and bits <= 64 and width in (2, 4):
        data = r.samples(f"{e}i{width}", size // width)
    elif tag == _PCM and width == 3:
        raw = r.samples("u1", size).reshape(-1, 3)
        wide = np.zeros((raw.shape[0], 4), dtype=np.uint8)   # left-justified in int32
        wide[:, slice(1, None) if e == "<" else slice(None, 3)] = raw
        data = wide.view(f"{e}i4").reshape(-1)
    elif tag == _FLOAT and bits in (32, 64) and width in (4, 8):
        data = r.samples(f"{e}f{width}", size // width)
    else:
        raise ValueError(f"unsupported sample format: {bits}-bit in {width}-byte containers")
    r.pos += size % 2
    return data.reshape(-1, channels) if channels > 1 else data


def _parse(buf: bytes):
    r = _Reader(buf)
    magic = r.take(4)
    if magic not in (b"RIFF", b"RIFX", b"RF64"):
        raise ValueError(f"container {magic!r} is not RIFF, RIFX or RF64")
    e = ">" if magic == b"RIFX" else "<"
    data_size = None               # RF64 keeps the data size in the ds64 chunk
    if magic == b"RF64":
        _, form, ds64, ds64_size, riff_size, data_size = r.unpack("<I4s4sIQQ")
        if ds64 != b"ds64":
            raise ValueError("RF64 file without a ds64 chunk")
        r.pos += ds64_size - 16
    else:
        riff_size, form = r.unpack(e + "I4s")
    if form != b"WAVE":
        raise ValueError(f"RIFF form {form!r} is not WAVE")
    fmt = data = None
    while r.pos < riff_size + 8:
        chunk = r.take(4)
        if len(chunk) < 4:
            if data is None:
                raise ValueError("no data chunk")
            break
        if chunk == b"fmt ":
            fmt = _parse_fmt(r, e)
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            if data_size is None:
                size, = r.unpack(e + "I")
            else:
                r.take(4)
                size = data_size
            data = _parse_data(r, e, fmt, size)
        elif len(size_raw := r.take(4)) == 4:
            r.skip(struct.unpack(e + "I", size_raw)[0])
        elif size_raw:
            raise ValueError("chunk header cut short")
    if data is None:
        raise ValueError("no data chunk")
    return fmt[2], data


def read_wav(path):
    """Returns ``(sample_rate, wave)`` with wave [n] or [channels, n] float64.

    Raises :class:`InvalidInputError` naming the path on an unreadable file,
    an unsupported sample format, or a NaN/Inf sample in a float file."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        rate, data = _parse(buf)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.dtype.kind == "i":   # int16 or int32, 24-bit left-justified in the latter
        wave = data.astype(np.float64) * 2.0 ** (1 - 8 * data.dtype.itemsize)
    elif data.dtype == np.uint8:
        wave = (data.astype(np.float64) - 128.0) / 128.0
    else:
        wave = data.astype(np.float64)
        if not np.all(np.isfinite(wave)):
            raise InvalidInputError(f"{path}: non-finite samples")
    if wave.ndim == 2:
        wave = wave.T
    return int(rate), wave


def write_wav(path, sample_rate: int, wave: np.ndarray) -> None:
    """Write [n] or [channels, n] float samples as 16-bit PCM (truncating)."""
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim not in (1, 2):
        raise InvalidInputError(f"waveform must be 1-D or 2-D, got shape {wave.shape}")
    pcm = np.trunc(np.clip(wave, -1.0, 1.0) * 32767.0).astype("<i2")
    channels = 1 if pcm.ndim == 1 else pcm.shape[0]
    frames = pcm.T.tobytes()
    if len(frames) > 0xFFFFFFFF - 36:
        raise InvalidInputError(f"{path}: {len(frames)} bytes of samples exceed a RIFF file")
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(frames), b"WAVE",
                         b"fmt ", 16, _PCM, channels, int(sample_rate),
                         2 * channels * int(sample_rate), 2 * channels, 16,
                         b"data", len(frames))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(frames)

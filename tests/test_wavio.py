"""WAV I/O against scipy's ``wavfile`` as the oracle, both ways."""

import io
import re
import struct
import warnings

import numpy as np
import pytest
from scipy.io import wavfile

from hybridse.errors import InvalidInputError
from hybridse.wavio import read_wav, write_wav

FS = 16000
_GUID_TAIL = {"<": b"\x00\x00\x10\x00\x80\x00\x00\xAA\x00\x38\x9B\x71",
              ">": b"\x00\x00\x00\x10\x80\x00\x00\xAA\x00\x38\x9B\x71"}
_DTYPE = {"u8": "u1", "i16": "<i2", "i32": "<i4", "f32": "<f4", "f64": "<f8"}
# (name, format tag, container bytes, bits per sample)
_FORMATS = [("u8", 1, 1, 8), ("i16", 1, 2, 16), ("i24", 1, 3, 24), ("i32", 1, 4, 32),
            ("f32", 3, 4, 32), ("f64", 3, 8, 64)]


def oracle(path):
    """``read_wav``'s contract on top of ``wavfile.read``: [channels, n]
    float64, ints scaled by 2^-(bits - 1) of their container, u8 centred."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rate, data = wavfile.read(path)
    if data.dtype.kind == "i" and data.dtype.itemsize in (2, 4):
        wave = data.astype(np.float64) * 2.0 ** (1 - 8 * data.dtype.itemsize)
    elif data.dtype == np.uint8:
        wave = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype.kind == "f" and data.dtype.itemsize in (4, 8):
        wave = data.astype(np.float64)
        if not np.all(np.isfinite(wave)):
            raise ValueError("non-finite samples")
    else:
        raise ValueError(f"unsupported sample format {data.dtype}")
    return int(rate), wave.T if wave.ndim == 2 else wave


def samples(name, n, rng):
    """``n`` random samples of format ``name`` as a little-endian array
    (raw bytes for 24-bit)."""
    if name == "i24":
        return rng.integers(0, 256, 3 * n, dtype=np.uint8)
    dtype = np.dtype(_DTYPE[name])
    if dtype.kind == "f":
        return (0.5 * rng.standard_normal(n)).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, n, endpoint=True).astype(dtype)


def build(body, *, tag, width, bits, channels, order="<", extensible=False,
          rf64=False, rate=FS, byte_rate=None):
    """A WAV file around ``body`` (sample bytes in ``order``), built by hand:
    RIFF, RIFX (``order='>'``) or RF64, plain or EXTENSIBLE fmt chunk, and a
    LIST chunk with an odd size before the data."""
    e = order
    byte_rate = rate * width * channels if byte_rate is None else byte_rate
    if extensible:
        fmt = struct.pack(e + "HHIIHHHHI", 0xFFFE, channels, rate, byte_rate,
                          width * channels, bits, 22, bits, 0b11) \
            + struct.pack(e + "I", tag) + _GUID_TAIL[e]
    else:
        fmt = struct.pack(e + "HHIIHH", tag, channels, rate, byte_rate, width * channels, bits)
    chunks = (b"fmt " + struct.pack(e + "I", len(fmt)) + fmt
              + b"LIST" + struct.pack(e + "I", 3) + b"abc\x00")
    if rf64:
        chunks += b"data" + b"\xff\xff\xff\xff" + body
        ds64 = b"ds64" + struct.pack("<IQQQI", 28, 36 + len(chunks), len(body), 0, 0)
        return b"RF64\xff\xff\xff\xffWAVE" + ds64 + chunks
    chunks += b"data" + struct.pack(e + "I", len(body)) + body
    return (b"RIFX" if e == ">" else b"RIFF") + struct.pack(e + "I", 4 + len(chunks)) \
        + b"WAVE" + chunks


def hand_built(name, channels, frames, order="<", **kw):
    _, tag, width, bits = next(f for f in _FORMATS if f[0] == name)
    raw = samples(name, channels * frames, np.random.default_rng(channels * 100 + frames))
    if order == ">" and raw.dtype.itemsize > 1:
        raw = raw.astype(raw.dtype.newbyteorder(">"))
    return build(raw.tobytes(), tag=tag, width=width, bits=bits, channels=channels,
                 order=order, **kw)


def assert_same_as_oracle(path):
    rate, want = oracle(path)
    got_rate, got = read_wav(path)
    assert got_rate == rate
    assert got.dtype == np.float64 and got.shape == want.shape
    assert got.strides == want.strides          # the same [n, ch] buffer, transposed
    np.testing.assert_array_equal(got, want)


def agrees_with_oracle(path):
    """Wherever ``wavfile.read`` fails, ``read_wav`` raises InvalidInputError;
    wherever it reads, both return the same array."""
    try:
        want = oracle(path)
    except Exception:                       # anything scipy raises, incl. struct.error
        with pytest.raises(InvalidInputError, match=re.escape(str(path))):
            read_wav(path)
        return False
    got = read_wav(path)
    assert got[0] == want[0]
    np.testing.assert_array_equal(got[1], want[1])
    assert got[1].shape == want[1].shape
    return True


class TestReadMatchesScipy:
    @pytest.mark.parametrize("frames", [0, 1, 3, 1000])
    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("fmt", list(_DTYPE))
    def test_scipy_written_panel(self, tmp_path, fmt, channels, frames):
        rng = np.random.default_rng(frames + 10 * channels)
        data = samples(fmt, channels * frames, rng).reshape(frames, channels)
        path = tmp_path / "x.wav"
        wavfile.write(path, FS, data[:, 0] if channels == 1 else data)
        assert_same_as_oracle(path)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("fmt", [f[0] for f in _FORMATS])
    @pytest.mark.parametrize("layout", ["riff", "rifx", "rf64", "extensible",
                                        "rifx-extensible"])
    def test_hand_built_containers(self, tmp_path, layout, fmt, channels):
        path = tmp_path / "x.wav"
        path.write_bytes(hand_built(fmt, channels, 7, order=">" if "rifx" in layout else "<",
                                    rf64=layout == "rf64",
                                    extensible="extensible" in layout))
        assert_same_as_oracle(path)

    def test_24_bit_reads_left_justified(self, tmp_path):
        body = bytes([0x00, 0x00, 0x40, 0x00, 0x00, 0xC0])   # +2^22 and -2^22
        path = tmp_path / "x.wav"
        path.write_bytes(build(body, tag=1, width=3, bits=24, channels=1))
        np.testing.assert_array_equal(read_wav(path)[1], [0.5, -0.5])

    @pytest.mark.parametrize("blob", [
        hand_built("i16", 2, 5),
        hand_built("i24", 2, 3, order=">"),
        hand_built("f32", 3, 2, rf64=True),
        hand_built("f64", 1, 3, extensible=True),
    ], ids=["riff-i16", "rifx-i24", "rf64-f32", "extensible-f64"])
    def test_every_prefix(self, tmp_path, blob):
        path = tmp_path / "x.wav"
        read = 0
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            read += agrees_with_oracle(path)
        assert read > 0


class TestReadRejects:
    @pytest.mark.parametrize("width", [5, 7, 8], ids=["40bit", "56bit", "64bit"])
    def test_wide_pcm_containers(self, tmp_path, width):
        path = tmp_path / "x.wav"
        path.write_bytes(build(bytes(2 * width), tag=1, width=width, bits=8 * width,
                               channels=1))
        with pytest.raises(InvalidInputError, match="unsupported sample format"):
            read_wav(path)

    @pytest.mark.parametrize("channels", [0, 1])
    def test_frames_of_no_bytes(self, tmp_path, channels):
        # nBlockAlign 0 or nChannels 0 leaves no container size to divide by
        path = tmp_path / "x.wav"
        path.write_bytes(build(bytes(4), tag=1, width=0, bits=8, channels=channels))
        with pytest.raises(InvalidInputError, match="0-byte frames"):
            read_wav(path)

    @pytest.mark.parametrize("tag", [0x0002, 0x0006, 0x0055, 0xFFFE])
    def test_unknown_format_tags(self, tmp_path, tag):
        path = tmp_path / "x.wav"
        path.write_bytes(build(bytes(8), tag=tag, width=2, bits=16, channels=1))
        with pytest.raises(InvalidInputError, match="format tag"):
            read_wav(path)

    @pytest.mark.parametrize("name, channels, cut, message", [
        ("i16", 2, 2, "frame 6: 1 of its 2 samples"),
        ("i24", 1, 1, "frame 6: 2 of its 3 bytes"),
        ("i24", 2, 3, "frame 6: 3 of its 6 bytes"),
    ], ids=["stereo-i16", "mono-i24", "stereo-i24"])
    def test_data_cut_inside_a_frame(self, tmp_path, name, channels, cut, message):
        path = tmp_path / "x.wav"
        path.write_bytes(hand_built(name, channels, 7)[:-cut])
        with pytest.raises(InvalidInputError, match=f"data chunk ends inside {message}"):
            read_wav(path)

    @pytest.mark.parametrize("layout, patch, message", [
        # the fmt chunk's size field (bytes 16-19) under the 16 bytes PCM needs
        ({}, lambda b: b[:16] + struct.pack("<I", 14) + b[20:], "fmt chunk of 14 bytes"),
        # EXTENSIBLE cbSize (bytes 36-37) too small for its 22-byte tail
        ({"extensible": True}, lambda b: b[:36] + struct.pack("<H", 20) + b[38:],
         "truncated WAVE_FORMAT_EXTENSIBLE header"),
        ({"rf64": True}, lambda b: b[:12] + b"junk" + b[16:], "RF64 file without a ds64 chunk"),
        ({}, lambda b: b[:8] + b"AVI " + b[12:], "RIFF form b'AVI ' is not WAVE"),
        # a RIFF size that ends the chunk list at the form
        ({}, lambda b: b[:4] + struct.pack("<I", 4) + b[8:], "no data chunk"),
    ], ids=["short_fmt", "short_extensible", "rf64_without_ds64", "not_wave", "no_data"])
    def test_malformed_container(self, tmp_path, layout, patch, message):
        path = tmp_path / "x.wav"
        path.write_bytes(patch(hand_built("i16", 1, 3, **layout)))
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"{path}: not a readable WAV file ({message})")):
            read_wav(path)

    def test_data_chunk_before_the_fmt_chunk(self, tmp_path):
        # scipy rejects the same file: "No fmt chunk before data"
        riff = hand_built("i16", 1, 3)
        data = riff.index(b"data")                 # the last chunk: move it first
        path = tmp_path / "x.wav"
        path.write_bytes(riff[:12] + riff[data:] + riff[12:data])
        with pytest.raises(InvalidInputError, match=re.escape(
                f"{path}: not a readable WAV file (data chunk before the fmt chunk)")):
            read_wav(path)
        assert not agrees_with_oracle(path)

    def test_pcm_byte_rate_must_match(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(build(bytes(8), tag=1, width=2, bits=16, channels=1,
                               byte_rate=FS * 2 + 1))
        with pytest.raises(InvalidInputError, match="nAvgBytesPerSec"):
            read_wav(path)


class TestWrite:
    @pytest.mark.parametrize("shape", [(1000,), (2, 1000), (3, 1000), (2, 0)],
                             ids=["mono", "stereo", "three", "empty"])
    def test_bytes_match_scipy(self, tmp_path, shape):
        wave = 0.4 * np.random.default_rng(0).standard_normal(shape)
        wave.flat[:3] = [1.5, -1.5, -1.0]
        path = tmp_path / "x.wav"
        write_wav(path, FS, wave)
        pcm = np.trunc(np.clip(wave, -1.0, 1.0) * 32767.0).astype(np.int16)
        want = io.BytesIO()
        wavfile.write(want, FS, pcm.T if pcm.ndim == 2 else pcm)
        assert path.read_bytes() == want.getvalue()

    def test_wave_beyond_2d_rejected_before_the_file_opens(self, tmp_path):
        path = tmp_path / "x.wav"
        with pytest.raises(InvalidInputError, match=r"1-D or 2-D, got shape \(2, 2, 100\)"):
            write_wav(path, FS, np.zeros((2, 2, 100)))
        assert not path.exists()

    @pytest.mark.parametrize("rate, shape, message", [
        (FS, (0, 100), "0 channels; a 16-bit WAV file holds 1 to 32767"),
        (FS, (32768, 1), "32768 channels; a 16-bit WAV file holds 1 to 32767"),
        (-1, (100,), "sample rate -1 is not a whole number of Hz from 0 to 2147483647"),
        (2 ** 32, (100,), "sample rate 4294967296 is not a whole number of Hz from 0 to"),
        (2 ** 31 - 1, (2, 100), "sample rate 2147483647 is not a whole number of Hz from 0 "
                                "to 1073741823, where a 2-channel byte rate fits"),
        (16000.5, (100,), "sample rate 16000.5 is not a whole number of Hz"),
    ], ids=["no-channel", "32768-channels", "negative-rate", "rate-over-32-bits",
            "byte-rate-over-32-bits", "fractional-rate"])
    def test_header_overflow_rejected_before_the_file_opens(self, tmp_path, rate, shape,
                                                            message):
        path = tmp_path / "x.wav"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(f'{path}: {message}')}"):
            write_wav(path, rate, np.zeros(shape))
        assert not path.exists()

    def test_oversized_wave_rejected_before_it_is_converted(self, tmp_path):
        # a broadcast view of one sample: checked after the conversion, it
        # would allocate several times its 16 GB first
        path = tmp_path / "x.wav"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: 4294967296 "
                                                    "bytes of samples exceed a RIFF file"):
            write_wav(path, FS, np.broadcast_to(0.0, (2 ** 31,)))
        assert not path.exists()

    @pytest.mark.parametrize("rate, shape", [(2 ** 31 - 1, (100,)), (FS, (32767, 1))],
                             ids=["largest-mono-rate", "most-channels"])
    def test_header_limits_write_readable_files(self, tmp_path, rate, shape):
        path = tmp_path / "x.wav"
        write_wav(path, rate, np.zeros(shape))
        got_rate, got = read_wav(path)
        assert got_rate == rate and got.shape == shape

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("shape", [(100,), (2, 100)], ids=["mono", "stereo"])
    def test_non_finite_sample_rejected_before_the_file_opens(self, tmp_path, shape, value):
        wave = np.zeros(shape)
        wave.flat[-1] = value
        path = tmp_path / "x.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=f"^{re.escape(str(path))}: non-finite"):
                write_wav(path, FS, wave)
        assert not path.exists()

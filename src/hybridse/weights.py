"""Binary tensor-map serialization for model weights.

Layout (all integers little-endian):

    magic  b"GTCW"
    u8     version (currently 1)
    u32    tensor count
    per tensor:
        u16    name length in bytes
        bytes  UTF-8 name
        u8     rank (numpy arrays have at most 64 axes, so any fits)
        u32[]  dims
        f32[]  row-major IEEE-754 values
    u32    CRC-32 of every preceding byte

Parsing is atomic: any truncation, overrun, checksum mismatch or shape
numpy cannot hold raises :class:`WeightFormatError`; nothing partial escapes.
"""

import math
import struct
import zlib

import numpy as np

from .errors import WeightFormatError

MAGIC = b"GTCW"
VERSION = 1


def serialize_tensors(tensors) -> bytes:
    """Encode an ordered name->array mapping; values are stored as float32."""
    out = bytearray(MAGIC)
    out.append(VERSION)
    out += struct.pack("<I", len(tensors))
    for name, arr in tensors.items():
        nb = name.encode("utf-8")
        if not 0 < len(nb) <= 0xFFFF:
            raise WeightFormatError(f"tensor name {name!r} not encodable")
        arr = np.ascontiguousarray(arr, dtype="<f4")
        out += struct.pack("<H", len(nb))
        out += nb
        out.append(arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.tobytes(order="C")
    out += struct.pack("<I", zlib.crc32(bytes(out)) & 0xFFFFFFFF)
    return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise WeightFormatError(f"truncated stream while reading {what}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


def deserialize_tensors(data: bytes) -> dict:
    """Decode bytes produced by :func:`serialize_tensors` into an ordered
    name->float32-array dict, verifying the trailing checksum."""
    if len(data) < len(MAGIC) + 1 + 4 + 4:
        raise WeightFormatError("stream too short for header and checksum")
    body, (crc_stored,) = data[:-4], struct.unpack("<I", data[-4:])
    if zlib.crc32(body) & 0xFFFFFFFF != crc_stored:
        raise WeightFormatError("checksum mismatch; stream corrupt or truncated")

    r = _Reader(body)
    if r.take(4, "magic") != MAGIC:
        raise WeightFormatError("bad magic bytes; not a weight stream")
    version = r.take(1, "version")[0]
    if version != VERSION:
        raise WeightFormatError(f"unsupported version {version}")
    (count,) = struct.unpack("<I", r.take(4, "tensor count"))

    tensors = {}
    for i in range(count):
        (name_len,) = struct.unpack("<H", r.take(2, f"name length of tensor {i}"))
        try:
            name = r.take(name_len, f"name of tensor {i}").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WeightFormatError(f"tensor {i} name is not valid UTF-8") from exc
        rank = r.take(1, f"rank of {name!r}")[0]
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"dims of {name!r}"))
        raw = r.take(4 * math.prod(dims), f"values of {name!r}")
        if name in tensors:
            raise WeightFormatError(f"duplicate tensor {name!r}")
        try:
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()
        except ValueError as exc:    # more than numpy's axes, or a 0-size shape too big
            raise WeightFormatError(f"tensor {name!r} of shape {dims}: {exc}") from exc
    if r.pos != len(body):
        raise WeightFormatError(f"{len(body) - r.pos} trailing bytes after last tensor")
    return tensors

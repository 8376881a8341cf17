"""Binary weight stream format and config-validated loading."""

import struct
import zlib

import numpy as np
import pytest

from hybridse.errors import WeightFormatError
from hybridse.model import (ModelConfig, expected_shapes, init_random,
                            load_weights, preset_config, save_weights)
from hybridse.weights import deserialize_tensors, serialize_tensors

CFG = ModelConfig()


def _crc_wrap(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _record(name: str, arr: np.ndarray) -> bytes:
    nb = name.encode()
    arr = np.ascontiguousarray(arr, dtype="<f4")
    return (struct.pack("<H", len(nb)) + nb + bytes([arr.ndim])
            + struct.pack(f"<{arr.ndim}I", *arr.shape) + arr.tobytes())


def _assemble(records, version=1, count=None) -> bytes:
    body = b"GTCW" + bytes([version]) + struct.pack("<I", len(records) if count is None else count)
    for name, arr in records:
        body += _record(name, arr)
    return _crc_wrap(body)


class TestSerialization:
    def test_round_trip_bitwise(self):
        rng = np.random.default_rng(0)
        tensors = {
            "a.kernel": rng.standard_normal((4, 2, 3, 3)).astype(np.float32),
            "a.bias": rng.standard_normal(4).astype(np.float32),
            "scalar": np.float32(2.5),
            "b": rng.standard_normal((7,)).astype(np.float32),
        }
        back = deserialize_tensors(serialize_tensors(tensors))
        assert list(back) == list(tensors)       # order preserved
        for name in tensors:
            got = back[name]
            assert got.dtype == np.float32
            np.testing.assert_array_equal(got, np.asarray(tensors[name], np.float32))

    def test_float64_and_noncontiguous_inputs_accepted(self):
        arr = np.arange(12, dtype=np.float64).reshape(3, 4).T   # F-ordered view
        back = deserialize_tensors(serialize_tensors({"t": arr}))
        np.testing.assert_array_equal(back["t"], arr.astype(np.float32))

    def test_header_layout(self):
        data = serialize_tensors({"x": np.zeros(3, np.float32)})
        assert data[:4] == b"GTCW"
        assert data[4] == 1
        assert struct.unpack("<I", data[5:9]) == (1,)
        stored = struct.unpack("<I", data[-4:])[0]
        assert stored == zlib.crc32(data[:-4]) & 0xFFFFFFFF

    def test_empty_name_rejected(self):
        with pytest.raises(WeightFormatError):
            serialize_tensors({"": np.zeros(2, np.float32)})


class TestDeserializationErrors:
    def _blob(self):
        return serialize_tensors({"x": np.arange(5, dtype=np.float32),
                                  "y": np.ones((2, 2), np.float32)})

    @pytest.mark.parametrize("cut", [1, 5, 9, 12, 20])
    def test_truncation_detected(self, cut):
        data = self._blob()
        with pytest.raises(WeightFormatError):
            deserialize_tensors(data[:-cut])

    def test_single_flipped_byte_detected(self):
        data = bytearray(self._blob())
        data[15] ^= 0x40
        with pytest.raises(WeightFormatError, match="checksum"):
            deserialize_tensors(bytes(data))

    def test_bad_magic(self):
        body = b"NOPE" + bytes([1]) + struct.pack("<I", 0)
        with pytest.raises(WeightFormatError, match="magic"):
            deserialize_tensors(_crc_wrap(body))

    def test_unsupported_version(self):
        with pytest.raises(WeightFormatError, match="version"):
            deserialize_tensors(_assemble([], version=9))

    def test_duplicate_tensor_named(self):
        arr = np.ones(3, np.float32)
        with pytest.raises(WeightFormatError, match="duplicate.*'dup'"):
            deserialize_tensors(_assemble([("dup", arr), ("dup", arr)]))

    def test_trailing_bytes_detected(self):
        data = self._blob()
        body = data[:-4] + b"\x00\x00"
        with pytest.raises(WeightFormatError, match="trailing"):
            deserialize_tensors(_crc_wrap(body))

    def test_count_beyond_payload(self):
        with pytest.raises(WeightFormatError, match="truncated"):
            deserialize_tensors(_assemble([("x", np.ones(2, np.float32))], count=3))

    def test_empty_stream(self):
        with pytest.raises(WeightFormatError):
            deserialize_tensors(b"")


class TestInitRandom:
    def test_same_seed_bitwise_identical(self):
        a = init_random(CFG, 123)
        b = init_random(CFG, 123)
        assert list(a) == list(b)
        for name in a:
            np.testing.assert_array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = init_random(CFG, 1)
        b = init_random(CFG, 2)
        assert any(not np.array_equal(a[n], b[n]) for n in a)

    def test_structured_leaves(self):
        w = init_random(CFG, 0)
        for name, arr in w.items():
            assert arr.dtype == np.float32, name
            leaf = name.rsplit(".", 1)[1]
            if leaf in ("gamma", "var"):
                np.testing.assert_array_equal(arr, 1.0)
            elif leaf in ("beta", "mean"):
                np.testing.assert_array_equal(arr, 0.0)
            elif leaf == "alpha":
                np.testing.assert_array_equal(arr, 0.25)

    def test_kernel_bounds(self):
        w = init_random(CFG, 0)
        k = w["enc.conv1.kernel"]
        bound = 1.0 / np.sqrt(np.prod(k.shape[1:]))
        assert np.max(np.abs(k)) <= bound
        gx = w["dprnn.inter.g0.gru.w_x"]
        assert np.max(np.abs(gx)) <= 1.0 / np.sqrt(CFG.inter_hidden)

    def test_covers_inventory_exactly(self):
        w = init_random(CFG, 0)
        shapes = expected_shapes(CFG)
        assert set(w) == set(shapes)
        for name, shp in shapes.items():
            assert w[name].shape == tuple(shp)


class TestLoadWeights:
    def test_save_load_round_trip(self):
        w = init_random(CFG, 7)
        back = load_weights(save_weights(w), CFG)
        assert list(back) == list(w)
        for name in w:
            np.testing.assert_array_equal(back[name], w[name])

    def test_missing_tensor_named(self):
        t = init_random(CFG, 0)
        del t["dec.deconv2.bias"]
        with pytest.raises(WeightFormatError, match="missing.*dec.deconv2.bias"):
            load_weights(serialize_tensors(t), CFG)

    def test_extra_tensor_named(self):
        t = init_random(CFG, 0)
        t["stray"] = np.zeros(3, np.float32)
        with pytest.raises(WeightFormatError, match="unexpected.*'stray'"):
            load_weights(serialize_tensors(t), CFG)

    def test_shape_mismatch_named(self):
        t = init_random(CFG, 0)
        t["enc.conv1.bias"] = np.zeros(5, np.float32)
        with pytest.raises(WeightFormatError, match="enc.conv1.bias.*shape"):
            load_weights(serialize_tensors(t), CFG)

    def test_non_finite_rejected(self):
        t = init_random(CFG, 0)
        t["enc.conv2.bias"] = np.full_like(t["enc.conv2.bias"], np.nan)
        with pytest.raises(WeightFormatError, match="non-finite"):
            load_weights(serialize_tensors(t), CFG)

    def test_config_mismatch_rejected(self):
        # the default preset's enc.conv1 sees 6 feature planes, lps-s-m2's 5
        w = init_random(CFG, 0)
        with pytest.raises(WeightFormatError, match="enc.conv1.kernel.*shape"):
            load_weights(save_weights(w), preset_config("lps-s-m2"))

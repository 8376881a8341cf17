"""Binary weight stream format and config-validated loading."""

import hashlib
import math
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridse.errors import WeightFormatError
from hybridse.model import (PRESETS, ModelConfig, expected_shapes, init_random,
                            load_weights, prepare, preset_config, save_weights)
from hybridse.weights import deserialize_tensors, serialize_tensors

CFG = ModelConfig()

# sha256 of ``save_weights(init_random(preset, seed))`` for seeds 0 and 1,
# recorded before the layer table drove initialisation: the draw order, the
# bounds and the constant leaves are all pinned byte for byte
_INIT_SHA256 = {
    "cplx-s-m1": ("d56334455f2a7e77f2f99d87b8d0f8c489dc8eafa587b9c6ecc262f3821bed43",
                   "191b3db28e98bb4bd12308d319f48f1631efc2c38bfeb6950c4162d0c1b0a1e1"),
    "cplx-s-m2": ("d56334455f2a7e77f2f99d87b8d0f8c489dc8eafa587b9c6ecc262f3821bed43",
                   "191b3db28e98bb4bd12308d319f48f1631efc2c38bfeb6950c4162d0c1b0a1e1"),
    "cplx-sn-m1": ("19e9926094e6d7371ce857a052b12d58513284df54f789273a24b5ff85f7e667",
                    "1ad03b19718023670196ab9dfdfb8b1359cec98da0fe0ddcabee011842e885d1"),
    "lps-s-m1": ("1b12fc9b28ffdad5c5d7496c450140e7713dc4bf4fd252ac3c56f62d085492f4",
                  "e5c3be252901d0fa19593aeef88c2b36eda20c766639f522ed9389d3dacb347f"),
    "lps-s-m2": ("1b12fc9b28ffdad5c5d7496c450140e7713dc4bf4fd252ac3c56f62d085492f4",
                  "e5c3be252901d0fa19593aeef88c2b36eda20c766639f522ed9389d3dacb347f"),
    "lps-sn-m2": ("d56334455f2a7e77f2f99d87b8d0f8c489dc8eafa587b9c6ecc262f3821bed43",
                   "191b3db28e98bb4bd12308d319f48f1631efc2c38bfeb6950c4162d0c1b0a1e1"),
    "lps-sn-m2-dual": ("bc93b9acef2d10c5d128d4c08187cd63c51fde69a2305cb040a88b6d2d2cb361",
                        "4996a7ea1fcd83fae70703b6771f5a1f05a6b74a49a78979d12630c41542fb39"),
}


def _crc_wrap(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def _raw_record(name: bytes, dims, payload: bytes) -> bytes:
    """A tensor record as stored, whatever its dims and payload length."""
    return (struct.pack("<H", len(name)) + name + bytes([len(dims)])
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


def _record(name: str, arr: np.ndarray) -> bytes:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    return _raw_record(name.encode(), arr.shape, arr.tobytes())


_U32 = 2 ** 32 - 1


@st.composite
def gtcw_stream(draw):
    """Any GTCW body with its correct CRC-32 appended: the magic (or not),
    any version and count, then records with any name bytes, ranks up to
    the u8 limit, dims up to the u32 limit, and payloads of the length the
    dims ask for or of any other length."""
    dim = st.sampled_from([0, 1, 1, 1, 2, 3, 65536, 2 ** 31, _U32 - 1, _U32])
    records = []
    for _ in range(draw(st.integers(0, 3))):
        rank = draw(st.one_of(st.integers(0, 4), st.integers(60, 70), st.just(255)))
        dims = draw(st.lists(dim, min_size=rank, max_size=rank))
        exact = 4 * math.prod(dims)
        size = exact if exact <= 256 and draw(st.booleans()) else draw(st.integers(0, 256))
        records.append(_raw_record(draw(st.binary(max_size=6)), dims,
                                   draw(st.binary(min_size=size, max_size=size))))
    count = len(records) if draw(st.booleans()) else draw(st.sampled_from([0, 1, 4, _U32]))
    head = draw(st.sampled_from([b"GTCW", b"GTCX"])) + bytes([draw(st.sampled_from([1, 0, 2]))])
    body = head + struct.pack("<I", count) + b"".join(records) + draw(st.binary(max_size=3))
    return _crc_wrap(body)


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

    @pytest.mark.parametrize("dims", [(_U32, _U32, 2), (65536,) * 4],
                             ids=["u32_max", "2^64_items"])
    def test_item_count_beyond_int64_is_truncation(self, dims):
        # (2^32 - 1)^2 * 2 and 2^64 items overflow int64; the stream holds 64 bytes
        body = b"GTCW" + bytes([1]) + struct.pack("<I", 1) + _raw_record(b"x", dims, bytes(64))
        with pytest.raises(WeightFormatError, match="truncated stream while reading values"):
            deserialize_tensors(_crc_wrap(body))

    @pytest.mark.parametrize("dims", [(1,) * 65, (0, _U32, _U32, _U32)],
                             ids=["rank_65", "empty_but_too_big"])
    def test_shape_numpy_cannot_hold(self, dims):
        body = b"GTCW" + bytes([1]) + struct.pack("<I", 1) \
            + _raw_record(b"x", dims, bytes(4 * math.prod(dims)))
        with pytest.raises(WeightFormatError, match=r"tensor 'x' of shape"):
            deserialize_tensors(_crc_wrap(body))

    @settings(max_examples=300, deadline=None)
    @given(gtcw_stream())
    def test_any_checksummed_stream_parses_or_is_rejected(self, data):
        try:
            tensors = deserialize_tensors(data)
        except WeightFormatError:
            return
        assert all(arr.dtype == np.float32 for arr in tensors.values())


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
        # kernels: 1/sqrt(fan_in) over every kernel axis but the first; GRU
        # tensors: 1/sqrt(hidden); a bias shares its layer's bound
        for preset in sorted(PRESETS):
            w = init_random(preset_config(preset), 0)
            for name, arr in w.items():
                layer, leaf = name.rsplit(".", 1)
                if leaf not in ("kernel", "w_x", "w_h", "bias"):
                    continue
                if f"{layer}.kernel" in w:
                    bound = 1.0 / np.sqrt(np.prod(w[f"{layer}.kernel"].shape[1:]))
                else:
                    bound = 1.0 / np.sqrt(w[f"{layer}.w_h"].shape[0])
                assert np.max(np.abs(arr)) <= bound, (preset, name)
                if arr.size >= 16:              # the draw spans the bound
                    assert np.max(np.abs(arr)) > 0.5 * bound, (preset, name)

    @pytest.mark.parametrize("preset, seed", [(p, s) for p in _INIT_SHA256 for s in (0, 1)])
    def test_pinned_bytes(self, preset, seed):
        blob = save_weights(init_random(preset_config(preset), seed))
        assert hashlib.sha256(blob).hexdigest() == _INIT_SHA256[preset][seed]

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
        want = list(prepare(w, CFG).arrays())
        assert back.cfg == CFG and len(list(back.arrays())) == len(want)
        for got, ref in zip(back.arrays(), want):
            assert (got.dtype, got.shape, got.tobytes()) == (ref.dtype, ref.shape, ref.tobytes())

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

"""Inference primitives against naive-loop references."""

import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from hybridse import nn
from hybridse.errors import InvalidInputError
from hybridse.nn import (GruParams, batch_norm_infer, conv2d, conv_transpose2d,
                         gru_gate_major, gru_scan, gru_sequence, prelu)


def rel_linf(got, want):
    scale = max(np.max(np.abs(want)), 1e-12)
    return np.max(np.abs(got - want)) / scale


class TestConv2d:
    def test_depthwise_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 6, 8, 10))
        np.testing.assert_array_equal(conv2d(x, np.ones((6, 1, 1, 1)), groups=6), x)

    def test_zero_kernel_with_bias(self):
        x = np.random.default_rng(1).standard_normal((1, 3, 5, 7))
        bias = np.array([1.5, -2.0, 0.25])
        out = conv2d(x, np.zeros((3, 3, 2, 2)), bias)
        for c in range(3):
            np.testing.assert_allclose(out[0, c], bias[c])

    def test_grouped_dilated_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 4, 9, 6))
        k = rng.standard_normal((6, 2, 3, 3))
        b = rng.standard_normal(6)
        got = conv2d(x, k, b, dilation=(2, 1), groups=2)
        want = oracles.conv2d_naive(x, k, b, dilation=(2, 1), groups=2)
        assert rel_linf(got, want) < 1e-5

    def test_strided_matches_naive(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((1, 2, 7, 13))
        k = rng.standard_normal((4, 2, 1, 5))
        got = conv2d(x, k, stride=(1, 2))
        want = oracles.conv2d_naive(x, k, stride=(1, 2))
        assert got.shape == want.shape == (1, 4, 7, 7)
        assert rel_linf(got, want) < 1e-5

    def test_linearity_without_bias(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 6, 6))
        y = rng.standard_normal((1, 3, 6, 6))
        k = rng.standard_normal((5, 3, 3, 3))
        lhs = conv2d(1.7 * x - 0.3 * y, k)
        rhs = 1.7 * conv2d(x, k) - 0.3 * conv2d(y, k)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_causal_padding_blocks_future(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, 12, 5))
        k = rng.standard_normal((3, 2, 3, 3))
        base = conv2d(x, k, dilation=(2, 1))
        cut = 6
        x2 = x.copy()
        x2[:, :, cut:, :] = rng.standard_normal((1, 2, 12 - cut, 5))
        pert = conv2d(x2, k, dilation=(2, 1))
        np.testing.assert_array_equal(base[:, :, :cut], pert[:, :, :cut])

    def test_group_mismatch_rejected(self):
        x = np.zeros((1, 5, 4, 4))
        with pytest.raises(InvalidInputError):
            conv2d(x, np.zeros((4, 2, 1, 1)), groups=2)

    def test_dtype_preserved(self):
        # both convs return x's dtype, also beside a float64 bias
        rng = np.random.default_rng(19)
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        k = rng.standard_normal((2, 2, 1, 3)).astype(np.float32)
        for op in (conv2d, conv_transpose2d):
            for bias in (None, np.ones(2), np.ones(2, dtype=np.float32)):
                assert op(x, k, bias, (1, 2)).dtype == np.float32

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("multiplier", [1, 2])
    def test_one_input_channel_per_group_matches_naive(self, multiplier, dtype):
        # in/groups == 1 takes the broadcast-product branch: depthwise
        # (multiplier 1) and depth multiplier 2, strided, dilated, causal
        rng = np.random.default_rng(16)
        x = rng.standard_normal((2, 4, 9, 11)).astype(dtype)
        k = rng.standard_normal((4 * multiplier, 1, 3, 3)).astype(dtype)
        b = rng.standard_normal(4 * multiplier).astype(dtype)
        got = conv2d(x, k, b, stride=(1, 2), dilation=(2, 1), groups=4)
        want = oracles.conv2d_naive(x, k, b, stride=(1, 2), dilation=(2, 1), groups=4)
        assert got.dtype == dtype
        assert got.shape == want.shape == (2, 4 * multiplier, 9, 6)
        assert rel_linf(got, want) < 1e-5

    def test_pointwise_leaves_input_alone(self):
        # a 1x1 conv needs no padding and reads its input in place; the
        # result is still a fresh array
        rng = np.random.default_rng(17)
        x = rng.standard_normal((1, 3, 5, 7))
        before = x.copy()
        k = rng.standard_normal((4, 3, 1, 1))
        out = conv2d(x, k, np.ones(4))
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out, x)
        assert rel_linf(out, oracles.conv2d_naive(x, k, np.ones(4))) < 1e-5


    @pytest.mark.parametrize("groups", [1, 32], ids=["dense", "depthwise"])
    def test_output_allocated_after_the_planes_are_freed(self, groups):
        # a 2x3 kernel pads the time axis by 1 row and the frequency axis
        # by 2 columns: the padded plane (4.36 MB), the accumulator and the
        # product buffer (4.29 MB each) are freed down to the accumulator
        # before the 4.23 MB output is allocated; 12.95 MB measured, where
        # all four at once are 17.2 MB
        rng = np.random.default_rng(21)
        x = rng.standard_normal((1, 32, 128, 129))
        k = rng.standard_normal((32, 32 // groups, 2, 3))
        plane = 32 * (128 + 1 + 1) * (129 + 2) * 8
        acc = 32 * 128 * (129 + 2) * 8
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            out = conv2d(x, k, groups=groups)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak - entry <= plane + 2 * acc + (1 << 20)


    @pytest.mark.parametrize("shape, kernel, stride", [
        ((1, 18, 208, 129), (16, 18, 1, 5), (1, 2)),
        ((1, 32, 128, 129), (32, 32, 2, 3), (1, 1))], ids=["first-encoder-conv", "2x3"])
    def test_only_the_accumulator_is_live_at_the_output_allocation(
            self, shape, kernel, stride, monkeypatch):
        # the peak cannot show it, since the product buffer is as large as
        # the output: a loop variable that viewed the planes once kept the
        # first encoder conv's 2.02 MB planes of a 208-frame block alive
        # when its output was allocated
        allocations = []

        class RecordingNumpy:
            """numpy, with the traced memory and size of each np.empty."""
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def empty(*args, **kwargs):
                live = tracemalloc.get_traced_memory()[0]
                out = np.empty(*args, **kwargs)
                allocations.append((live, out.nbytes))
                return out

        rng = np.random.default_rng(22)
        x = rng.standard_normal(shape).astype(np.float32)
        k = rng.standard_normal(kernel).astype(np.float32)
        monkeypatch.setattr(nn, "np", RecordingNumpy())
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            conv2d(x, k, stride=stride)
        finally:
            tracemalloc.stop()
        (_, acc), *_, (at_output, _) = allocations
        assert len(allocations) == 3        # accumulator, product buffer, output
        assert at_output - entry <= acc + (64 << 10)


class TestConvTranspose2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 3, 5, 5))
        k = np.stack([np.eye(3)[:, :, None, None][i] for i in range(3)])
        out = conv_transpose2d(x, k)
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_inverts_encoder_downsampling_extent(self):
        # freq chain 129 -> 65 -> 33 under (1,5)/(1,2) comes back 33 -> 65 -> 129
        rng = np.random.default_rng(7)
        k = rng.standard_normal((4, 4, 1, 5))
        for f_in in (33, 65):
            x = rng.standard_normal((1, 4, 6, f_in))
            out = conv_transpose2d(x, k, stride=(1, 2))
            assert out.shape[-1] == (f_in - 1) * 2 + 1

    def test_matches_scatter_add_naive(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((2, 4, 5, 6))
        k = rng.standard_normal((4, 3, 2, 3))
        b = rng.standard_normal(6)
        got = conv_transpose2d(x, k, b, stride=(1, 2), groups=2)
        want = oracles.conv_transpose2d_naive(x, k, b, stride=(1, 2), groups=2)
        assert rel_linf(got, want) < 1e-5

    @pytest.mark.parametrize("groups, o_per_g", [(2, 3), (6, 1), (6, 2)])
    def test_grouped_and_depthwise_match_naive(self, groups, o_per_g):
        rng = np.random.default_rng(18)
        x = rng.standard_normal((2, 6, 5, 7))
        k = rng.standard_normal((6, o_per_g, 2, 3))
        b = rng.standard_normal(groups * o_per_g)
        got = conv_transpose2d(x, k, b, stride=(1, 2), groups=groups)
        want = oracles.conv_transpose2d_naive(x, k, b, stride=(1, 2), groups=groups)
        assert got.shape == want.shape == (2, groups * o_per_g, 5, 13)
        assert rel_linf(got, want) < 1e-5

    def test_adjoint_of_conv2d(self):
        # <conv(x), y> == <x, conv_transpose(y)>; the two ops share one
        # kernel array under the [out, in/g] vs [in, out/g] layouts
        rng = np.random.default_rng(9)
        x = rng.standard_normal((1, 4, 8, 9))
        k = rng.standard_normal((6, 2, 3, 3))
        fwd = conv2d(x, k, stride=(1, 2), groups=2)
        y = rng.standard_normal(fwd.shape)
        back = conv_transpose2d(y, k, stride=(1, 2), groups=2)
        assert back.shape == x.shape
        assert np.dot(fwd.ravel(), y.ravel()) == pytest.approx(
            np.dot(x.ravel(), back.ravel()), rel=1e-9)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            conv_transpose2d(np.zeros((1, 3, 4, 4)), np.zeros((4, 2, 1, 1)))


# (input channels, output channels, groups): grouped taps take one matrix
# product each, depthwise and depth-multiplier taps a broadcast product
_GROUPINGS = {"groups1": (4, 6, 1), "groups2": (4, 6, 2),
              "depthwise": (4, 4, 4), "multiplier2": (4, 8, 4)}
_STRIDES = [(1, 1), (1, 2), (2, 1), (2, 2)]
_DILATIONS = [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (1, 2)]
_KERNELS = [(kt, kf) for kt in (1, 3, 5) for kf in (1, 3, 5)]
# the network's transposed convs, dec.deconv1 and dec.deconv2, at their
# input bands: (input channels, output channels, groups, bands)
_DECONV_ROWS = {"deconv1": (16, 16, 2, 33), "deconv2": (16, 2, 1, 65)}


def assert_same_bytes(got, want):
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()   # signed zeros too


def _with_zeros(rng, shape, dtype):
    x = rng.standard_normal(shape).astype(dtype)
    x.reshape(-1)[::5] = 0.0                 # exact zeros give signed-zero products
    return x


class TestShiftedWindowConv:
    """The shifted-window kernels against the per-tap kernels they replaced
    (``oracles.conv2d_per_tap``, ``oracles.conv_transpose2d_per_tap``): the
    same products and the same sums in the same order, so the same bytes.

    Left out are groups with one output channel and several input channels,
    and for the transposed conv a 1x1 input with several input channels per
    group: there numpy hands a tap to a BLAS matrix-vector product whose
    rounding depends on where the data sit in memory, so neither kernel
    fixes its bytes.  The model runs neither; ``*_matches_naive`` covers
    them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", _STRIDES)
    @pytest.mark.parametrize("grouping", list(_GROUPINGS))
    def test_conv2d_equals_per_tap(self, grouping, stride, dtype):
        c_in, out_ch, groups = _GROUPINGS[grouping]
        rng = np.random.default_rng(20)
        for dilation in _DILATIONS:
            for kt, kf in _KERNELS:
                for t in (1, 2, 3, 8):
                    for batch in (1, 2):
                        x = _with_zeros(rng, (batch, c_in, t, 9), dtype)
                        k = rng.standard_normal((out_ch, c_in // groups, kt, kf)).astype(dtype)
                        bias = rng.standard_normal(out_ch).astype(dtype) if batch == 1 else None
                        assert_same_bytes(
                            conv2d(x, k, bias, stride, dilation, groups),
                            oracles.conv2d_per_tap(x, k, bias, stride, dilation, groups))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", _STRIDES)
    @pytest.mark.parametrize("grouping", [*_GROUPINGS, *_DECONV_ROWS])
    def test_conv_transpose2d_equals_per_tap(self, grouping, stride, dtype):
        c_in, c_out, groups, f = _DECONV_ROWS.get(grouping) or (*_GROUPINGS[grouping], 9)
        rng = np.random.default_rng(21)
        for kt, kf in _KERNELS:
            for t in (1, 2, 3, 8):
                for batch in (1, 2):
                    x = _with_zeros(rng, (batch, c_in, t, f), dtype)
                    k = rng.standard_normal((c_in, c_out // groups, kt, kf)).astype(dtype)
                    bias = rng.standard_normal(c_out).astype(dtype) if batch == 1 else None
                    assert_same_bytes(
                        conv_transpose2d(x, k, bias, stride, groups),
                        oracles.conv_transpose2d_per_tap(x, k, bias, stride, groups))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("grouping", ["depthwise", "multiplier2"])
    def test_depthwise_across_chunk_boundaries(self, grouping, stride, dtype):
        # long inputs: the frame counts put the end of the window short of,
        # just past and well past 1 << 17 products, a cache-sized stretch of
        # the flattened planes
        c_in, out_ch, groups = _GROUPINGS[grouping]
        batch, f = 2, 9
        fq = -(-(f + 2) // stride[1])            # plane width for kf = 3
        per_chunk = (1 << 17) // (batch * out_ch) // fq + 1
        rng = np.random.default_rng(22)
        k = rng.standard_normal((out_ch, 1, 3, 3)).astype(dtype)
        bias = rng.standard_normal(out_ch).astype(dtype)
        for t in (1, per_chunk - 1, per_chunk, per_chunk + 1, 2 * per_chunk + 3):
            x = _with_zeros(rng, (batch, c_in, t, f), dtype)
            assert_same_bytes(conv2d(x, k, bias, stride, (5, 1), groups),
                              oracles.conv2d_per_tap(x, k, bias, stride, (5, 1), groups))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel", [(1, 1), (1, 5), (3, 3)])
    @pytest.mark.parametrize("grouping", ["groups1", "depthwise"])
    def test_signed_zeros_equal_per_tap(self, grouping, kernel, dtype):
        # all-zero input rows make every tap product a signed zero, and the bias
        # holds -0.0 and +0.0: the first tap written straight into the
        # accumulator must still give a zeroed accumulator's signs
        c_in, out_ch, groups = _GROUPINGS[grouping]
        rng = np.random.default_rng(23)
        x = _with_zeros(rng, (1, c_in, 4, 9), dtype)
        x[:, :, 1] = 0.0
        x[:, :, 2] = -0.0
        k = rng.standard_normal((out_ch, c_in // groups, *kernel)).astype(dtype)
        k.reshape(-1)[::3] *= -1
        for bias in (None, np.array([-0.0, 0.0, -0.0, 1.5, -0.0, 0.0][:out_ch], dtype)):
            for stride in ((1, 1), (1, 2)):
                assert_same_bytes(conv2d(x, k, bias, stride, (1, 1), groups),
                                  oracles.conv2d_per_tap(x, k, bias, stride, (1, 1), groups))


class TestConvBoundary:
    @pytest.mark.parametrize("kernel, stride", [((1, 1), (1, 1)), ((1, 5), (1, 2)),
                                                ((3, 2), (2, 3))])
    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    def test_input_kept_and_result_fresh(self, op, kernel, stride):
        # the transposed conv reads reversed views of x, and decode runs
        # PReLU and tanh in place on either conv's result
        rng = np.random.default_rng(24)
        x = rng.standard_normal((2, 4, 5, 9))
        before = x.copy()
        out = op(x, rng.standard_normal((4, 2, *kernel)), np.ones(4), stride, groups=2)
        np.testing.assert_array_equal(x, before)
        assert not np.shares_memory(out, x)
        assert out.flags.c_contiguous and out.flags.writeable

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    @pytest.mark.parametrize("shape", [(2, 2, 3), (2, 2, 1, 1, 1)])
    def test_kernel_not_4d_rejected(self, op, shape):
        with pytest.raises(InvalidInputError, match="4-D kernel"):
            op(np.zeros((1, 2, 4, 5)), np.zeros(shape))

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    def test_input_not_4d_rejected(self, op):
        with pytest.raises(InvalidInputError, match=r"time, freq\], got shape \(2, 4, 5\)"):
            op(np.zeros((2, 4, 5)), np.zeros((2, 2, 1, 3)))

    # conv2d's output channels and conv_transpose2d's input channels
    @pytest.mark.parametrize("op, channels, k_shape, which", [
        (conv2d, 4, (3, 2, 1, 3), "output"),
        (conv_transpose2d, 3, (3, 1, 1, 3), "input"),
    ], ids=["conv2d", "conv_transpose2d"])
    def test_channels_not_divisible_by_groups_rejected(self, op, channels, k_shape, which):
        with pytest.raises(InvalidInputError, match=f"{which} channels must be divisible"):
            op(np.zeros((1, channels, 4, 5)), np.zeros(k_shape), groups=2)

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    @pytest.mark.parametrize("stride", [(1, 0), (0, 1), (-1, 2)])
    def test_stride_below_one_rejected(self, op, stride):
        with pytest.raises(InvalidInputError, match="at least 1"):
            op(np.zeros((1, 2, 4, 5)), np.zeros((2, 2, 1, 3)), stride=stride)

    @pytest.mark.parametrize("dilation", [(0, 1), (1, 0), (-2, 1)])
    def test_dilation_below_one_rejected(self, dilation):
        with pytest.raises(InvalidInputError, match="at least 1"):
            conv2d(np.zeros((1, 2, 4, 5)), np.zeros((2, 2, 3, 3)), dilation=dilation)

    @pytest.mark.parametrize("op", [conv2d, conv_transpose2d])
    @pytest.mark.parametrize("groups", [0, -2])
    def test_groups_below_one_rejected(self, op, groups):
        with pytest.raises(InvalidInputError, match="at least 1"):
            op(np.zeros((1, 2, 4, 5)), np.zeros((2, 2, 1, 3)), groups=groups)

    @pytest.mark.parametrize("stride", [(1, 1), (1, 2), (2, 1)])
    @pytest.mark.parametrize("shape", [(1, 2, 0, 5), (1, 2, 4, 0)], ids=["empty_t", "empty_f"])
    def test_transpose_empty_axis_rejected(self, stride, shape):
        # conv2d rejects these too; before, stride 1 returned an empty array
        # and a larger stride failed inside numpy
        with pytest.raises(InvalidInputError, match="empty"):
            conv_transpose2d(np.zeros(shape), np.zeros((2, 2, 1, 3)), stride=stride)

    @pytest.mark.parametrize("x_shape, k_shape", [
        ((0, 2, 4, 5), (2, 2, 1, 3)),       # empty batch
        ((1, 0, 4, 5), (2, 0, 1, 3)),       # no input channels
        ((1, 2, 0, 5), (2, 2, 1, 3)),       # empty time axis
        ((1, 2, 4, 0), (2, 2, 1, 3)),       # empty frequency axis
        ((1, 2, 4, 5), (2, 2, 0, 3)),       # empty time tap axis
        ((1, 2, 4, 5), (2, 2, 1, 0)),       # empty frequency tap axis
        ((1, 2, 4, 5), (0, 2, 1, 3)),       # no output channels
    ])
    def test_conv2d_empty_axis_rejected(self, x_shape, k_shape):
        # the first four and the tap axes used to fail inside numpy's reshape
        with pytest.raises(InvalidInputError, match="empty"):
            conv2d(np.zeros(x_shape), np.zeros(k_shape), np.zeros(k_shape[0]))

    @pytest.mark.parametrize("x_shape, k_shape", [
        ((0, 2, 4, 5), (2, 2, 1, 3)),       # empty batch
        ((1, 0, 4, 5), (0, 2, 1, 3)),       # no input channels
        ((1, 2, 4, 5), (2, 0, 1, 3)),       # no output channels
        ((1, 2, 4, 5), (2, 2, 0, 3)),       # empty time tap axis
        ((1, 2, 4, 5), (2, 2, 1, 0)),       # empty frequency tap axis
    ])
    def test_transpose_empty_batch_channels_or_taps_rejected(self, x_shape, k_shape):
        # these used to return an empty or all-bias array, or fail in numpy
        with pytest.raises(InvalidInputError, match="empty"):
            conv_transpose2d(np.zeros(x_shape), np.zeros(k_shape), np.ones(k_shape[1]))


class TestBatchNorm:
    def test_input_at_mean_returns_beta(self):
        mean = np.array([1.0, -2.0])
        beta = np.array([0.5, 3.0])
        x = np.broadcast_to(mean[None, :, None, None], (1, 2, 3, 3)).copy()
        out = batch_norm_infer(x, np.ones(2), beta, mean, np.ones(2))
        for c in range(2):
            np.testing.assert_allclose(out[0, c], beta[c], atol=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 4, 3, 6))
        stats = (rng.standard_normal(4), rng.standard_normal(4),
                 rng.standard_normal(4), rng.uniform(0.1, 2.0, 4))
        want = oracles.batch_norm_naive(x, *stats, 1e-5)
        assert rel_linf(batch_norm_infer(x, *stats), want) < 1e-5


class TestActivations:
    def test_prelu_alpha_one_is_identity(self):
        x = np.random.default_rng(12).standard_normal((1, 3, 4, 4))
        np.testing.assert_array_equal(prelu(x, np.ones(3)), x)

    def test_prelu_nonnegative_input_unchanged(self):
        x = np.abs(np.random.default_rng(13).standard_normal((1, 2, 4, 4)))
        np.testing.assert_array_equal(prelu(x, np.full(2, 0.25)), x)

    def test_prelu_matches_naive(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 5, 4))
        alpha = rng.uniform(0.0, 1.0, 3)
        want = oracles.prelu_naive(x, alpha)
        np.testing.assert_array_equal(prelu(x, alpha), want)

    @pytest.mark.parametrize("slope", [-0.5, 0.0, 1.75])
    def test_prelu_special_values_match_naive(self, slope):
        # every nonzero or NaN output carries the naive bits; a zero output
        # can be +0.0 where the naive branch gives -0.0 (from x == -0.0, or
        # from a zero slope times a negative x), so zeros compare by value
        special = [-0.0, 0.0, np.inf, -np.inf, np.nan, -3.0, 2.5, -1e-30]
        x = np.array(special * 2, dtype=np.float32).reshape(1, 2, 1, 8)
        alpha = np.array([slope, 0.25], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # 0 * inf
            got = prelu(x, alpha)
            want = oracles.prelu_naive(x, alpha)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        nonzero = want != 0
        np.testing.assert_array_equal(got.view(np.uint32)[nonzero],
                                      want.view(np.uint32)[nonzero])


    @pytest.mark.parametrize("slopes, one_product", [
        ((0.25, 1.0), True), ((1e-30, 0.5), True), ((1.0, 1.0), True),
        ((1.75, 3.0), False), ((-0.5, 0.25), False), ((0.0, 0.25), False),
        ((0.5, 1.5), False)])
    @pytest.mark.parametrize("in_place", [False, True])
    def test_prelu_every_form_matches_naive(self, slopes, one_product, in_place):
        # ``one_product`` names the form prelu picks from these slopes; it,
        # like the general form, gives the naive bits but for the sign of a zero
        special = [-0.0, 0.0, np.inf, -np.inf, np.nan, -3.0, 2.5, -1e-30]
        x = np.array(special * 2, dtype=np.float32).reshape(1, 2, 1, 8)
        alpha = np.array(slopes, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # 0 * inf
            want = oracles.prelu_naive(x, alpha)
            got = prelu(x, alpha, out=x) if in_place else prelu(x, alpha)
        assert (got is x) == in_place and got.dtype == np.float32
        np.testing.assert_array_equal(got, want)
        nonzero = want != 0
        np.testing.assert_array_equal(got.view(np.uint32)[nonzero],
                                      want.view(np.uint32)[nonzero])

    @pytest.mark.parametrize("slopes", [(0.25, 0.5), (-0.5, 1.5)])
    def test_prelu_in_place_on_a_view(self, slopes):
        base = np.random.default_rng(15).standard_normal((1, 2, 6, 5)).astype(np.float32)
        alpha = np.array(slopes, dtype=np.float32)
        want = base.copy()
        want[:, :, 2:] = oracles.prelu_naive(base[:, :, 2:], alpha)
        view = base[:, :, 2:]
        assert prelu(view, alpha, out=view) is view
        assert base.tobytes() == want.tobytes()


class TestGru:
    @staticmethod
    def random_params(rng, d_in, hidden, scale=0.5):
        return GruParams(w_x=scale * rng.standard_normal((d_in, 3 * hidden)),
                         w_h=scale * rng.standard_normal((hidden, 3 * hidden)),
                         bias=scale * rng.standard_normal(3 * hidden))

    def test_gate_major_layout(self):
        # plane [s, g] holds gate g's columns of GRU s: update, reset, candidate,
        # its last input row the gate's bias, the update and reset planes
        # times 0.5, bias row included
        rng = np.random.default_rng(21)
        w_x, w_h, bias = (rng.standard_normal(shape) for shape in
                          ((2, 3, 12), (2, 4, 12), (2, 12)))
        wx, wh = gru_gate_major(w_x, w_h, bias)
        assert wx.shape == (2, 3, 4, 4) and wh.shape == (2, 3, 4, 4)
        assert wx.flags.c_contiguous and wh.flags.c_contiguous
        for s in range(2):
            for g, scale in enumerate((0.5, 0.5, 1.0)):
                np.testing.assert_array_equal(wx[s, g, :3], scale * w_x[s, :, 4 * g:4 * g + 4])
                np.testing.assert_array_equal(wx[s, g, 3], scale * bias[s, 4 * g:4 * g + 4])
                np.testing.assert_array_equal(wh[s, g], scale * w_h[s, :, 4 * g:4 * g + 4])

    def test_zero_weights_give_zero_outputs(self):
        p = GruParams(w_x=np.zeros((4, 12)), w_h=np.zeros((4, 12)),
                      bias=np.zeros(12))
        x = np.random.default_rng(16).standard_normal((7, 2, 4))
        np.testing.assert_array_equal(gru_sequence(x, p), 0.0)

    def test_single_step_matches_scalar_recurrence(self):
        rng = np.random.default_rng(17)
        p = self.random_params(rng, 3, 2, scale=0.1)
        x = rng.standard_normal((1, 1, 3))
        got = gru_sequence(x, p)
        want = oracles.gru_naive(x, p.w_x, p.w_h, p.bias)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_sequence_matches_naive(self):
        rng = np.random.default_rng(18)
        p = self.random_params(rng, 5, 4)
        x = rng.standard_normal((9, 3, 5))
        got = gru_sequence(x, p)
        want = oracles.gru_naive(x, p.w_x, p.w_h, p.bias)
        assert rel_linf(got, want) < 1e-5

    def test_bidirectional_concatenates(self):
        rng = np.random.default_rng(20)
        pf = self.random_params(rng, 4, 3)
        pb = self.random_params(rng, 4, 3)
        x = rng.standard_normal((5, 2, 4))
        out = gru_sequence(x, (pf, pb), direction="bidirectional")
        assert out.shape == (5, 2, 6)
        np.testing.assert_allclose(out[..., :3], gru_sequence(x, pf), atol=1e-12)
        np.testing.assert_allclose(out[..., 3:], gru_sequence(x[::-1].copy(), pb)[::-1],
                                   atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_scan_matches_separate_naive_runs(self, dtype):
        rng = np.random.default_rng(25)
        s, d_in, hidden = 3, 5, 4
        x = rng.standard_normal((s, 7, 2, d_in)).astype(dtype)
        w_x = (0.5 * rng.standard_normal((s, d_in, 3 * hidden))).astype(dtype)
        w_h = (0.5 * rng.standard_normal((s, hidden, 3 * hidden))).astype(dtype)
        bias = (0.5 * rng.standard_normal((s, 3 * hidden))).astype(dtype)
        got = gru_scan(x, w_x, w_h, bias)
        assert got.shape == (s, 7, 2, hidden)
        assert got.dtype == dtype
        for i in range(s):
            want = oracles.gru_naive(x[i], w_x[i], w_h[i], bias[i])
            assert rel_linf(got[i], want) < 1e-5

    def test_saturated_gates_are_exact_and_silent(self):
        # pre-activations of +-1e4 saturate the logistic to exactly 0 or 1
        # without an overflow warning; GRU 0 keeps its zero state (z = 1),
        # GRU 1 forgets it (z = 0) and resets the recurrence (r = 0)
        hidden = 3
        w_x = np.zeros((2, 2, 3 * hidden), np.float32)
        w_h = np.ones((2, hidden, 3 * hidden), np.float32)
        bias = np.zeros((2, 3 * hidden), np.float32)
        bias[0, :hidden] = 1e4
        bias[1, :2 * hidden] = -1e4
        bias[:, 2 * hidden:] = 0.5
        x = np.ones((2, 4, 1, 2), np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = gru_scan(x, w_x, w_h, bias)
        np.testing.assert_array_equal(out[0], 0.0)
        np.testing.assert_array_equal(out[1], np.tanh(np.float32(0.5)))

    @staticmethod
    def random_stack(rng, s, t_len, batch, d_in, hidden, dtype):
        x = rng.standard_normal((s, t_len, batch, d_in)).astype(dtype)
        weights = [(0.5 * rng.standard_normal(shape)).astype(dtype) for shape in
                   ((s, d_in, 3 * hidden), (s, hidden, 3 * hidden), (s, 3 * hidden))]
        return x, weights

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_split_scan_with_h0_is_one_scan(self, dtype):
        # passing the last step on as h0 continues the scan bit for bit,
        # wherever it is split, one step or several at a time
        rng = np.random.default_rng(26)
        x, weights = self.random_stack(rng, 3, 9, 4, 5, 4, dtype)
        whole = gru_scan(x, *weights)
        for cut in range(10):
            head = gru_scan(x[:, :cut], *weights)
            h0 = head[:, -1] if cut else None
            tail = gru_scan(x[:, cut:], *weights, h0=h0)
            assert np.concatenate([head, tail], axis=1).tobytes() == whole.tobytes()
        h, steps = None, []
        for t in range(9):
            steps.append(gru_scan(x[:, t:t + 1], *weights, h0=h))
            h = steps[-1][:, -1]
        assert np.concatenate(steps, axis=1).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_halved_gate_planes_equal_the_unhalved_step(self, dtype):
        # halving the update and reset planes is exact, so the three-pass
        # logistic gives the four-pass one's bits; and a BLAS gemm that sums
        # each dot product in K order adds the bias row last, as the
        # oracle's separate pass does.  From zeros and from h0, at every
        # input width from 1 to 17, across the kernels' K-unroll edges
        rng = np.random.default_rng(29)
        for batch in (4, 18, 19, 208):
            for d_in in range(1, 18):
                x, weights = self.random_stack(rng, 3, 5, batch, d_in, 6, dtype)
                h0 = rng.standard_normal((3, batch, 6)).astype(dtype)
                for start in (None, h0):
                    got = gru_scan(x, *weights, h0=start)
                    want = oracles.gru_scan_unhalved(x, *weights, h0=start)
                    assert got.tobytes() == want.tobytes(), f"batch {batch}, input {d_in}"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_bias_fold_is_within_rounding(self, dtype):
        # numpy runs a one-row product through gemv, whose OpenBLAS kernels
        # split a dot product over several accumulators, so at batch 1 the
        # bias row can land mid-sum and move the last bits (measured: float64
        # at odd input widths, float32 at widths 3 and 4 with hidden 6)
        rng = np.random.default_rng(30)
        for d_in in range(1, 18):
            x, weights = self.random_stack(rng, 3, 5, 1, d_in, 6, dtype)
            h0 = rng.standard_normal((3, 1, 6)).astype(dtype)
            for start in (None, h0):
                got = gru_scan(x, *weights, h0=start)
                want = oracles.gru_scan_unhalved(x, *weights, h0=start)
                assert rel_linf(got, want) < 4 * np.finfo(dtype).eps, f"input {d_in}"

    @pytest.mark.parametrize("hidden", [32, 16])
    def test_one_row_at_the_model_widths_equals_the_unhalved_step(self, hidden):
        # the network's GRUs (float32, input 8, hidden 32 intra and 16
        # inter) fold the bias exactly even at one row, which a one-frame
        # block gives the intra scan
        rng = np.random.default_rng(31)
        x, weights = self.random_stack(rng, 4, 6, 1, 8, hidden, np.float32)
        h0 = rng.standard_normal((4, 1, hidden)).astype(np.float32)
        for start in (None, h0):
            got = gru_scan(x, *weights, h0=start)
            assert got.tobytes() == oracles.gru_scan_unhalved(x, *weights, h0=start).tobytes()

    def test_zero_h0_is_the_zero_state(self):
        rng = np.random.default_rng(27)
        x, weights = self.random_stack(rng, 2, 5, 3, 4, 6, np.float32)
        h0 = np.zeros((2, 3, 6), np.float32)
        assert gru_scan(x, *weights, h0=h0).tobytes() == gru_scan(x, *weights).tobytes()

    @pytest.mark.parametrize("shape", [(2, 3), (1, 3, 6), (2, 4, 6), (2, 3, 5), (2, 3, 6, 1)])
    def test_h0_wrong_shape_rejected(self, shape):
        rng = np.random.default_rng(28)
        x, weights = self.random_stack(rng, 2, 5, 3, 4, 6, np.float32)
        with pytest.raises(InvalidInputError, match="h0"):
            gru_scan(x, *weights, h0=np.zeros(shape, np.float32))

    def test_empty_sequence(self):
        p = self.random_params(np.random.default_rng(21), 4, 3)
        out = gru_sequence(np.zeros((0, 2, 4)), p)
        assert out.shape == (0, 2, 3)

    def test_unknown_direction_rejected(self):
        p = self.random_params(np.random.default_rng(22), 2, 2)
        with pytest.raises(InvalidInputError):
            gru_sequence(np.zeros((1, 1, 2)), p, direction="sideways")


class TestChannelShuffle:
    """The order of ``oracles.channel_shuffle_naive``, the reference that the
    G-T-conv block and G-DPRNN tests hold the network's shuffle to."""

    def test_single_group_is_identity(self):
        x = np.random.default_rng(23).standard_normal((2, 6, 3, 3))
        np.testing.assert_array_equal(oracles.channel_shuffle_naive(x, 1), x)

    def test_four_channels_two_groups(self):
        x = np.arange(4, dtype=float)[None, :, None, None]
        out = oracles.channel_shuffle_naive(x, 2)
        np.testing.assert_array_equal(out[0, :, 0, 0], [0, 2, 1, 3])

    def test_inverse_restores_order(self):
        rng = np.random.default_rng(24)
        for c, g in [(4, 2), (6, 2), (6, 3), (8, 4)]:
            x = rng.standard_normal((1, c, 2, 2))
            shuffled = oracles.channel_shuffle_naive(x, g)
            np.testing.assert_array_equal(oracles.channel_shuffle_naive(shuffled, c // g), x)

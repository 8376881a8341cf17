"""Mask-refinement network: features, blocks, forward pass, cost accounting."""

import dataclasses
import importlib.util
import inspect
import itertools
import pickle
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hybridse import loss, model, nn, simkit
from hybridse.auxiva import IvaConfig, auxiva_separate, iva_macs_per_second
from hybridse.bands import ErbFilterbank, band_merge, band_split
from hybridse.dsp import PASS_FRAMES, StftConfig, istft, log_power, stft
from hybridse.errors import InvalidInputError, WeightFormatError
from hybridse.model import (DEFAULT_PRESET, PRESETS, ModelConfig, apply_mask,
                            build_features, count_params, decode, encode,
                            enhance, expected_shapes, forward, gdprnn,
                            init_random, macs_breakdown, param_breakdown,
                            preset_config, sfe)


def rand_specs(seed, frames=12, bins=257):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((2, frames, bins)) + 1j * rng.standard_normal((2, frames, bins))
    yi = rng.standard_normal((2, frames, bins)) + 1j * rng.standard_normal((2, frames, bins))
    return y, yi


def zero_block(w, prefix):
    """Zero every kernel and bias under a prefix, leaving BN stats identity."""
    for name, arr in w.items():
        if name.startswith(prefix) and name.rsplit(".", 1)[1] in ("kernel", "bias", "w_x", "w_h"):
            w[name] = np.zeros_like(arr)
    return w


_ABBREV = {"complex": "cplx", "lps": "lps", "s": "s", "s_and_n": "sn",
           "mask1_iva": "m1", "mask2_noisy": "m2", "single": "", "dual": "dual"}


def design_point_id(axes):
    return "-".join(filter(None, (_ABBREV[a] for a in axes)))


class TestConfig:
    def test_presets_resolve(self):
        for name in PRESETS:
            assert isinstance(preset_config(name), ModelConfig)

    def test_unknown_preset(self):
        with pytest.raises(InvalidInputError, match="unknown preset"):
            preset_config("nope")

    @pytest.mark.parametrize("kwargs", [
        {"feature": "mel"},
        {"iva_channels": "both"},
        {"masking": "mask3"},
        {"encoder": "triple"},
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize("field, choices", [
        ("feature", "('complex', 'lps')"),
        ("iva_channels", "('s', 's_and_n')"),
        ("masking", "('mask1_iva', 'mask2_noisy')"),
        ("encoder", "('single', 'dual')"),
    ])
    def test_invalid_field_message(self, field, choices):
        # every later field is invalid too: the first in field order is named
        names = [f.name for f in dataclasses.fields(ModelConfig)]
        bad = {name: "x" for name in names[names.index(field):]}
        with pytest.raises(InvalidInputError) as err:
            ModelConfig(**bad)
        assert str(err.value) == f"{field} must be one of {choices}"

    def test_settable_fields(self):
        def init_fields(cls):
            return [f.name for f in dataclasses.fields(cls) if f.init]

        assert init_fields(ModelConfig) == ["feature", "iva_channels", "masking", "encoder"]
        assert init_fields(StftConfig) == []
        assert init_fields(IvaConfig) == ["iterations"]
        assert init_fields(ErbFilterbank) == []
        assert init_fields(simkit.SceneConstraints) == []
        assert init_fields(simkit.Rir) == ["taps", "direct_path_index"]
        assert dataclasses.fields(StftConfig) == ()
        assert dataclasses.fields(ErbFilterbank) == ()
        assert dataclasses.fields(simkit.SceneConstraints) == ()

    @pytest.mark.parametrize("fn, params", [pytest.param(*case, id=case[0].__name__) for case in [
        (enhance, ["wave", "w", "cfg", "iva_cfg", "use_iva"]),
        (macs_breakdown, ["cfg", "iva_cfg"]),
        (nn.conv2d, ["x", "kernel", "bias", "stride", "dilation", "groups"]),
        (nn.conv_transpose2d, ["x", "kernel", "bias", "stride", "groups"]),
        (nn.batch_norm_infer, ["x", "gamma", "beta", "mean", "var"]),
        (nn.gru_scan, ["x", "w_x", "w_h", "bias", "h0"]),
        (forward, ["y", "y_iva", "w", "cfg"]),
        (iva_macs_per_second, ["cfg"]),
        (log_power, ["spec"]),
        (simkit.early_target, ["speech", "rir"]),
        (simkit.image_rir, ["scene"]),
        (loss.mag_loss, ["est_spec", "ref_spec"]),
        (loss.real_loss, ["est_spec", "ref_spec"]),
        (loss.imag_loss, ["est_spec", "ref_spec"]),
    ]])
    def test_parameters_pinned(self, fn, params):
        # the STFT geometry, causal time padding, the log-power floor, the
        # early-target window, the image order and the loss compression are
        # fixed, not options
        assert list(inspect.signature(fn).parameters) == params

    def test_feature_plane_counts(self):
        assert ModelConfig(feature="lps", iva_channels="s_and_n").feature_planes == 6
        assert ModelConfig(feature="complex", iva_channels="s").feature_planes == 6
        assert ModelConfig(feature="lps", iva_channels="s").feature_planes == 5
        assert ModelConfig(feature="complex", iva_channels="s_and_n").feature_planes == 8


class TestBuildFeatures:
    def test_noisy_planes_pass_through(self):
        y, yi = rand_specs(0)
        feats = build_features(y, yi, ModelConfig())
        assert feats.dtype == np.float32
        np.testing.assert_allclose(feats[0], y[0].real, atol=1e-6)
        np.testing.assert_allclose(feats[1], y[0].imag, atol=1e-6)
        np.testing.assert_allclose(feats[2], y[1].real, atol=1e-6)
        np.testing.assert_allclose(feats[3], y[1].imag, atol=1e-6)

    def test_lps_planes(self):
        y, yi = rand_specs(1)
        feats = build_features(y, yi, ModelConfig(feature="lps", iva_channels="s_and_n"))
        assert feats.shape[0] == 6
        np.testing.assert_allclose(feats[4], log_power(yi[0]), atol=1e-5)
        np.testing.assert_allclose(feats[5], log_power(yi[1]), atol=1e-5)

    def test_complex_planes(self):
        y, yi = rand_specs(2)
        feats = build_features(y, yi, ModelConfig(feature="complex", iva_channels="s"))
        assert feats.shape[0] == 6
        np.testing.assert_allclose(feats[4], yi[0].real, atol=1e-6)
        np.testing.assert_allclose(feats[5], yi[0].imag, atol=1e-6)

    def test_shape_mismatch_rejected(self):
        y, yi = rand_specs(3)
        with pytest.raises(InvalidInputError):
            build_features(y, yi[:, :-1], ModelConfig())
        with pytest.raises(InvalidInputError):
            build_features(y[0], yi[0], ModelConfig())

    @pytest.mark.parametrize("feature", ["lps", "complex"])
    def test_plane_beyond_float32_rejected(self, feature):
        y, yi = rand_specs(4)
        yi[1, 3, 7] = -1e39 + 1j
        cfg = ModelConfig(feature=feature, iva_channels="s_and_n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="float32"):
                build_features(1e38 * y if feature == "lps" else y, yi, cfg)


    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_equals_stack_and_cast(self, preset):
        # the plane-by-plane fill against the stack-and-cast it replaced
        cfg = PRESETS[preset]
        y, yi = rand_specs(5, frames=19)
        for specs in ((y, yi), (y.real.copy(), yi.real.copy()),
                      (y.astype(np.complex64), yi.astype(np.complex64))):
            got = build_features(*specs, cfg)
            assert got.dtype == np.float32
            assert got.tobytes() == oracles.build_features_stacked(*specs, cfg).tobytes()

    # (feature, spectrogram, channel, part): a noisy Re or Im plane of either
    # channel, an IVA Re or Im plane, or an IVA log-power plane
    @pytest.mark.parametrize("plane", [
        ("lps", 0, 0, "re"), ("lps", 0, 1, "im"), ("complex", 0, 1, "re"),
        ("complex", 1, 0, "re"), ("complex", 1, 1, "im"), ("lps", 1, 0, "re"),
        ("lps", 1, 1, "im")])
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "loud"])
    def test_bad_plane_rejected_without_warning(self, plane, bad):
        feature, spec, ch, part = plane
        # a log-power plane leaves the float32 range only where |Y|^2
        # overflows float64
        loud = 1e200 if (feature, spec) == ("lps", 1) else -1e39
        value = loud if bad == "loud" else float(bad)
        specs = rand_specs(6)
        specs[spec][ch, 4, 100] = complex(value, 0.5) if part == "re" else complex(0.5, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="float32"):
                build_features(*specs, ModelConfig(feature=feature, iva_channels="s_and_n"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("feature", ["lps", "complex"])
    def test_non_finite_bin_rejected_by_forward(self, bad, feature):
        # NaN compares false against any limit, so the check must fail it
        cfg = ModelConfig(feature=feature, iva_channels="s_and_n")
        w = init_random(cfg, 0)
        for spec, value in ((0, bad), (1, complex(0.5, bad))):   # noisy Re, IVA Im
            specs = rand_specs(8)
            specs[spec][1, 5, 40] = value
            with pytest.raises(InvalidInputError, match="float32"):
                forward(*specs, w, cfg)


class TestSfe:
    def test_kernel_one_identity(self):
        x = np.random.default_rng(0).standard_normal((2, 3, 4, 9)).astype(np.float32)
        np.testing.assert_array_equal(sfe(x, 1), x)

    def test_small_example_by_hand(self):
        x = np.arange(5, dtype=np.float32).reshape(1, 1, 1, 5)
        out = sfe(x, 3)
        assert out.shape == (1, 3, 1, 5)
        np.testing.assert_array_equal(out[0, 0, 0], [0, 0, 1, 2, 3])  # left neighbor
        np.testing.assert_array_equal(out[0, 1, 0], [0, 1, 2, 3, 4])  # center
        np.testing.assert_array_equal(out[0, 2, 0], [1, 2, 3, 4, 4])  # right neighbor

    def test_matches_gather_oracle(self):
        x = np.random.default_rng(1).standard_normal((2, 6, 5, 129)).astype(np.float32)
        for kernel in (1, 3, 5):
            np.testing.assert_array_equal(sfe(x, kernel),
                                          oracles.sfe_naive(x, kernel))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_gather_bytes(self, dtype):
        # the slice copies against the gather and transpose they replaced,
        # down to bands fewer than the kernel's reach
        rng = np.random.default_rng(2)
        for bands in (1, 2, 3, 129):
            x = rng.standard_normal((2, 3, 4, bands)).astype(dtype)
            for kernel in (1, 3, 5):
                assert sfe(x, kernel).tobytes() == oracles.sfe_gather(x, kernel).tobytes()

    def test_bad_kernel_rejected(self):
        x = np.zeros((1, 1, 1, 5), np.float32)
        for kernel in (0, 2, 4):
            with pytest.raises(InvalidInputError):
                sfe(x, kernel)
        with pytest.raises(InvalidInputError):
            sfe(np.zeros((1, 1, 5), np.float32), 3)


def blocks_at(dilation):
    """The G-T-conv blocks whose depthwise conv dilates time by ``dilation``."""
    return [layer.rpartition(".")[0] for layer, *_, op in model._layers(ModelConfig())
            if layer.endswith(".dwconv") and op.keywords["dilation"] == (dilation, 1)]


class TestGtconvBlock:
    def test_table_dilations_cover_all_six_blocks(self):
        # enc.gt0-2 dilate time by 1, 2, 5; the decoder mirrors them
        assert [blocks_at(d) for d in (1, 2, 5)] == [
            ["enc.gt0", "dec.gt2"], ["enc.gt1", "dec.gt1"], ["enc.gt2", "dec.gt0"]]

    def test_zero_transform_leaves_shuffled_half_identity(self):
        cfg = ModelConfig()
        x = np.random.default_rng(2).standard_normal((1, 16, 6, 33)).astype(np.float32)
        expect = oracles.channel_shuffle_naive(
            np.concatenate([x[:, :8], np.zeros_like(x[:, :8])], axis=1), 2)
        for block in blocks_at(1) + blocks_at(2) + blocks_at(5):
            plan = model.prepare(zero_block(init_random(cfg, 0), block), cfg)
            np.testing.assert_array_equal(model._gtconv_block(x, plan, block), expect)

    @pytest.mark.parametrize("shape", [(1, 16, 6, 33), (2, 16, 9, 33), (1, 16, 1, 5)])
    def test_interleave_equals_concatenate_then_shuffle(self, shape):
        # the block writes both halves straight into the shuffled order; the
        # reference runs the plan's conv tensors, their batch norms folded in
        cfg = ModelConfig()
        w = init_random(cfg, 7)
        x = np.random.default_rng(8).standard_normal(shape).astype(np.float32)
        plan = model.prepare(w, cfg)
        folded = {layer: tensors for block, steps in plan.blocks
                  if block == "enc.gt1" for layer, _, tensors, _ in steps}

        def conv_prelu(t, conv, prelu, **kwargs):
            t = nn.conv2d(t, *folded[f"enc.gt1.{conv}"], **kwargs)
            return nn.prelu(t, w[f"enc.gt1.{prelu}.alpha"])

        t = conv_prelu(x[:, 8:], "pconv1", "prelu1")
        t = conv_prelu(t, "dwconv", "prelu2", dilation=(2, 1), groups=16)
        t = nn.conv2d(t, w["enc.gt1.pconv2.kernel"], w["enc.gt1.pconv2.bias"])
        want = oracles.channel_shuffle_naive(np.concatenate([x[:, :8], t], axis=1), 2)
        got = model._gtconv_block(x, plan, "enc.gt1")
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_shape_preserved(self, dilation):
        cfg = ModelConfig()
        plan = model.prepare(init_random(cfg, 3), cfg)
        x = np.random.default_rng(4).standard_normal((2, 16, 9, 33)).astype(np.float32)
        for block in blocks_at(dilation):
            assert model._gtconv_block(x, plan, block).shape == x.shape

    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_causal_in_time(self, dilation):
        cfg = ModelConfig()
        plan = model.prepare(init_random(cfg, 5), cfg)
        x = np.random.default_rng(6).standard_normal((1, 16, 12, 33)).astype(np.float32)
        x2 = x.copy()
        x2[:, :, 7:] += 1.0
        for block in blocks_at(dilation):
            a = model._gtconv_block(x, plan, block)
            b = model._gtconv_block(x2, plan, block)
            np.testing.assert_array_equal(a[:, :, :7], b[:, :, :7])

    def test_odd_channels_rejected(self):
        cfg = ModelConfig()
        plan = model.prepare(init_random(cfg, 0), cfg)
        with pytest.raises(InvalidInputError):
            model._gtconv_block(np.zeros((1, 15, 4, 33), np.float32), plan, "enc.gt0")

    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_carried_depthwise_row_equals_whole_conv(self, dilation):
        # the frames kept from the blocks before stand in for the causal
        # zero padding, also when a block is shorter than the padding
        cfg = ModelConfig()
        w = init_random(cfg, 13)
        x = np.random.default_rng(14).standard_normal((2, 16, 23, 33)).astype(np.float32)
        for block in blocks_at(dilation):
            layer = f"{block}.dwconv"
            op = next(row[-1] for row in model._layers(cfg) if row[0] == layer)
            tensors = (w[f"{layer}.kernel"], w[f"{layer}.bias"])
            whole = op(x, *tensors)
            for cuts in ([11], [1], [1, 2, 3, 15], list(range(1, 23))):
                state = {}
                parts = [model._carry(op, x[:, :, a:b], tensors, state, layer)
                         for a, b in zip([0] + cuts, cuts + [23])]
                assert np.concatenate(parts, axis=2).tobytes() == whole.tobytes()
                assert state[layer].shape[2] == 2 * dilation

    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_carried_block_equals_whole_block(self, dilation):
        cfg = ModelConfig()
        plan = model.prepare(init_random(cfg, 15), cfg)
        x = np.random.default_rng(16).standard_normal((1, 16, 20, 33)).astype(np.float32)
        for block in blocks_at(dilation):
            state = {}
            parts = [model._gtconv_block(x[:, :, a:b], plan, block, state)
                     for a, b in ((0, 3), (3, 12), (12, 20))]
            assert list(state) == [f"{block}.dwconv"]
            assert (np.concatenate(parts, axis=2).tobytes()
                    == model._gtconv_block(x, plan, block).tobytes())


class TestEncodeDecode:
    def test_encoder_band_trace(self):
        cfg = ModelConfig()
        w = init_random(cfg, 1)
        x = np.random.default_rng(0).standard_normal(
            (1, 3 * cfg.feature_planes, 7, 129)).astype(np.float32)
        latent, skip = encode(x, w, cfg)
        assert latent.shape == (1, 16, 7, 33)     # 129 -> 65 -> 33 bands
        assert skip is latent

    def test_zero_weights_zero_latent(self):
        cfg = ModelConfig()
        w = init_random(cfg, 1)
        for name, arr in w.items():
            if name.rsplit(".", 1)[1] in ("kernel", "bias"):
                w[name] = np.zeros_like(arr)
        x = np.random.default_rng(1).standard_normal((1, 18, 4, 129)).astype(np.float32)
        latent, _ = encode(x, w, cfg)
        np.testing.assert_array_equal(latent, 0.0)

    def test_input_not_4d_rejected(self):
        cfg = ModelConfig()
        with pytest.raises(InvalidInputError, match=r"got \(18, 4, 129\)"):
            encode(np.zeros((18, 4, 129), np.float32), init_random(cfg, 1), cfg)

    def test_dual_encoder_shapes(self):
        cfg = ModelConfig(encoder="dual")
        w = init_random(cfg, 2)
        x = np.random.default_rng(2).standard_normal((1, 18, 5, 129)).astype(np.float32)
        latent, _ = encode(x, w, cfg)
        assert latent.shape == (1, 16, 5, 33)

    def test_decode_band_trace_and_range(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        z = np.random.default_rng(7).standard_normal((1, 16, 4, 33)).astype(np.float32)
        out = decode(z, w, cfg)
        assert out.shape == (1, 2, 4, 129)   # 33 -> 65 -> 129 bands
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_decode_golden_regression(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        rng = np.random.default_rng(3)
        for _ in range(4):                  # values recorded after these draws
            rng.standard_normal((2, 12, 257))
        z = rng.standard_normal((1, 16, 4, 33)).astype(np.float32)
        out = decode(z, w, cfg)
        assert out.mean() == pytest.approx(0.0403065719, abs=1e-7)
        assert out.std() == pytest.approx(0.1103074178, abs=1e-7)


class TestGdprnn:
    def test_zero_weights_residual_identity(self):
        cfg = ModelConfig()
        w = zero_block(init_random(cfg, 0), "dprnn")
        x = np.random.default_rng(8).standard_normal((1, 16, 5, 33)).astype(np.float32)
        np.testing.assert_array_equal(gdprnn(x, w, cfg), x)

    def test_shape_preserved(self):
        cfg = ModelConfig()
        w = init_random(cfg, 9)
        x = np.random.default_rng(9).standard_normal((2, 16, 6, 33)).astype(np.float32)
        assert gdprnn(x, w, cfg).shape == x.shape

    def test_causal_over_time(self):
        cfg = ModelConfig()
        w = init_random(cfg, 10)
        x = np.random.default_rng(10).standard_normal((1, 16, 10, 33)).astype(np.float32)
        x2 = x.copy()
        x2[:, :, 6:] *= -1.0
        a = gdprnn(x, w, cfg)
        b = gdprnn(x2, w, cfg)
        np.testing.assert_array_equal(a[:, :, :6], b[:, :, :6])

    def test_matches_per_group_naive_composition(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        x = np.random.default_rng(11).standard_normal((1, 16, 3, 33)).astype(np.float32)
        got = gdprnn(x, w, cfg)
        want = oracles.gdprnn_naive(x, w, cfg.dprnn_groups)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5

    def test_preserves_float32(self):
        cfg = ModelConfig()
        w = init_random(cfg, 12)
        x = np.random.default_rng(12).standard_normal((2, 16, 4, 33)).astype(np.float32)
        assert gdprnn(x, w, cfg).dtype == np.float32

    def test_indivisible_channels_rejected(self):
        cfg = ModelConfig()
        w = init_random(cfg, 0)
        with pytest.raises(InvalidInputError):
            gdprnn(np.zeros((1, 15, 4, 33), np.float32), w, cfg)

    def test_carried_inter_state_equals_one_call(self):
        # only the inter GRU's hidden state crosses a block boundary; the
        # intra path is zeroed to the identity, because its GRU rounds a
        # one-frame batch differently in BLAS
        cfg = ModelConfig()
        w = zero_block(init_random(cfg, 17), "dprnn.intra")
        x = np.random.default_rng(17).standard_normal((1, 16, 10, 33)).astype(np.float32)
        state = {}
        parts = [gdprnn(x[:, :, a:b], w, cfg, state) for a, b in ((0, 1), (1, 6), (6, 10))]
        assert list(state) == ["dprnn.inter"]
        assert state["dprnn.inter"].shape == (cfg.dprnn_groups, 33, cfg.inter_hidden)
        assert np.concatenate(parts, axis=2).tobytes() == gdprnn(x, w, cfg).tobytes()

    @pytest.mark.parametrize("frames", [1, 2, 208])
    def test_stepwise_projection_equals_the_collected_scan(self, frames):
        # each scan step is projected as it comes, and the scan's states are
        # never held whole; the bytes are those of projecting the whole
        # collected scan, from zeros and from a carried state, at an odd
        # (33 bands) and at an even and an odd frame count
        cfg = ModelConfig()
        plan = model.prepare(_PRESET_WEIGHTS[DEFAULT_PRESET], cfg)
        rng = np.random.default_rng(frames)
        for path, perm in (("dprnn.intra", (1, 4, 0, 3, 2)), ("dprnn.inter", (1, 3, 0, 4, 2))):
            got_state, want_state = {}, {}
            for _ in range(2):
                x = rng.standard_normal((1, 16, frames, 33)).astype(np.float32)
                got = model._dprnn_path(x, plan, path, perm, got_state)
                assert got.tobytes() == collected_path(x, plan, path, perm, want_state).tobytes()
            assert got_state[path].tobytes() == want_state[path].tobytes()


def collected_path(x, plan, path, perm, state):
    """``model._dprnn_path`` with the whole scan collected by
    ``nn.gru_scan_gate_major`` and then projected in one product per
    direction, the backward one reversed onto the forward one."""
    b, c, t, f = x.shape
    groups = plan.cfg.dprnn_groups
    gw = c // groups
    w_x, w_h, k, proj_bias = dict(plan.paths)[path]
    directions = k.shape[1]
    seq = x.reshape(b, groups, gw, t, f).transpose(perm)
    _, n_scan, _, n_other, _ = seq.shape
    xa = np.empty((groups, directions, n_scan, b, n_other, gw + 1), dtype=x.dtype)
    xa[:, 0, ..., :gw] = seq
    if directions == 2:
        xa[:, 1, ..., :gw] = seq[:, ::-1]
    xa[..., gw] = 1
    h = nn.gru_scan_gate_major(xa.reshape(groups * directions, n_scan, b * n_other, gw + 1),
                               w_x, w_h, h0=state.get(path))
    state[path] = h[:, -1].copy()
    h = h.reshape(groups, directions, *h.shape[1:])
    p = np.matmul(h[:, 0], k[:, 0])
    if directions == 2:
        p += np.matmul(h[:, 1], k[:, 1])[:, ::-1]
    p += proj_bias
    p = p.reshape(groups, n_scan, b, n_other, gw)
    shuffled = p.transpose([perm.index(a) for a in (0, 2, 1, 3, 4)])
    return (x.reshape(b, gw, groups, t, f) + shuffled).reshape(b, c, t, f)


class TestForward:
    def test_shape_range_determinism(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        y, yi = rand_specs(3)
        m1 = forward(y, yi, w, cfg)
        m2 = forward(y, yi, w, cfg)
        assert m1.shape == (2, 12, 257)
        assert np.all(np.abs(m1) < 1.0)
        np.testing.assert_array_equal(m1, m2)

    def test_golden_regression(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        y, yi = rand_specs(3)
        m = forward(y, yi, w, cfg)
        assert m.mean() == pytest.approx(0.0424940311, abs=1e-7)
        assert m.std() == pytest.approx(0.0427335031, abs=1e-7)
        np.testing.assert_allclose(
            m[0, 5, 100:104],
            [0.089543663, 0.0391555429, 0.0391555429, 0.0391555429], atol=1e-7)

    def test_causal_end_to_end(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        y, yi = rand_specs(3)
        y2, yi2 = y.copy(), yi.copy()
        y2[:, 8:] += 1.0
        yi2[:, 8:] -= 0.5
        a = forward(y, yi, w, cfg)
        b = forward(y2, yi2, w, cfg)
        np.testing.assert_array_equal(a[:, :8], b[:, :8])

    def test_works_for_every_preset(self):
        y, yi = rand_specs(4, frames=5)
        for name, cfg in PRESETS.items():
            m = forward(y, yi, init_random(cfg, 0), cfg)
            assert m.shape == (2, 5, 257), name

    # all 16 points of the design space, named as the presets are
    @pytest.mark.parametrize("axes", list(itertools.product(
        ("complex", "lps"), ("s", "s_and_n"), ("mask1_iva", "mask2_noisy"),
        ("single", "dual"))), ids=design_point_id)
    def test_reads_exactly_the_inventory(self, axes):
        class Recording(dict):
            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

        read = set()
        cfg = ModelConfig(*axes)
        w = Recording(init_random(cfg, 0))
        mask = forward(*rand_specs(4, frames=3), w, cfg)
        assert read == set(expected_shapes(cfg))
        assert np.all(np.isfinite(mask))

    # a dict is held to the inventory that a weight file is held to
    @pytest.mark.parametrize("name, value, message", [
        ("enc.conv1.bias", None, "missing tensor 'enc.conv1.bias'"),
        ("enc.bn1.gamma", np.ones(17, np.float32),
         r"tensor 'enc.bn1.gamma' has shape \(17,\), expected \(16,\)"),
        ("enc.prelu1.alpha", np.ones(1, np.float32),
         r"tensor 'enc.prelu1.alpha' has shape \(1,\), expected \(16,\)"),
        ("enc.conv1.kernel", np.nan, "tensor 'enc.conv1.kernel' contains non-finite values"),
        ("enc.conv9.bias", np.ones(16, np.float32), "unexpected tensor 'enc.conv9.bias'")],
        ids=["missing", "wrong-shape", "one-slope", "nan", "unexpected"])
    def test_dict_outside_the_inventory_rejected(self, name, value, message):
        cfg = ModelConfig()
        w = init_random(cfg, 0)
        if value is None:
            del w[name]
        elif np.isscalar(value):
            w[name] = w[name].copy()
            w[name].flat[7] = value
        else:
            w[name] = value
        with pytest.raises(WeightFormatError, match=message):
            forward(*rand_specs(4, frames=3), w, cfg)


_PRESET_WEIGHTS = {name: init_random(cfg, 0) for name, cfg in PRESETS.items()}


def one_block_mask(y, yi, w, cfg):
    """The mask of the whole input run as one block from the zero state, in
    ``forward``'s float64: the public ``build_features``, ``band_merge``,
    ``sfe``, ``encode``, ``gdprnn``, ``decode`` and ``band_split`` over every
    frame at once, with ``state=None``."""
    x = sfe(band_merge(build_features(y, yi, cfg))[None], cfg.sfe_kernel)
    latent, skip = encode(x, w, cfg)
    z = gdprnn(latent, w, cfg)
    z += skip
    return band_split(decode(z, w, cfg))[0].astype(np.float64)


class TestBlockedForward:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @settings(max_examples=15, deadline=None)
    @given(frames=st.integers(1, 40), cuts=st.lists(st.integers(1, 39), max_size=6),
           seed=st.integers(0, 2 ** 16))
    @example(frames=33, cuts=[7, 14, 21, 28], seed=0)
    @example(frames=12, cuts=[1, 2, 3], seed=1)
    def test_any_block_split_gives_the_one_block_mask(self, preset, frames, cuts, seed):
        # tiny blocks may round differently in BLAS, so the bound is the
        # oracle's, not byte identity
        cfg = PRESETS[preset]
        w = _PRESET_WEIGHTS[preset]
        y, yi = rand_specs(seed, frames=frames)
        edges = sorted({0, frames, *(c for c in cuts if c < frames)})
        plan, state = model.prepare(w, cfg), {}
        blocked = np.concatenate([model._forward_block(y, slice(a, b), lambda f: yi[:, f],
                                                       plan, state)
                                  for a, b in zip(edges, edges[1:])], axis=1)
        whole = one_block_mask(y, yi, w, cfg)
        assert blocked.shape == whole.shape == (2, frames, 257)
        assert np.max(np.abs(blocked - whole)) / np.max(np.abs(whole)) < 1e-5

    @pytest.mark.parametrize("frames, lengths", [
        (1, [1]), (256, [256]), (257, [128, 129]), (625, [208, 208, 209]),
        (769, [192, 192, 192, 193])])
    def test_blocks_are_near_equal(self, frames, lengths, monkeypatch):
        seen = []
        block = model._forward_block

        def recording(y, frames, *args):
            seen.append(frames.stop - frames.start)
            return block(y, frames, *args)

        monkeypatch.setattr(model, "_forward_block", recording)
        cfg = ModelConfig()
        forward(*rand_specs(21, frames=frames), init_random(cfg, 0), cfg)
        assert seen == lengths

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("use_iva", [True, False])
    def test_production_blocks_are_byte_identical(self, preset, use_iva):
        # a 10 s scene is 625 frames, three blocks
        cfg = PRESETS[preset]
        w = _PRESET_WEIGHTS[preset]
        rng = np.random.default_rng(18)
        wave = rng.standard_normal((2, 2)) @ np.stack(
            [rng.laplace(size=10 * 16000), rng.standard_normal(10 * 16000)])
        r = enhance(0.05 * wave, w, cfg, use_iva=use_iva)
        assert r.used_iva == use_iva and r.mask.shape == (2, 625, 257)
        whole = one_block_mask(r.noisy_spec, r.iva_spec, w, cfg)
        assert r.mask.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("use_iva", [True, False], ids=["iva", "no_iva"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_pass_block_front_gives_the_whole_block_composition(self, preset, use_iva):
        # a block's front (IVA spectrum, features, merge, SFE and the
        # strided convs of each encoder branch) runs 64 frames at a time,
        # the IVA spectrum demixed per piece by enhance and sliced per
        # piece by forward; the mask is the whole-block composition's, at
        # one piece and across the piece edges of 65, 128, 129, 208 and 256
        cfg = PRESETS[preset]
        w = _PRESET_WEIGHTS[preset]
        for frames in (18, 19, 64, 65, 128, 129, 208, 256):
            n = frames * 256 - 100
            rng = np.random.default_rng(frames)
            wave = 0.05 * rng.standard_normal((2, 2)) @ np.stack(
                [rng.laplace(size=n), rng.standard_normal(n)])
            r = enhance(wave, w, cfg, IvaConfig(iterations=3), use_iva)
            assert r.used_iva == use_iva and r.mask.shape == (2, frames, 257)
            whole = one_block_mask(r.noisy_spec, r.iva_spec, w, cfg)
            assert r.mask.tobytes() == whole.tobytes()
            y, yi = rand_specs(frames, frames=frames)
            assert forward(y, yi, w, cfg).tobytes() == one_block_mask(y, yi, w, cfg).tobytes()

    @pytest.mark.parametrize("frames, pieces", [
        (18, [18]), (64, [64]), (65, [32, 33]), (129, [43, 43, 43]), (208, [52] * 4),
        (256, [64] * 4), (625, [52] * 11 + [53])])
    def test_front_pieces_are_near_equal(self, frames, pieces, monkeypatch):
        # no piece of a block over 64 frames is shorter than 32 frames, so
        # none reaches the band merge's 18-row rounding; enhance demixes
        # both IVA sources of each piece and of nothing longer
        seen, demixed = [], []
        front, call = model._front, model.Demixer.__call__

        def recording_front(y, piece, *args):
            seen.append(piece.stop - piece.start)
            return front(y, piece, *args)

        def recording_demixer(demixer, spec, sources=2):
            if sources == 2:
                demixed.append(spec.shape[1])
            return call(demixer, spec, sources)

        monkeypatch.setattr(model, "_front", recording_front)
        monkeypatch.setattr(model.Demixer, "__call__", recording_demixer)
        cfg = ModelConfig()
        n = frames * 256 - 100
        wave = 0.05 * np.random.default_rng(frames).standard_normal((2, n))
        enhance(wave, _PRESET_WEIGHTS[DEFAULT_PRESET], cfg, IvaConfig(iterations=1))
        assert seen == pieces
        assert demixed[-len(pieces):] == pieces and max(demixed) <= 64

    @pytest.mark.parametrize("frames", [1, 255, 256, 257, 270, 513, 530])
    def test_block_edges(self, frames):
        # with fixed 256-frame blocks, 257, 270, 513 and 530 frames would
        # end in a block of 1 or 14 frames, which rounded differently
        cfg = ModelConfig()
        w = init_random(cfg, 19)
        y, yi = rand_specs(19, frames=frames)
        assert forward(y, yi, w, cfg).tobytes() == one_block_mask(y, yi, w, cfg).tobytes()

    def test_memory_flat_in_input_length(self):
        # beyond its output mask, forward's traced peak above entry does not
        # grow from a 20 s to a 60 s input; one call over every frame at once
        # grew by about 110 MB
        cfg = ModelConfig()
        w = init_random(cfg, 0)

        def growth(seconds):
            frames = int(seconds * StftConfig.frames_per_second)
            y, _ = rand_specs(20, frames=frames)
            tracemalloc.start()
            try:
                entry = tracemalloc.get_traced_memory()[0]
                mask = forward(y, y, w, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - entry, mask.nbytes

        (short, short_mask), (long, long_mask) = growth(20), growth(60)
        assert long - short <= (long_mask - short_mask) + (1 << 20)


def with_random_norms(cfg, seed):
    """Seed-0 weights with every batch norm statistic and PReLU slope drawn
    per channel by ``scripts/fingerprint.py``'s ``with_norms``, which its
    ``norms`` artifacts use too; the slopes lie in (-0.5, 1.5), below 0 and
    above 1 too."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "fingerprint.py"
    spec = importlib.util.spec_from_file_location("fingerprint", script)
    fingerprint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fingerprint)
    return fingerprint.with_norms(init_random(cfg, 0), seed)


def unfused_mask(y, yi, w, cfg):
    """The mask of the whole input as one block, composed from the layer
    table's rows one ``nn`` call each: every conv or transposed conv, then
    its ``nn.batch_norm_infer`` and its ``nn.prelu`` as passes of their
    own.  The G-DPRNN, which has neither, is ``gdprnn``'s."""
    rows = model._layers(cfg)

    def run(x, prefix):
        done = set()
        for layer, leaves, *_, op in rows:
            block = layer.rpartition(".")[0]
            if block == prefix and op is not None:
                x = op(x, *(w[f"{layer}.{leaf}"] for leaf in leaves))
            elif block.startswith(f"{prefix}.gt") and block not in done:
                done.add(block)
                half = x.shape[1] // 2
                x = oracles.channel_shuffle_naive(
                    np.concatenate([x[:, :half], run(x[:, half:], block)], axis=1), 2)
        return x

    x = sfe(band_merge(build_features(y, yi, cfg)).astype(np.float32)[None], cfg.sfe_kernel)
    if cfg.encoder == "dual":
        n_main = 4 * cfg.sfe_kernel
        x = np.concatenate([run(x[:, :n_main], "enc.main"), run(x[:, n_main:], "enc.aux")],
                           axis=1)
    latent = run(x, "enc")
    return band_split(np.tanh(run(gdprnn(latent, w, cfg) + latent, "dec")))[0]


class TestPrepare:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_folded_forward_matches_unfused_composition(self, preset):
        cfg = PRESETS[preset]
        w = with_random_norms(cfg, 23)
        y, yi = rand_specs(24, frames=9)
        got = forward(y, yi, w, cfg)
        want = unfused_mask(y, yi, w, cfg)
        assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-5

    def test_leaves_read_only_seeded_arrays_unmodified(self):
        cfg = ModelConfig()
        w = init_random(cfg, 0)
        for tensor in w.values():
            tensor.flags.writeable = False
        before = {name: tensor.copy() for name, tensor in w.items()}
        model.prepare(w, cfg)
        for name, tensor in w.items():
            assert not tensor.flags.writeable
            assert tensor.tobytes() == before[name].tobytes()

    def test_plan_keeps_no_reference_to_the_dict(self):
        cfg = ModelConfig()
        w = init_random(cfg, 3)
        y, yi = rand_specs(25, frames=5)
        plan = model.prepare(w, cfg)
        want = forward(y, yi, plan, cfg)
        for tensor in w.values():
            tensor[...] = 0
        assert forward(y, yi, plan, cfg).tobytes() == want.tobytes()

    def test_plan_arrays_are_read_only(self):
        plan = model.prepare(init_random(ModelConfig(), 0), ModelConfig())
        arrays = list(plan.arrays())
        # 22 conv rows' kernel and bias, 15 PReLUs' slopes, 2 paths of 4
        assert len(arrays) == 2 * 22 + 15 + 2 * 4
        assert not any(t.flags.writeable for t in arrays)

    def test_applied_to_a_plan_returns_that_plan(self):
        cfg = ModelConfig()
        plan = model.prepare(init_random(cfg, 0), cfg)
        assert model.prepare(plan, cfg) is plan
        with pytest.raises(InvalidInputError, match="prepared for"):
            model.prepare(plan, preset_config("lps-s-m2"))

    @pytest.mark.parametrize("preset", ["lps-sn-m2", "lps-sn-m2-dual"])
    def test_plan_pickles(self, preset):
        cfg = PRESETS[preset]
        plan = model.prepare(with_random_norms(cfg, 26), cfg)
        y, yi = rand_specs(27, frames=6)
        copy = pickle.loads(pickle.dumps(plan))
        assert forward(y, yi, copy, cfg).tobytes() == forward(y, yi, plan, cfg).tobytes()

    def test_raw_dict_and_plan_give_the_same_bytes(self):
        cfg = ModelConfig()
        w = with_random_norms(cfg, 28)
        y, yi = rand_specs(29, frames=7)
        plan = model.prepare(w, cfg)
        assert forward(y, yi, w, cfg).tobytes() == forward(y, yi, plan, cfg).tobytes()
        x = sfe(np.ones((1, 6, 7, 129), np.float32))
        assert encode(x, w, cfg)[0].tobytes() == encode(x, plan, cfg)[0].tobytes()


class TestApplyMask:
    def test_unit_real_mask_is_identity(self):
        y, yi = rand_specs(5)
        mask = np.zeros((2, 12, 257))
        mask[0] = 1.0
        np.testing.assert_array_equal(apply_mask(mask, y, yi, "mask2_noisy"), y[0])
        np.testing.assert_array_equal(apply_mask(mask, y, yi, "mask1_iva"), yi[0])

    def test_zero_mask_silences(self):
        y, yi = rand_specs(6)
        out = apply_mask(np.zeros((2, 12, 257)), y, yi, "mask2_noisy")
        np.testing.assert_array_equal(out, 0.0)

    def test_elementwise_complex_product(self):
        y, yi = rand_specs(7)
        rng = np.random.default_rng(0)
        mask = rng.uniform(-1, 1, (2, 12, 257))
        out = apply_mask(mask, y, yi, "mask2_noisy")
        np.testing.assert_allclose(out, (mask[0] + 1j * mask[1]) * y[0], atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_complex_mask_product_bytes(self, dtype):
        # filling one complex output from the mask planes and multiplying in
        # place against building the complex mask first
        y, yi = rand_specs(10)
        mask = np.random.default_rng(1).uniform(-1, 1, (2, 12, 257)).astype(dtype)
        for mode, target in (("mask2_noisy", y[0]), ("mask1_iva", yi[0])):
            got = apply_mask(mask, y, yi, mode)
            want = oracles.apply_mask_complex(mask, target)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_unknown_mode_rejected(self):
        y, yi = rand_specs(8)
        with pytest.raises(InvalidInputError, match="masking mode"):
            apply_mask(np.zeros((2, 12, 257)), y, yi, "mask9")

    def test_shape_mismatch_rejected(self):
        y, yi = rand_specs(9)
        with pytest.raises(InvalidInputError):
            apply_mask(np.zeros((2, 12, 256)), y, yi, "mask2_noisy")


class TestCostAccounting:
    def test_param_counts_per_preset(self):
        assert count_params(ModelConfig()) == 25746
        assert count_params(preset_config("lps-s-m2")) == 25506
        assert count_params(preset_config("lps-sn-m2-dual")) == 27190
        assert count_params(preset_config("cplx-s-m1")) == 25746
        assert count_params(preset_config("cplx-s-m2")) == 25746
        assert count_params(preset_config("cplx-sn-m1")) == 26226
        assert count_params(preset_config("lps-s-m1")) == 25506
        assert count_params(preset_config("lps-s-m2")) < count_params(ModelConfig())

    def test_breakdown_sums_to_total(self):
        for name in ("lps-sn-m2", "cplx-s-m1", "lps-sn-m2-dual"):
            cfg = preset_config(name)
            assert sum(param_breakdown(cfg).values()) == count_params(cfg)

    def test_running_stats_not_counted(self):
        cfg = ModelConfig()
        shapes = expected_shapes(cfg)
        raw = sum(int(np.prod(s)) for s in shapes.values())
        stats = sum(int(np.prod(s)) for n, s in shapes.items()
                    if n.endswith((".mean", ".var")))
        assert count_params(cfg) == raw - stats

    def test_macs_breakdown_consistency(self):
        cfg = ModelConfig()
        bd = macs_breakdown(cfg, IvaConfig())
        assert all(v > 0 for v in bd.values())
        assert bd["auxiva"] == iva_macs_per_second(IvaConfig())

    @pytest.mark.parametrize("name, total", [
        ("cplx-s-m1", 53322250.0), ("cplx-s-m2", 53322250.0),
        ("cplx-sn-m1", 55296250.0), ("lps-s-m1", 52335250.0),
        ("lps-s-m2", 52335250.0), ("lps-sn-m2", 53322250.0),
        ("lps-sn-m2-dual", 54499750.0),
    ])
    def test_network_macs_per_preset(self, name, total):
        assert sum(macs_breakdown(preset_config(name), iva_cfg=None).values()) == total

    def test_macs_breakdown_pinned(self):
        gt, dprnn = 825000.0, {"dprnn.intra": 33792000.0, "dprnn.inter": 5280000.0}
        dec = {"dec.gt0": gt, "dec.gt1": gt, "dec.gt2": gt,
               "dec.deconv1": 1320000.0, "dec.deconv2": 650000.0,
               "band_split": 24000.0, "apply_mask": 64250.0}
        assert macs_breakdown(preset_config("lps-sn-m2")) == {
            "band_merge": 72000.0, "enc.conv1": 5850000.0, "enc.conv2": 1320000.0,
            "enc.gt0": gt, "enc.gt1": gt, "enc.gt2": gt, **dprnn, **dec}
        branch_gt = 693000.0
        assert macs_breakdown(preset_config("lps-sn-m2-dual")) == {
            "band_merge": 72000.0,
            "enc.main.conv1": 2925000.0, "enc.main.conv2": 742500.0,
            "enc.main.gt0": branch_gt, "enc.main.gt1": branch_gt, "enc.main.gt2": branch_gt,
            "enc.aux.conv1": 1462500.0, "enc.aux.conv2": 742500.0,
            "enc.aux.gt0": branch_gt, "enc.aux.gt1": branch_gt, "enc.aux.gt2": branch_gt,
            "enc.fuse": 792000.0, **dprnn, **dec}

    def test_macs_without_iva_smaller(self):
        cfg = ModelConfig()
        assert (sum(macs_breakdown(cfg, iva_cfg=None).values())
                < sum(macs_breakdown(cfg, IvaConfig()).values()))
        assert "auxiva" not in macs_breakdown(cfg, None)


class TestEnhance:
    def test_output_shape_and_fields(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        rng = np.random.default_rng(12)
        wave = 0.1 * rng.standard_normal((2, 4096))
        r = enhance(wave, w, cfg)
        assert r.wave.shape == (4096,)
        assert r.mask.shape == (2, 16, 257)
        assert r.used_iva
        np.testing.assert_allclose(
            r.est_spec, (r.mask[0] + 1j * r.mask[1]) * r.noisy_spec[0], atol=1e-12)

    @staticmethod
    def scene(seconds):
        rng = np.random.default_rng(18)
        return 0.05 * rng.standard_normal((2, 2)) @ np.stack(
            [rng.laplace(size=seconds * 16000), rng.standard_normal(seconds * 16000)])

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_iva_spec_is_the_separated_sources(self, preset):
        cfg = PRESETS[preset]
        wave = self.scene(2)
        r = enhance(wave, _PRESET_WEIGHTS[preset], cfg)
        assert r.used_iva
        assert r.iva_spec.tobytes() == auxiva_separate(stft(wave))[0].tobytes()

    @pytest.mark.parametrize("preset", sorted(name for name, cfg in PRESETS.items()
                                              if cfg.masking == "mask1_iva"))
    def test_mask1_masks_the_speech_source_alone(self, preset, monkeypatch):
        # the estimate is the mask on the whole separated speech source, yet
        # each forward block demixes its own speech source alone, and no
        # demixing spans the whole file
        cfg = PRESETS[preset]
        w = _PRESET_WEIGHTS[preset]
        wave = self.scene(10)
        calls = []
        call = model.Demixer.__call__

        def recording(demixer, spec, sources=2):
            calls.append((spec.shape[1], sources))
            return call(demixer, spec, sources)

        monkeypatch.setattr(model.Demixer, "__call__", recording)
        r = enhance(wave, w, cfg)
        assert max(frames for frames, _ in calls) < 625
        assert [c for c in calls if c[1] == 1] == [(208, 1), (208, 1), (209, 1)]
        y = stft(wave)
        sources = auxiva_separate(y)[0]
        est = apply_mask(forward(y, sources, w, cfg), y, sources, cfg.masking)
        assert r.est_spec.tobytes() == est.tobytes()

    def test_iva_holds_one_block_beyond_the_bypass(self):
        # at the entry of each forward block, what IVA keeps alive beyond a
        # bypassed run is the demixer, 40 KB measured, less than one pass
        # block's sources: each piece's sources are demixed inside the
        # block; the block's demixed sources held 2.09 MB, whole-file
        # sources 10.3 MB
        cfg = ModelConfig()
        w = _PRESET_WEIGHTS[DEFAULT_PRESET]
        wave = self.scene(20)
        block = model._forward_block

        def live_at_block_entries(use_iva):
            seen = []

            def at_entry(*args):
                seen.append(tracemalloc.get_traced_memory()[0])
                return block(*args)

            tracemalloc.start()
            try:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(model, "_forward_block", at_entry)
                    enhance(wave, w, cfg, use_iva=use_iva)
            finally:
                tracemalloc.stop()
            return seen

        enhance(self.scene(2), w, cfg)      # what a first call caches is not counted
        with_iva, bypassed = live_at_block_entries(True), live_at_block_entries(False)
        piece_sources = 2 * PASS_FRAMES * 257 * np.dtype(np.complex128).itemsize
        assert len(with_iva) == len(bypassed) == 5
        assert max(a - b for a, b in zip(with_iva, bypassed)) < piece_sources

    @pytest.mark.parametrize("use_iva", [True, False], ids=["iva", "no_iva"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_blocks_end_in_the_whole_file_estimate_and_wave(self, preset, use_iva):
        # each forward block's mask is applied to its own target and its
        # estimate overlap-added into the wave as it comes: the bytes of
        # apply_mask and istft over the whole file, in one block (256
        # frames) and across the block edges of 257 and 513 frames
        cfg = PRESETS[preset]
        for frames in (256, 257, 513):
            n = frames * 256 - 100
            rng = np.random.default_rng(frames)
            wave = 0.05 * rng.standard_normal((2, 2)) @ np.stack(
                [rng.laplace(size=n), rng.standard_normal(n)])
            r = enhance(wave, _PRESET_WEIGHTS[preset], cfg, IvaConfig(iterations=3), use_iva)
            assert r.used_iva == use_iva and r.mask.shape == (2, frames, 257)
            assert r.mask.dtype == np.float64
            est = apply_mask(r.mask, r.noisy_spec, r.iva_spec, cfg.masking)
            assert r.est_spec.tobytes() == est.tobytes()
            assert r.wave.tobytes() == istft(est, length=n).tobytes()

    def test_silence_bypasses_iva_with_warning(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        with pytest.warns(UserWarning, match="all-zero input"):
            r = enhance(np.zeros((2, 2048)), w, cfg)
        assert not r.used_iva
        np.testing.assert_array_equal(r.iva_spec, r.noisy_spec)

    def test_short_input_bypasses_iva(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        wave = 0.1 * np.random.default_rng(13).standard_normal((2, 200))
        with pytest.warns(UserWarning, match="need at least 2 frames"):
            r = enhance(wave, w, cfg)
        assert not r.used_iva

    @settings(max_examples=30, deadline=None)
    @given(st.integers(257, 512), st.integers(0, 2 ** 32 - 1))
    @example(300, 3)
    @example(400, 10)
    def test_two_frame_input_enhances(self, length, seed):
        # two frames give a rank-deficient covariance, which can make the
        # normalization w^H v w non-positive; that is regularized, not fatal
        cfg = ModelConfig()
        w = init_random(cfg, 0)
        wave = np.random.default_rng(seed).standard_normal((2, length))
        r = enhance(wave, w, cfg)
        assert r.used_iva
        assert np.all(np.isfinite(r.wave))

    @pytest.mark.parametrize("use_iva", [True, False], ids=["iva", "no_iva"])
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_silent_reference_microphone_rejected(self, preset, use_iva):
        # the mask multiplies microphone 0 or IVA's projection back onto it,
        # so beside a live microphone 1 a silent microphone 0 would enhance
        # to silence whatever the weights
        cfg = preset_config(preset)
        wave = np.zeros((2, 2048))
        wave[1] = 0.1 * np.random.default_rng(17).standard_normal(2048)
        with pytest.raises(InvalidInputError,
                           match="^microphone 0, the reference, is silent; microphone 1 is not$"):
            enhance(wave, init_random(cfg, 0), cfg, use_iva=use_iva)

    @pytest.mark.parametrize("use_iva", [True, False], ids=["iva", "no_iva"])
    def test_silent_second_microphone_enhances(self, use_iva):
        cfg = ModelConfig()
        wave = np.zeros((2, 2048))
        wave[0] = 0.1 * np.random.default_rng(17).standard_normal(2048)
        r = enhance(wave, init_random(cfg, 0), cfg, use_iva=use_iva)
        assert r.used_iva == use_iva
        assert np.any(r.wave)

    def test_explicit_bypass(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        wave = 0.1 * np.random.default_rng(14).standard_normal((2, 2048))
        r = enhance(wave, w, cfg, use_iva=False)
        assert not r.used_iva
        np.testing.assert_array_equal(r.iva_spec, r.noisy_spec)

    def test_bad_shapes_rejected(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        with pytest.raises(InvalidInputError):
            enhance(np.zeros(2048), w, cfg)
        with pytest.raises(InvalidInputError):
            enhance(np.zeros((3, 2048)), w, cfg)

    @pytest.mark.parametrize("use_iva", [True, False])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, use_iva, bad):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        wave = 0.1 * np.random.default_rng(15).standard_normal((2, 2048))
        wave[1, 700] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            enhance(wave, w, cfg, use_iva=use_iva)

    @pytest.mark.parametrize("use_iva", [True, False])
    def test_spectrum_beyond_float32_rejected(self, use_iva):
        # finite samples whose spectrum leaves the float32 range of the
        # network's features are invalid input, not a NaN output
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        wave = 3e38 * np.random.default_rng(16).uniform(-1, 1, (2, 2048))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="float32"):
                enhance(wave, w, cfg, use_iva=use_iva)

    @pytest.mark.parametrize("use_iva", [True, False])
    def test_loud_input_within_float32_enhances(self, use_iva):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        wave = 1e30 * np.random.default_rng(16).uniform(-1, 1, (2, 2048))
        r = enhance(wave, w, cfg, use_iva=use_iva)
        assert np.all(np.isfinite(r.wave))

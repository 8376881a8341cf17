"""Mask-refinement network: features, blocks, forward pass, cost accounting."""

import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from hybridse.auxiva import IvaConfig
from hybridse.dsp import StftConfig, log_power
from hybridse.errors import InvalidInputError
from hybridse.model import (PRESETS, ModelConfig, apply_mask, build_features,
                            count_macs, count_params, decode, encode, enhance,
                            expected_shapes, forward, gdprnn, gtconv_block,
                            init_random, macs_breakdown, param_breakdown,
                            preset_config, sfe)


def rand_specs(seed, frames=12, bins=257):
    rng = np.random.default_rng(seed)
    y = rng.standard_normal((2, frames, bins)) + 1j * rng.standard_normal((2, frames, bins))
    yi = rng.standard_normal((2, frames, bins)) + 1j * rng.standard_normal((2, frames, bins))
    return y, yi


def zero_block(w, prefix):
    """Zero every kernel and bias under a prefix, leaving BN stats identity."""
    for name, arr in w.tensors.items():
        if name.startswith(prefix) and name.rsplit(".", 1)[1] in ("kernel", "bias", "w_x", "w_h"):
            w.tensors[name] = np.zeros_like(arr)
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

    def test_settable_fields(self):
        def init_fields(cls):
            return [f.name for f in dataclasses.fields(cls) if f.init]

        assert init_fields(ModelConfig) == ["feature", "iva_channels", "masking", "encoder"]
        assert init_fields(StftConfig) == ["fft_size", "hop"]
        assert init_fields(IvaConfig) == ["iterations", "eps", "ref_channel"]
        assert [f.name for f in dataclasses.fields(StftConfig)] == ["fft_size", "hop", "window"]

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

    def test_bad_kernel_rejected(self):
        x = np.zeros((1, 1, 1, 5), np.float32)
        for kernel in (0, 2, 4):
            with pytest.raises(InvalidInputError):
                sfe(x, kernel)
        with pytest.raises(InvalidInputError):
            sfe(np.zeros((1, 1, 5), np.float32), 3)


class TestGtconvBlock:
    def test_zero_transform_leaves_shuffled_half_identity(self):
        cfg = ModelConfig()
        w = zero_block(init_random(cfg, 0), "enc.gt0")
        x = np.random.default_rng(2).standard_normal((1, 16, 6, 33)).astype(np.float32)
        out = gtconv_block(x, w, "enc.gt0", 1)
        from hybridse.nn import channel_shuffle
        expect = channel_shuffle(
            np.concatenate([x[:, :8], np.zeros_like(x[:, :8])], axis=1), 2)
        np.testing.assert_array_equal(out, expect)

    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_shape_preserved(self, dilation):
        cfg = ModelConfig()
        w = init_random(cfg, 3)
        x = np.random.default_rng(4).standard_normal((2, 16, 9, 33)).astype(np.float32)
        assert gtconv_block(x, w, "enc.gt1", dilation).shape == x.shape

    @pytest.mark.parametrize("dilation", [1, 2, 5])
    def test_causal_in_time(self, dilation):
        cfg = ModelConfig()
        w = init_random(cfg, 5)
        x = np.random.default_rng(6).standard_normal((1, 16, 12, 33)).astype(np.float32)
        x2 = x.copy()
        x2[:, :, 7:] += 1.0
        a = gtconv_block(x, w, "enc.gt2", dilation)
        b = gtconv_block(x2, w, "enc.gt2", dilation)
        np.testing.assert_array_equal(a[:, :, :7], b[:, :, :7])

    def test_odd_channels_rejected(self):
        cfg = ModelConfig()
        w = init_random(cfg, 0)
        with pytest.raises(InvalidInputError):
            gtconv_block(np.zeros((1, 15, 4, 33), np.float32), w, "enc.gt0", 1)


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
        for name in list(w.tensors):
            if name.rsplit(".", 1)[1] in ("kernel", "bias"):
                w.tensors[name] = np.zeros_like(w.tensors[name])
        x = np.random.default_rng(1).standard_normal((1, 18, 4, 129)).astype(np.float32)
        latent, _ = encode(x, w, cfg)
        np.testing.assert_array_equal(latent, 0.0)

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
        w = init_random(cfg, 0)
        w.tensors = Recording(w.tensors)
        mask = forward(*rand_specs(4, frames=3), w, cfg)
        assert read == set(expected_shapes(cfg))
        assert np.all(np.isfinite(mask))


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
        bd = macs_breakdown(cfg, StftConfig(), IvaConfig())
        assert all(v > 0 for v in bd.values())
        assert count_macs(cfg) == pytest.approx(sum(bd.values()))
        from hybridse.auxiva import iva_macs_per_second
        assert bd["auxiva"] == iva_macs_per_second(IvaConfig(), StftConfig())

    @pytest.mark.parametrize("name, total", [
        ("cplx-s-m1", 53322250.0), ("cplx-s-m2", 53322250.0),
        ("cplx-sn-m1", 55296250.0), ("lps-s-m1", 52335250.0),
        ("lps-s-m2", 52335250.0), ("lps-sn-m2", 53322250.0),
        ("lps-sn-m2-dual", 54499750.0),
    ])
    def test_network_macs_per_preset(self, name, total):
        assert count_macs(preset_config(name), iva_cfg=None) == total

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

    def test_macs_need_the_band_pipeline_bins(self):
        with pytest.raises(InvalidInputError, match="257 STFT bins"):
            macs_breakdown(ModelConfig(), StftConfig(fft_size=1024, hop=512))
        assert count_macs(ModelConfig(), StftConfig(hop=128), None) == 2 * 53322250.0

    def test_macs_without_iva_smaller(self):
        cfg = ModelConfig()
        assert count_macs(cfg, iva_cfg=None) < count_macs(cfg)
        assert "auxiva" not in macs_breakdown(cfg, StftConfig(), None)


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

    def test_silence_bypasses_iva_with_warning(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        with pytest.warns(UserWarning, match="silence"):
            r = enhance(np.zeros((2, 2048)), w, cfg)
        assert not r.used_iva
        np.testing.assert_array_equal(r.iva_spec, r.noisy_spec)

    def test_short_input_bypasses_iva(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        wave = 0.1 * np.random.default_rng(13).standard_normal((2, 200))
        with pytest.warns(UserWarning, match="fewer than 2 frames"):
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

    def test_stft_geometry_must_give_the_band_bins(self):
        cfg = ModelConfig()
        w = init_random(cfg, 11)
        wave = 0.1 * np.random.default_rng(15).standard_normal((2, 4096))
        with pytest.raises(InvalidInputError, match="257 STFT bins"):
            enhance(wave, w, cfg, stft_cfg=StftConfig(fft_size=1024, hop=512))
        r = enhance(wave, w, cfg, stft_cfg=StftConfig(hop=128))
        assert r.wave.shape == (4096,) and r.mask.shape == (2, 32, 257)

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

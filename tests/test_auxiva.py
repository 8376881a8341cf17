"""Auxiliary-function IVA: sweep algebra, projection back, source ordering."""

import warnings

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import instantaneous_scene, separate_to_waves
from hybridse import (IvaConfig, StftConfig, auxiva_separate,
                      covariance_stats, demix, iva_macs_per_second,
                      iva_sweep, order_sources, projection_back, si_snr, stft)
from hybridse.auxiva import _excess_kurtosis
from hybridse.errors import (DegenerateInputError, InvalidInputError,
                             NumericalError)


def identity_w(n_bins=257):
    return np.tile(np.eye(2, dtype=np.complex128), (n_bins, 1, 1))


def random_spec(rng, frames=40, bins=257, scale=1.0):
    shape = (2, frames, bins)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def perturbed_w(rng, n_bins):
    shape = (n_bins, 2, 2)
    return identity_w(n_bins) + 0.4 * (rng.standard_normal(shape)
                                       + 1j * rng.standard_normal(shape))


class TestConfig:
    def test_defaults(self):
        cfg = IvaConfig()
        assert cfg.iterations == 20
        assert cfg.eps == 1e-8
        assert cfg.ref_channel == 0

    @pytest.mark.parametrize("kwargs", [
        {"iterations": -1}, {"eps": 0.0}, {"ref_channel": -1},
        {"ref_channel": 2},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            IvaConfig(**kwargs)


class TestDemix:
    def test_rows_act_as_conjugated_vectors(self):
        spec = np.zeros((2, 1, 1), dtype=complex)
        spec[0, 0, 0] = 2.0 + 1.0j
        spec[1, 0, 0] = -1.0j
        w = np.array([[[1.0, 2.0j], [0.5, -1.0]]], dtype=complex)
        out = demix(spec, w)
        assert out[0, 0, 0] == pytest.approx((2 + 1j) + 2j * (-1j))
        assert out[1, 0, 0] == pytest.approx(0.5 * (2 + 1j) - (-1j))

    def test_identity_keeps_channels(self):
        spec = random_spec(np.random.default_rng(0), frames=5)
        np.testing.assert_array_equal(demix(spec, identity_w()), spec)

    def test_channel_count_checked(self):
        spec = random_spec(np.random.default_rng(0), frames=5, bins=4)
        with pytest.raises(InvalidInputError):
            demix(spec[:1], identity_w(4))
        with pytest.raises(InvalidInputError):
            demix(np.concatenate([spec, spec[:1]]), identity_w(4))

    @pytest.mark.parametrize("shape", [(9, 2, 2), (8, 3, 2), (8, 2, 1), (8, 4)])
    def test_demixing_state_shape_checked(self, shape):
        spec = random_spec(np.random.default_rng(0), frames=5, bins=8)
        with pytest.raises(InvalidInputError, match="demixing state"):
            demix(spec, np.ones(shape, dtype=complex))


class TestSweep:
    def test_normalization_after_each_sweep(self):
        rng = np.random.default_rng(1)
        spec = random_spec(rng)
        w = identity_w()
        for _ in range(3):
            w, v = iva_sweep(spec, w)
            for m in range(2):
                wm = np.conj(w[:, m, :])
                quad = np.real(np.einsum("ka,kab,kb->k", np.conj(wm), v[m], wm))
                assert np.max(np.abs(quad - 1.0)) < 1e-6

    def test_constant_two_frame_input_completes(self):
        # rank-deficient covariance goes through the regularized retry and
        # still satisfies the unit quadratic form
        spec = np.ones((2, 2, 8), dtype=complex)
        spec[1] *= 1j
        w, v = iva_sweep(spec, identity_w(8), IvaConfig(iterations=1))
        for m in range(2):
            wm = np.conj(w[:, m, :])
            quad = np.real(np.einsum("ka,kab,kb->k", np.conj(wm), v[m], wm))
            np.testing.assert_allclose(quad, 1.0, atol=1e-6)

    def test_single_frame_matches_adjugate_oracle(self):
        # one frame of unit-magnitude uncorrelated channels: the weighted
        # covariance is a scaled outer product plus the documented
        # trace-scaled ridge; the 2x2 solve must agree with the closed-form
        # adjugate inverse applied to that system
        y = np.array([1.0 + 0.0j, 0.0 + 1.0j])
        spec = y[:, None, None]
        cfg = IvaConfig()
        w, v = iva_sweep(spec, identity_w(1), cfg)

        # each source's envelope is the magnitude of its own channel, 1 here,
        # so both weighted covariances equal the observation outer product
        # plus the documented trace-scaled ridge
        outer = np.outer(y, np.conj(y))
        lam = cfg.eps * np.real(np.trace(outer)) / 2.0 + cfg.eps
        v_expect = outer + lam * np.eye(2)
        np.testing.assert_allclose(v[0][0], v_expect, atol=1e-12)
        np.testing.assert_allclose(v[1][0], v_expect, atol=1e-12)

        wm = oracles.inverse_2x2(v_expect) @ np.array([1.0, 0.0])
        wm = wm / np.sqrt(np.real(np.conj(wm) @ v_expect @ wm))
        np.testing.assert_allclose(w[0, 0, :], np.conj(wm), atol=1e-10)

    def test_scale_equivariance_at_convergence(self):
        rng = np.random.default_rng(2)
        n = 32000
        env = np.repeat(rng.exponential(1.0, 41), 800)[:n] + 0.05
        y = np.stack([rng.laplace(size=n) * env + 0.4 * rng.standard_normal(n),
                      rng.standard_normal(n)])
        spec = stft(y, StftConfig())
        w1, w3 = identity_w(), identity_w()
        for _ in range(30):
            w1, _ = iva_sweep(spec, w1)
            w3, _ = iva_sweep(3.0 * spec, w3)
        scale = np.max(np.abs(w1))
        assert np.max(np.abs(3.0 * w3 - w1)) / scale < 1e-6
        out1 = demix(spec, w1)
        out3 = demix(3.0 * spec, w3)
        assert np.max(np.abs(out3 - out1)) / np.max(np.abs(out1)) < 1e-6

    def test_no_frames_rejected(self):
        with pytest.raises(DegenerateInputError):
            iva_sweep(np.zeros((2, 0, 4), dtype=complex), identity_w(4))

    @pytest.mark.parametrize("shape", [(9, 2, 2), (7, 2, 2), (8, 3, 2), (8, 4)])
    def test_demixing_state_shape_checked(self, shape):
        spec = random_spec(np.random.default_rng(0), frames=5, bins=8)
        with pytest.raises(InvalidInputError, match="demixing state"):
            iva_sweep(spec, np.ones(shape, dtype=complex))

    @pytest.mark.parametrize("fill, message", [
        (1.0, "singular demixing update"),
        (np.inf, "demixing update diverged"),
    ])
    def test_failure_attributed_without_warnings(self, fill, message):
        # all-ones rows make W V singular in every bin even after the ridge;
        # an infinite state poisons the envelope and the update stays NaN
        spec = random_spec(np.random.default_rng(25), frames=6, bins=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=message):
                iva_sweep(spec, np.full((8, 2, 2), fill, dtype=complex))


class TestCovarianceStats:
    def test_layout(self):
        spec = random_spec(np.random.default_rng(20), frames=6, bins=5)
        blocks = covariance_stats(spec).reshape(6, 4, 5) * 6
        cross = spec[0] * np.conj(spec[1])
        np.testing.assert_allclose(blocks[:, 0], np.abs(spec[0]) ** 2, rtol=1e-14)
        np.testing.assert_allclose(blocks[:, 1], np.abs(spec[1]) ** 2, rtol=1e-14)
        np.testing.assert_allclose(blocks[:, 2], cross.real, rtol=1e-14)
        np.testing.assert_allclose(blocks[:, 3], cross.imag, rtol=1e-14)

    def test_passed_stats_bit_identical_to_built(self):
        rng = np.random.default_rng(21)
        spec = random_spec(rng, frames=30, bins=33)
        w = perturbed_w(rng, 33)
        w_a, v_a = iva_sweep(spec, w)
        w_b, v_b = iva_sweep(spec, w, IvaConfig(), covariance_stats(spec))
        np.testing.assert_array_equal(w_a, w_b)
        np.testing.assert_array_equal(v_a, v_b)

    def test_wrong_shape_rejected(self):
        spec = random_spec(np.random.default_rng(22), frames=5, bins=8)
        with pytest.raises(InvalidInputError, match="stats"):
            iva_sweep(spec, identity_w(8), IvaConfig(), covariance_stats(spec)[:-1])

    def test_v_used_matches_loop_oracle(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng, frames=7, bins=5)
        w_in = perturbed_w(rng, 5)
        cfg = IvaConfig()
        w_out, v = iva_sweep(spec, w_in, cfg)
        # source 1 is updated against source 0's new row
        w_mid = w_in.copy()
        w_mid[:, 0, :] = w_out[:, 0, :]
        for m, state in ((0, w_in), (1, w_mid)):
            expect = oracles.weighted_covariance_naive(spec, state, m, cfg.eps)
            np.testing.assert_allclose(v[m], expect, rtol=0, atol=1e-12)

    def test_v_used_matches_loop_oracle_when_nearly_separated(self):
        # exact A^-1 demixing of an instantaneous mixture whose second source
        # is attenuated by 1e-2 and 1e-4 in alternate frames: that source's
        # envelope is a tiny difference of large expanded terms, and its
        # covariance, dominated by those frames, must still match the direct
        # loop at the unchanged tolerance
        rng = np.random.default_rng(24)
        s = random_spec(rng, frames=12, bins=16)
        s[1, 0::2] *= 1e-2
        s[1, 1::2] *= 1e-4
        a = np.array([[1.0, 0.6], [0.5, 1.0]])
        spec = 1e-3 * np.einsum("cs,slk->clk", a, s)
        w_in = np.tile(np.linalg.inv(a).astype(complex), (16, 1, 1))
        cfg = IvaConfig()
        w_out, v = iva_sweep(spec, w_in, cfg)
        w_mid = w_in.copy()
        w_mid[:, 0, :] = w_out[:, 0, :]
        for m, state in ((0, w_in), (1, w_mid)):
            expect = oracles.weighted_covariance_naive(spec, state, m, cfg.eps)
            np.testing.assert_allclose(v[m], expect, rtol=0, atol=1e-12)
        # the absolute tolerance is meaningful only if v is not itself tiny
        assert np.max(np.abs(v[1])) > 1.0

    def test_singular_input_takes_regularized_retry(self):
        # a constant two-frame input has a rank-1 covariance in every bin:
        # the plain solve fails and the used covariance carries the
        # trace-scaled ridge on top of the oracle covariance
        spec = np.ones((2, 2, 8), dtype=complex)
        spec[1] *= 1j
        cfg = IvaConfig()
        w_in = identity_w(8)
        w_out, v = iva_sweep(spec, w_in, cfg)
        expect = oracles.weighted_covariance_naive(spec, w_in, 0, cfg.eps)
        ridge = cfg.eps * np.real(np.trace(expect, axis1=1, axis2=2)) / 2.0 + cfg.eps
        assert np.all(ridge > 1e-9)
        np.testing.assert_allclose(v[0], expect + ridge[:, None, None] * np.eye(2),
                                   rtol=0, atol=1e-15)
        assert np.all(np.isfinite(w_out))


class TestSeparate:
    def test_matches_unrolled_sweeps_bit_for_bit(self):
        # auxiva_separate shares one statistics array across sweeps; the
        # result must equal sweeps that each build their own
        mix, _, _ = instantaneous_scene(5)
        spec = stft(mix, StftConfig())
        cfg = IvaConfig(iterations=4, ref_channel=1)
        w = identity_w()
        for _ in range(cfg.iterations):
            w, _ = iva_sweep(spec, w, cfg)
        sources = projection_back(demix(spec, w), w, cfg.ref_channel)
        order = order_sources(sources)
        got_sources, got_w = auxiva_separate(spec, cfg)
        np.testing.assert_array_equal(got_sources, sources[order])
        np.testing.assert_array_equal(got_w, w[:, order, :])

    def test_already_separated_keeps_w_near_diagonal(self):
        # a diagonal mixture of independent nonstationary Laplacian sources
        # should leave the demixing solution close to diagonal in every bin
        rng = np.random.default_rng(7)
        n = 160000
        blocks = n // 640 + 1
        s = np.stack([
            rng.laplace(size=n) * (np.repeat(rng.exponential(1.0, blocks), 640)[:n] + 0.05),
            rng.laplace(size=n) * (np.repeat(rng.exponential(1.0, blocks), 640)[:n] + 0.05),
        ])
        spec = stft(s, StftConfig())
        w = identity_w()
        for _ in range(20):
            w, _ = iva_sweep(spec, w)
        ratio0 = np.abs(w[:, 0, 1]) / np.abs(w[:, 0, 0])
        ratio1 = np.abs(w[:, 1, 0]) / np.abs(w[:, 1, 1])
        assert max(ratio0.max(), ratio1.max()) <= 0.1

    def test_snr_improvement_on_instantaneous_mixtures(self):
        cfg = StftConfig()
        gains = []
        for seed in range(7):
            mix, speech_ref, _ = instantaneous_scene(seed)
            waves = separate_to_waves(mix)
            before = si_snr(mix[0], speech_ref)
            gains.append(si_snr(waves[0], speech_ref) - before)
        assert np.median(gains) >= 5.0

    def test_permutation_covariance(self):
        # swapping the input channels permutes the unordered source set when
        # projection back targets the same physical microphone
        mix, _, _ = instantaneous_scene(3)
        cfg = StftConfig()
        ya, _ = auxiva_separate(stft(mix, cfg), IvaConfig(iterations=30, ref_channel=1))
        yb, _ = auxiva_separate(stft(mix[::-1].copy(), cfg),
                                IvaConfig(iterations=30, ref_channel=0))
        direct = max(np.max(np.abs(ya[0] - yb[0])), np.max(np.abs(ya[1] - yb[1])))
        crossed = max(np.max(np.abs(ya[0] - yb[1])), np.max(np.abs(ya[1] - yb[0])))
        assert min(direct, crossed) / np.max(np.abs(ya)) < 1e-6

    def test_determinism(self):
        mix, _, _ = instantaneous_scene(4)
        spec = stft(mix, StftConfig())
        y1, w1 = auxiva_separate(spec, IvaConfig(iterations=5))
        y2, w2 = auxiva_separate(spec, IvaConfig(iterations=5))
        np.testing.assert_array_equal(y1, y2)
        np.testing.assert_array_equal(w1, w2)

    def test_single_channel_rejected(self):
        with pytest.raises(InvalidInputError):
            auxiva_separate(np.zeros((1, 10, 257), dtype=complex))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            auxiva_separate(np.zeros((2, 10, 257), dtype=complex))

    def test_needs_two_frames(self):
        with pytest.raises(InvalidInputError):
            auxiva_separate(np.ones((2, 1, 257), dtype=complex))


class TestProjectionBack:
    def test_identity_w_keeps_reference_image(self):
        # under the decomposition convention source m is scaled by the
        # mixing-matrix entry A[ref, m]; for W = I that keeps the reference
        # source exactly and assigns the other source no image at that mic,
        # so the two images still sum to the reference channel
        y = random_spec(np.random.default_rng(5), frames=6, bins=16)
        out = projection_back(y, identity_w(16), ref_channel=0)
        np.testing.assert_array_equal(out[0], y[0])
        np.testing.assert_array_equal(out[1], 0.0 * y[1])

    def test_decomposition_sums_to_reference(self):
        rng = np.random.default_rng(6)
        spec = random_spec(rng, frames=12, bins=32)
        w = (rng.standard_normal((32, 2, 2)) + 1j * rng.standard_normal((32, 2, 2)))
        for ref in (0, 1):
            proj = projection_back(demix(spec, w), w, ref)
            resid = proj[0] + proj[1] - spec[ref]
            assert np.max(np.abs(resid)) < 1e-6

    def test_diagonal_w_scales_by_inverse_entry(self):
        y = random_spec(np.random.default_rng(7), frames=4, bins=8)
        w = np.tile(np.diag([2.0 + 0j, 0.5 + 0j]), (8, 1, 1))
        # at its own reference microphone each source is undone by the
        # diagonal inverse entry: 1/2 for source 0, 2 for source 1
        np.testing.assert_allclose(projection_back(y, w, 0)[0], 0.5 * y[0])
        np.testing.assert_allclose(projection_back(y, w, 1)[1], 2.0 * y[1])

    def test_singular_w_raises_with_bin(self):
        y = random_spec(np.random.default_rng(8), frames=3, bins=4)
        w = identity_w(4)
        w[2] = 0.0
        with pytest.raises(NumericalError, match="bin"):
            projection_back(y, w, 0)

    def test_demixing_state_shape_checked(self):
        y = random_spec(np.random.default_rng(10), frames=3, bins=8)
        with pytest.raises(InvalidInputError, match="demixing state"):
            projection_back(y, identity_w(9), 0)

    def test_bad_ref_channel(self):
        with pytest.raises(InvalidInputError):
            projection_back(random_spec(np.random.default_rng(9), 3, 4),
                            identity_w(4), ref_channel=5)


class TestOrderSources:
    @staticmethod
    def enveloped_spec(rng, env):
        frames = len(env)
        base = rng.standard_normal((frames, 64)) + 1j * rng.standard_normal((frames, 64))
        return base * env[:, None]

    def test_heavy_tailed_envelope_first(self):
        rng = np.random.default_rng(10)
        lap = self.enveloped_spec(rng, rng.laplace(size=400))
        gau = self.enveloped_spec(rng, rng.standard_normal(400))
        perm = order_sources(np.stack([lap, gau]))
        np.testing.assert_array_equal(perm, [0, 1])
        swapped = order_sources(np.stack([gau, lap]))
        np.testing.assert_array_equal(swapped, [1, 0])

    def test_identical_channels_tie_break(self):
        rng = np.random.default_rng(11)
        ch = self.enveloped_spec(rng, rng.standard_normal(100))
        perm = order_sources(np.stack([ch, ch]))
        np.testing.assert_array_equal(perm, [0, 1])

    @staticmethod
    def scipy_reference(y):
        """Envelope, scipy kurtosis and the permutation order_sources used to derive."""
        env = np.sqrt(np.sum(np.abs(y) ** 2, axis=2))
        if env.shape[1] >= 3:
            env = env[:, :-1]
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            k = scipy.stats.kurtosis(env, axis=1, fisher=True, bias=True)
        return env, k, np.argsort(-np.where(np.isfinite(k), k, -3.0), kind="stable")

    @pytest.mark.parametrize("case", ["random", "constant", "rounding-flat",
                                      "two-frame", "identical"])
    def test_kurtosis_matches_scipy(self, case):
        rng = np.random.default_rng(13)
        if case == "random":
            y = np.stack([self.enveloped_spec(rng, rng.standard_normal(50)),
                          self.enveloped_spec(rng, rng.laplace(size=50))])
        elif case == "constant":
            y = np.ones((2, 20, 64), dtype=complex)
            y[1] = self.enveloped_spec(rng, rng.laplace(size=20))
        elif case == "rounding-flat":
            # every frame holds the same magnitudes in a different bin order,
            # so the envelope differs only by summation rounding
            mags = rng.uniform(0.1, 3.0, 64)
            flat = np.stack([rng.permutation(mags) for _ in range(30)])
            y = np.stack([flat.astype(complex),
                          self.enveloped_spec(rng, rng.standard_normal(30))])
        elif case == "two-frame":
            y = np.stack([self.enveloped_spec(rng, rng.standard_normal(2)),
                          self.enveloped_spec(rng, rng.laplace(size=2))])
        else:
            ch = self.enveloped_spec(rng, rng.standard_normal(40))
            y = np.stack([ch, ch])
        env, expect, perm = self.scipy_reference(y)
        np.testing.assert_array_equal(_excess_kurtosis(env), expect)
        np.testing.assert_array_equal(order_sources(y), perm)
        np.testing.assert_array_equal(order_sources(y[::-1]),
                                      self.scipy_reference(y[::-1])[2])

    def test_matches_kurtosis_oracle(self):
        rng = np.random.default_rng(12)
        y = np.stack([self.enveloped_spec(rng, rng.standard_normal(200)),
                      self.enveloped_spec(rng, rng.laplace(size=200))])
        env = np.sqrt(np.sum(np.abs(y) ** 2, axis=2))
        k = [oracles.kurtosis_naive(env[m]) for m in range(2)]
        expect = [0, 1] if k[0] >= k[1] else [1, 0]
        np.testing.assert_array_equal(order_sources(y), expect)


class TestMacs:
    def test_zero_iterations(self):
        assert iva_macs_per_second(IvaConfig(iterations=0)) == 0.0

    def test_default_within_documented_bracket(self):
        cfg = IvaConfig()
        per_iter = iva_macs_per_second(cfg) / cfg.iterations / 1e6
        assert 0.05 <= per_iter <= 2.0

    def test_linear_in_frame_rate(self):
        cfg = IvaConfig()
        base = iva_macs_per_second(cfg, StftConfig())
        double = iva_macs_per_second(cfg, StftConfig(hop=128))
        assert double == 2.0 * base

    def test_linear_in_iterations(self):
        assert (iva_macs_per_second(IvaConfig(iterations=40))
                == 2.0 * iva_macs_per_second(IvaConfig(iterations=20)))

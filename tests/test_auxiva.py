"""Auxiliary-function IVA: sweep algebra, projection back, source ordering."""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import instantaneous_scene, separate_to_waves
from hybridse import (PRESETS, IvaConfig, StftConfig, auxiva_separate,
                      covariance_stats, demix, enhance, init_random,
                      iva_macs_per_second, iva_sweep, order_sources,
                      projection_back, si_snr, stft)
from hybridse import auxiva
from hybridse.auxiva import _excess_kurtosis, auxiva_demixer
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

    @pytest.mark.parametrize("kwargs", [{"iterations": -1}])
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

    def test_real_spectrogram_cast_to_complex(self):
        spec = np.random.default_rng(0).standard_normal((2, 5, 8))
        out = demix(spec, identity_w(8))
        assert out.dtype == np.complex128
        np.testing.assert_array_equal(out, spec.astype(np.complex128))

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

    @pytest.mark.parametrize("frames", [1, 63, 64, 65, 626])
    def test_bit_equal_to_the_in_place_cross_term_whole_and_in_blocks(self, frames):
        # the cross term is conj(y1) * y0 written in place into the
        # conjugate, the form numpy's temporary elision gives a whole-file
        # y0 * np.conj(y1) from 64 frames (256 KiB) up, at every length;
        # the rows come out the same built whole or in any blocks
        spec = random_spec(np.random.default_rng(frames), frames=frames)

        def in_place_form(y):
            cross = np.conj(y[1])
            np.multiply(cross, y[0], out=cross)
            rows = np.stack([y[0].real ** 2 + y[0].imag ** 2, y[1].real ** 2 + y[1].imag ** 2,
                             cross.real, cross.imag], axis=1)
            return (rows / frames).reshape(y.shape[1], -1)

        got = covariance_stats(spec)
        assert got.tobytes() == in_place_form(spec).tobytes()
        for size in (1, 7, 64, 100):
            blocks = [in_place_form(spec[:, a:a + size]) for a in range(0, frames, size)]
            assert got.tobytes() == np.concatenate(blocks).tobytes()

    def test_cancelled_frames_recomputed_one_pass_block_at_a_time(self, monkeypatch):
        # microphone 1 is microphone 0 at half level plus a faint remainder,
        # which row (1, -2) leaves alone, so every frame of source 0 loses
        # its envelope to cancellation and is demixed from the spectrogram
        rng = np.random.default_rng(25)
        y0 = random_spec(rng, frames=625)[0]
        spec = np.stack([y0, 0.5 * y0 + 1e-6 * random_spec(rng, frames=625)[1]])
        w = identity_w()
        w[:, 0, 1] = -2.0
        stats = covariance_stats(spec)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            got = auxiva._envelopes(spec, stats, w, IvaConfig.eps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one pass block's two demixing planes, 0.53 MB, each channel's
        # frames gathered straight into its plane, and numpy's 131 KB ufunc
        # buffer for the broadcast row: 0.71 MB measured (numpy 2), so the
        # bound leaves 0.19 MB; 1.36 MB while each block's frames were first
        # gathered into a copy of both channels, and all 625 frames at once
        # held 10.3 MB
        assert peak - entry < 900_000
        monkeypatch.setattr(auxiva, "PASS_FRAMES", spec.shape[1])
        assert got.tobytes() == auxiva._envelopes(spec, stats, w, IvaConfig.eps).tobytes()
        assert np.all(got[:, 0] < 1e-4 * got[:, 1])

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
        # auxiva_separate shares one statistics array across sweeps and
        # applies the ordered Demixer to the spectrogram; the result must
        # equal sweeps that each build their own, then a new projected array
        # and a reordered copy.  Scene 2 comes out in the swapped order,
        # scene 5 does not.
        cfg = IvaConfig(iterations=4)
        firsts = set()
        for scene in (5, 2):
            spec = stft(instantaneous_scene(scene)[0], StftConfig())
            w = identity_w()
            for _ in range(cfg.iterations):
                w, _ = iva_sweep(spec, w, cfg)
            sources = projection_back(demix(spec, w), w, cfg.ref_channel)
            order = order_sources(sources)
            firsts.add(int(order[0]))
            got_sources, got_w = auxiva_separate(spec, cfg)
            assert got_sources.tobytes() == sources[order].tobytes()
            assert got_w.tobytes() == w[:, order, :].tobytes()
        assert firsts == {0, 1}

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
        spec = stft(mix, cfg)
        _, w = auxiva_separate(spec, IvaConfig(iterations=30))
        ya = projection_back(demix(spec, w), w, 1)
        yb, _ = auxiva_separate(stft(mix[::-1].copy(), cfg), IvaConfig(iterations=30))
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

    def test_identical_channels_put_the_signal_first(self):
        # a mono recording copied to both channels is a rank-1 mixture: IVA
        # leaves one source at rounding level, and that source ranks last
        mono = instantaneous_scene(0)[0][0]
        spec = stft(0.9 / np.max(np.abs(mono)) * np.stack([mono, mono]))
        sources, _ = auxiva_separate(spec)
        power = np.sum(np.abs(sources) ** 2, axis=(1, 2))
        assert power[1] <= np.finfo(float).eps ** 2 * power[0]
        np.testing.assert_allclose(sources[0], spec[0], rtol=0,
                                   atol=1e-9 * np.max(np.abs(spec)))

    @pytest.mark.parametrize("peak", [1e-3, 1e-1, 1.0, 10.0, 100.0, 1e4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_identical_channels_put_the_signal_first_at_any_level(self, seed, peak):
        # beyond full scale IVA's remainder sits at its envelope floor, far
        # above rounding level, and still ranks last; the mask1_iva presets
        # then mask the signal, not the remainder
        mono = instantaneous_scene(seed)[0][0]
        wave = peak / np.max(np.abs(mono)) * np.stack([mono, mono])
        spec = stft(wave)
        sources, _ = auxiva_separate(spec)
        power = np.sum(np.abs(sources) ** 2, axis=(1, 2))
        assert power[1] <= IvaConfig.eps * power[0]
        np.testing.assert_allclose(sources[0], spec[0], rtol=0,
                                   atol=1e-7 * np.max(np.abs(spec)))
        cfg = PRESETS["cplx-s-m1"]
        res = enhance(wave, init_random(cfg, 0), cfg)
        assert res.used_iva
        assert np.sqrt(np.mean(res.wave ** 2)) > 1e-3 * peak

    def test_single_channel_rejected(self):
        with pytest.raises(InvalidInputError):
            auxiva_separate(np.zeros((1, 10, 257), dtype=complex))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            auxiva_separate(np.zeros((2, 10, 257), dtype=complex))

    def test_needs_two_frames(self):
        with pytest.raises(DegenerateInputError, match="need at least 2 frames"):
            auxiva_separate(np.ones((2, 1, 257), dtype=complex))

    @pytest.mark.parametrize("bad", [1e39 + 0j, -1e39j, complex(np.nan, 0), complex(0, np.inf)],
                             ids=["real", "imag", "nan", "inf"])
    def test_beyond_float32_rejected_before_the_statistics(self, bad):
        # build_features' rule: such a spectrogram is invalid input, not a
        # demixing update that diverges, and no overflow warning escapes
        spec = random_spec(np.random.default_rng(30), frames=20)
        spec[1, 3, 7] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="input too loud"):
                auxiva_separate(spec, IvaConfig(iterations=2))


class TestDemixer:
    @pytest.fixture(scope="class", params=[2, 5])
    def separated(self, request):
        # 10 s, 625 frames; scene 2 comes out in the swapped order, scene 5
        # does not
        spec = stft(instantaneous_scene(request.param, n=10 * 16000)[0])
        cfg = IvaConfig(iterations=4)
        return spec, auxiva_demixer(spec, cfg), auxiva_separate(spec, cfg)[0]

    @pytest.mark.parametrize("block", [1, 18, 19, 64, 256])
    def test_blocks_concatenate_to_the_separated_sources(self, separated, block):
        # 625 frames leave every block length but 1 an uneven last block
        spec, demixer, sources = separated
        parts = [demixer(spec[:, a:a + block]) for a in range(0, spec.shape[1], block)]
        assert np.concatenate(parts, axis=1).tobytes() == sources.tobytes()

    def test_uneven_cuts_concatenate_to_the_separated_sources(self, separated):
        spec, demixer, sources = separated
        edges = [0, 7, 300, 301, 577, spec.shape[1]]
        parts = [demixer(spec[:, a:b]) for a, b in zip(edges, edges[1:])]
        assert np.concatenate(parts, axis=1).tobytes() == sources.tobytes()

    def test_speech_alone_is_the_first_source(self, separated):
        spec, demixer, sources = separated
        assert demixer(spec, 1).tobytes() == sources[:1].tobytes()

    def test_singular_demixing_state_raises_before_any_output(self, monkeypatch):
        # projection back needs W^-1: a sweep that ends singular raises
        # before a single frame is demixed
        def singular_sweep(spec, w, cfg, stats):
            w = w.copy()
            w[5] = 0.0
            return w, None

        def no_output(*args):
            raise AssertionError("a source was demixed")

        monkeypatch.setattr(auxiva, "iva_sweep", singular_sweep)
        monkeypatch.setattr(auxiva, "_demix", no_output)
        spec = stft(instantaneous_scene(0)[0])
        with pytest.raises(NumericalError, match="^demixing matrix not invertible at bin 5$"):
            auxiva_demixer(spec, IvaConfig(iterations=1))


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

    def test_source_at_rounding_level_ranks_last(self):
        # heavier-tailed, but faint against the other: power at most
        # IvaConfig.eps times the other's ranks last, a source above that
        # ranks by kurtosis
        rng = np.random.default_rng(14)
        lap = self.enveloped_spec(rng, rng.laplace(size=100))
        gau = self.enveloped_spec(rng, rng.standard_normal(100))
        gau *= np.sqrt(np.sum(np.abs(lap) ** 2) / np.sum(np.abs(gau) ** 2))
        np.testing.assert_array_equal(order_sources(np.stack([1e-5 * lap, gau])), [1, 0])
        np.testing.assert_array_equal(order_sources(np.stack([gau, 1e-5 * lap])), [0, 1])
        np.testing.assert_array_equal(order_sources(np.stack([1e-3 * lap, gau])), [0, 1])

    def test_faint_source_ranks_below_a_flat_one(self):
        # a flat envelope has no kurtosis and ranks as -3; a faint source,
        # however heavy-tailed, ranks below it at either index
        rng = np.random.default_rng(15)
        flat = np.ones((100, 64), complex)
        lap = 1e-5 * self.enveloped_spec(rng, rng.laplace(size=100))
        np.testing.assert_array_equal(order_sources(np.stack([lap, flat])), [1, 0])
        np.testing.assert_array_equal(order_sources(np.stack([flat, lap])), [0, 1])

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_float32_tone_enhances_as_float64(self, preset):
        # a tone on both microphones is a rank-1 mixture with a flat
        # envelope; IVA's remainder is faint, and must not win the tie by
        # index, which rounding to float32 would decide
        tone = np.sin(2 * np.pi * 1000 * (np.arange(2 * 16000) / 16000))
        cfg, rms = PRESETS[preset], []
        for dtype in (np.float32, np.float64):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                res = enhance(np.stack([0.5 * tone, 0.25 * tone]).astype(dtype),
                              init_random(cfg, 0), cfg)
            rms.append(np.sqrt(np.mean(res.wave.astype(np.float64) ** 2)))
        assert rms[1] > 0.05
        np.testing.assert_allclose(rms[0], rms[1], rtol=1e-5)

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

    def test_count_reads_the_statistics_width(self):
        # two products per source and frame, each over every column of the
        # statistics a sweep runs on
        spec = random_spec(np.random.default_rng(0), frames=3)
        per_iter = iva_macs_per_second(IvaConfig(iterations=1))
        assert per_iter == 2 * 2 * covariance_stats(spec).shape[1] * StftConfig.frames_per_second
        assert per_iter == 257000.0

    def test_linear_in_iterations(self):
        assert (iva_macs_per_second(IvaConfig(iterations=40))
                == 2.0 * iva_macs_per_second(IvaConfig(iterations=20)))

"""Metric identities: scale invariance, compressed-spectrum terms, blending."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridse import (hybrid_loss, imag_loss, mag_loss, real_loss, si_snr,
                      sisnr_loss, snr)
from hybridse.errors import DegenerateInputError, InvalidInputError


def compressed_parts_naive(spec, power=0.3, floor=1e-12):
    """Scalar per-cell recomputation of the compressed magnitude/real/imag."""
    mags, reals, imags = [], [], []
    for v in np.asarray(spec).ravel():
        m = max(abs(v), floor)
        mags.append(m ** power)
        reals.append(v.real / m ** (1.0 - power))
        imags.append(v.imag / m ** (1.0 - power))
    return np.array(mags), np.array(reals), np.array(imags)


class TestSiSnr:
    def test_perfect_estimate_hits_cap(self):
        ref = np.sin(np.linspace(0, 20, 500))
        assert si_snr(ref, ref) == 100.0
        assert sisnr_loss(ref, ref) == -100.0

    def test_scaled_estimate_equivalent(self):
        rng = np.random.default_rng(0)
        ref = rng.standard_normal(400)
        est = ref + 0.1 * rng.standard_normal(400)
        assert sisnr_loss(2.0 * est, ref) == pytest.approx(sisnr_loss(est, ref),
                                                           abs=1e-9)

    def test_orthogonal_equal_energy_noise_is_zero_db(self):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal(600)
        noise = rng.standard_normal(600)
        noise -= (np.dot(noise, ref) / np.dot(ref, ref)) * ref
        noise *= np.linalg.norm(ref) / np.linalg.norm(noise)
        assert abs(si_snr(ref + noise, ref)) < 1e-6

    def test_matches_naive_formula(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(300)
        est = 0.8 * ref + 0.3 * rng.standard_normal(300)
        assert si_snr(est, ref) == pytest.approx(oracles.si_snr_naive(est, ref),
                                                 abs=1e-10)

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateInputError):
            si_snr(np.ones(10), np.zeros(10))

    def test_empty_signals_rejected(self):
        with pytest.raises(InvalidInputError, match="empty signals"):
            si_snr(np.zeros(0), np.zeros(0))

    def test_all_zero_estimate_hits_floor(self):
        assert si_snr(np.zeros(10), np.ones(10)) == -100.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            si_snr(np.ones(10), np.ones(11))

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_scale_invariance_property(self, c, seed):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(128)
        est = ref + 0.5 * rng.standard_normal(128)
        assert si_snr(c * est, ref) == pytest.approx(si_snr(est, ref), abs=1e-9)


class TestCompressedLosses:
    def test_equal_inputs_zero(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert mag_loss(s, s) == 0.0
        assert real_loss(s, s) == 0.0
        assert imag_loss(s, s) == 0.0

    def test_conjugate_phase_only_mismatch(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal((5, 5)) + 1j * rng.uniform(0.5, 1.5, (5, 5))
        est = np.conj(s)
        assert mag_loss(est, s) == pytest.approx(0.0, abs=1e-15)
        assert imag_loss(est, s) > 0.0

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        e = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        em, er, ei = compressed_parts_naive(e)
        sm, sr, si = compressed_parts_naive(s)
        assert mag_loss(e, s) == pytest.approx(np.mean((em - sm) ** 2), abs=1e-9)
        assert real_loss(e, s) == pytest.approx(np.mean((er - sr) ** 2), abs=1e-9)
        assert imag_loss(e, s) == pytest.approx(np.mean((ei - si) ** 2), abs=1e-9)

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        e = s.copy()
        e[2, 2] += 0.01
        for fn in (mag_loss, real_loss, imag_loss):
            assert fn(e, s) > 0.0
            assert fn(s, s) == 0.0

    def test_floor_handles_exact_zeros(self):
        z = np.zeros((2, 3), dtype=complex)
        assert mag_loss(z, z) == 0.0
        assert real_loss(z, z) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            mag_loss(np.zeros((2, 3), dtype=complex),
                     np.zeros((3, 2), dtype=complex))


class TestHybrid:
    def test_perfect_estimate_value(self):
        rng = np.random.default_rng(7)
        wave = rng.standard_normal(256)
        spec = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        # the -100 dB cap makes the time term 0.01 * (-100) = -1
        assert hybrid_loss(wave, wave, spec, spec) == pytest.approx(-1.0)

    def test_beta_zero_drops_part_losses(self):
        rng = np.random.default_rng(8)
        wave_e = rng.standard_normal(256)
        wave_r = rng.standard_normal(256)
        spec_e = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        spec_r = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        got = hybrid_loss(wave_e, wave_r, spec_e, spec_r, alpha=0.01, beta=0.0)
        want = 0.01 * sisnr_loss(wave_e, wave_r) + mag_loss(spec_e, spec_r)
        assert got == pytest.approx(want, abs=1e-12)

    def test_composition_equals_weighted_sum(self):
        rng = np.random.default_rng(9)
        wave_e = rng.standard_normal(512)
        wave_r = rng.standard_normal(512)
        spec_e = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        spec_r = rng.standard_normal((6, 10)) + 1j * rng.standard_normal((6, 10))
        alpha, beta = 0.01, 0.3
        got = hybrid_loss(wave_e, wave_r, spec_e, spec_r, alpha, beta)
        want = (alpha * sisnr_loss(wave_e, wave_r)
                + (1 - beta) * mag_loss(spec_e, spec_r)
                + beta * (real_loss(spec_e, spec_r) + imag_loss(spec_e, spec_r)))
        assert got == pytest.approx(want, abs=1e-12)

    def test_affine_in_each_component(self):
        # finite-difference the weights: d(loss)/d(alpha) is the sisnr term,
        # d(loss)/d(beta) is real + imag - mag
        rng = np.random.default_rng(10)
        wave_e = rng.standard_normal(128)
        wave_r = rng.standard_normal(128)
        spec_e = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        spec_r = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        f = lambda a, b: hybrid_loss(wave_e, wave_r, spec_e, spec_r, a, b)
        d_alpha = (f(0.02, 0.3) - f(0.01, 0.3)) / 0.01
        assert d_alpha == pytest.approx(sisnr_loss(wave_e, wave_r), rel=1e-9)
        d_beta = (f(0.01, 0.4) - f(0.01, 0.3)) / 0.1
        expect = (real_loss(spec_e, spec_r) + imag_loss(spec_e, spec_r)
                  - mag_loss(spec_e, spec_r))
        assert d_beta == pytest.approx(expect, rel=1e-6)


class TestPlainSnr:
    def test_residual_definition(self):
        rng = np.random.default_rng(11)
        ref = rng.standard_normal(200)
        est = ref + 0.1 * rng.standard_normal(200)
        expect = 10 * math.log10(np.sum(ref ** 2) / np.sum((est - ref) ** 2))
        assert snr(est, ref) == pytest.approx(expect, abs=1e-12)

    def test_exact_match_capped(self):
        x = np.ones(50)
        assert snr(x, x) == 100.0

    def test_zero_reference_rejected(self):
        with pytest.raises(DegenerateInputError, match="reference signal is all zeros"):
            snr(np.ones(10), np.zeros(10))

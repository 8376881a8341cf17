"""ERB band pooling: 257 bins <-> 129 bands with a transparent low region."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridse.bands import (N_BANDS, N_BINS, N_LOW, ErbFilterbank, band_merge,
                            band_split, hz_to_erb_rate, make_erb_filterbank)
from hybridse.errors import InvalidInputError


class TestConstruction:
    def test_shapes_and_counts(self, fb):
        assert fb.merge_weights.shape == (64, 192)
        assert fb.split_weights.shape == (192, 64)
        assert N_LOW == 65
        assert N_BINS == 257
        assert N_BANDS == 129

    def test_layout_is_fixed_and_read_only(self, fb):
        # no filterbank with other counts can be built, so band_merge never
        # sees counts that disagree with its weights
        assert fb == ErbFilterbank()
        with pytest.raises(TypeError):
            dataclasses.replace(fb, n_bins=300)
        for a in (fb.merge_weights, fb.split_weights, fb.band_of_bin, fb.center_erb):
            with pytest.raises(ValueError):
                a[0] = 0

    def test_boundary_bins(self, fb):
        # bin 64 stays in the pass-through region, bin 65 opens band 0,
        # the Nyquist bin closes band 63
        assert fb.band_of_bin[0] == 0
        assert fb.band_of_bin[-1] == 63
        assert len(fb.band_of_bin) == 192

    def test_merge_rows_are_normalized_averages(self, fb):
        np.testing.assert_allclose(fb.merge_weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(fb.merge_weights >= 0)

    def test_each_bin_feeds_exactly_one_band(self, fb):
        # hard partition: one nonzero per column, equal to 1/band width
        nonzero_per_bin = (fb.merge_weights > 0).sum(axis=0)
        np.testing.assert_array_equal(nonzero_per_bin, 1)
        widths = np.bincount(fb.band_of_bin, minlength=64)
        for j in range(192):
            band = fb.band_of_bin[j]
            assert fb.merge_weights[band, j] == pytest.approx(1.0 / widths[band])

    def test_split_rows_sum_to_one(self, fb):
        np.testing.assert_allclose(fb.split_weights.sum(axis=1), 1.0, atol=1e-12)
        assert np.all((fb.split_weights == 0) | (fb.split_weights == 1))

    def test_split_is_row_renormalized_merge_transpose(self, fb):
        t = fb.merge_weights.T.copy()
        t /= t.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(fb.split_weights, t, atol=1e-12)

    def test_band_widths_cover_all_high_bins(self, fb):
        assert fb.band_of_bin.min() == 0
        assert fb.band_of_bin.max() == 63
        assert np.all(np.diff(fb.band_of_bin) >= 0)
        assert np.bincount(fb.band_of_bin, minlength=64).min() >= 1

    def test_centers_uniform_on_erb_rate(self, fb):
        spacing = np.diff(fb.center_erb)
        assert np.all(spacing > 0)
        lo = hz_to_erb_rate(65 * 16000 / 512)
        hi = hz_to_erb_rate(8000.0)
        expect = (hi - lo) / 64
        np.testing.assert_allclose(spacing, expect, atol=1e-9)

    def test_erb_rate_formula(self):
        assert hz_to_erb_rate(0.0) == 0.0
        assert hz_to_erb_rate(1000.0) == pytest.approx(21.4 * np.log10(1 + 4.37))


class TestMerge:
    def test_constant_spectrum_maps_to_constant_bands(self, fb):
        out = band_merge(np.ones(257), fb)
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_low_band_identity(self, fb):
        x = np.zeros(257)
        x[10] = 3.5
        out = band_merge(x, fb)
        assert out[10] == 3.5
        out[10] = 0.0
        np.testing.assert_array_equal(out, 0.0)

    def test_matches_dense_matmul_oracle(self, fb):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(257)
        got = band_merge(x, fb)
        want = oracles.band_merge_naive(x, fb)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_applies_per_channel_and_frame(self, fb):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((3, 5, 257))
        out = band_merge(x, fb)
        assert out.shape == (3, 5, 129)
        np.testing.assert_allclose(out[2, 4], band_merge(x[2, 4], fb))

    def test_shape_mismatch_rejected(self, fb):
        with pytest.raises(InvalidInputError):
            band_merge(np.zeros(129), fb)

    @pytest.mark.parametrize("kind", ["signed", "log-power", "positive"])
    def test_float32_within_dot_product_rounding(self, fb, kind):
        # float32 in, float32 out: the low bins pass unchanged, and each band
        # is within the rounding bound of an n-term dot product plus the
        # rounding of the weights, gamma_{n+1} * sum |w x| (u = 2**-24), of
        # the float64 product; measured, about 2.5 float32 ulps of sum |w x|
        rng = np.random.default_rng(8)
        x = rng.standard_normal((6, 40, 257))
        if kind == "log-power":
            x = np.log(np.maximum(x ** 2, 1e-12))
        elif kind == "positive":
            x = 100 * np.abs(x)
        x = x.astype(np.float32)
        got = band_merge(x, fb)
        assert got.dtype == np.float32
        assert got[..., :65].tobytes() == x[..., :65].tobytes()
        x64 = x.astype(np.float64)[..., 65:]
        width = (fb.merge_weights > 0).sum(axis=1) + 1
        gamma = width * 2.0 ** -24 / (1 - width * 2.0 ** -24)
        bound = gamma * (np.abs(x64) @ fb.merge_weights.T)
        assert np.all(np.abs(got[..., 65:] - x64 @ fb.merge_weights.T) <= bound)

    def test_float64_gives_the_concatenated_product(self, fb):
        x = np.random.default_rng(9).standard_normal((3, 30, 257))
        got = band_merge(x, fb)
        assert got.dtype == np.float64
        assert got.tobytes() == oracles.band_merge_concat(x, fb).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blocks_of_19_frames_or_more_equal_the_whole_merge(self, fb, dtype):
        # BLAS rounds a product of 18 rows or fewer differently from a
        # taller one; the forward pass's blocks are never that short
        x = (10 * np.random.default_rng(10).standard_normal((6, 625, 257))).astype(dtype)
        whole = band_merge(x, fb)
        for rows in (19, 20, 33, 64, 128, 208, 209, 256):
            for start in (0, 7, 625 - rows):
                block = band_merge(x[:, start:start + rows], fb)
                assert block.tobytes() == whole[:, start:start + rows].tobytes()
        for a, b in ((0, 208), (208, 416), (416, 625)):
            assert band_merge(x[:, a:b], fb).tobytes() == whole[:, a:b].tobytes()

    def test_default_layout(self, fb):
        x = np.random.default_rng(7).standard_normal((2, 257))
        np.testing.assert_array_equal(band_merge(x), band_merge(x, fb))
        np.testing.assert_array_equal(band_split(x[:, :129]), band_split(x[:, :129], fb))


class TestSplit:
    def test_all_ones_bands_to_all_ones_bins(self, fb):
        np.testing.assert_allclose(band_split(np.ones(129), fb), 1.0, atol=1e-12)

    def test_matches_dense_matmul_oracle(self, fb):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(129)
        got = band_split(x, fb)
        want = oracles.band_split_naive(x, fb)
        np.testing.assert_allclose(got, want, atol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_equals_dense_product(self, fb, dtype):
        x = np.random.default_rng(3).standard_normal((2, 625, 129)).astype(dtype)
        got = band_split(x, fb)
        want = oracles.band_split_dense(x, fb)
        assert got.dtype == dtype and want.dtype == np.float64
        assert got.astype(np.float64).tobytes() == want.tobytes()

    def test_infinite_band_stays_in_its_bins(self, fb):
        x = np.random.default_rng(4).standard_normal(129)
        x[N_LOW + 10] = np.inf
        out = band_split(x, fb)
        members = N_LOW + np.flatnonzero(fb.band_of_bin == 10)
        assert np.all(out[members] == np.inf)
        assert np.count_nonzero(~np.isfinite(out)) == members.size
        with np.errstate(invalid="ignore"):      # the dense product spreads it: inf * 0
            assert np.isnan(oracles.band_split_dense(x, fb)).sum() > members.size

    def test_shape_mismatch_rejected(self, fb):
        with pytest.raises(InvalidInputError):
            band_split(np.zeros(257), fb)


class TestRoundTrips:
    def test_merge_after_split_is_identity_on_band_space(self, fb):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((4, 129))
        np.testing.assert_allclose(band_merge(band_split(v, fb), fb), v,
                                   atol=1e-6)

    def test_split_after_merge_exact_on_band_constant_spectra(self, fb):
        rng = np.random.default_rng(4)
        bands = rng.standard_normal(129)
        x = band_split(bands, fb)  # constant within every band by construction
        np.testing.assert_allclose(band_split(band_merge(x, fb), fb), x,
                                   rtol=1e-12, atol=1e-12)

    def test_low_frequency_transparency(self, fb):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(257)
        merged = band_merge(x, fb)
        np.testing.assert_array_equal(merged[:65], x[:65])
        np.testing.assert_array_equal(band_split(merged, fb)[:65], x[:65])

    def test_nonnegativity_preserved(self, fb):
        rng = np.random.default_rng(6)
        x = np.abs(rng.standard_normal((2, 257)))
        assert np.all(band_merge(x, fb) >= 0)
        assert np.all(band_split(np.abs(rng.standard_normal(129)), fb) >= 0)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_band_space_identity_property(self, fb, seed):
        v = np.random.default_rng(seed).uniform(-10, 10, 129)
        np.testing.assert_allclose(band_merge(band_split(v, fb), fb), v,
                                   atol=1e-6)

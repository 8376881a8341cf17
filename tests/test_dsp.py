"""Analysis/synthesis transforms: framing, round trips, energy bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridse import StftConfig, istft, log_power, stft
from hybridse.dsp import sqrt_hann
from hybridse.errors import InvalidInputError

FS = 16000


def chirp(n, f0=80.0, f1=7000.0):
    t = np.arange(n) / FS
    return 0.5 * np.sin(2 * np.pi * (f0 * t + (f1 - f0) * t ** 2 / (2 * t[-1])))


class TestConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.fft_size == 512
        assert cfg.hop == 256
        assert cfg.n_bins == 257
        assert cfg.frames_per_second == 62.5

    def test_fft_size_power_of_two_and_hop_divides(self):
        cfg = StftConfig()
        assert cfg.fft_size & (cfg.fft_size - 1) == 0
        assert cfg.fft_size % cfg.hop == 0

    def test_window_satisfies_cola(self):
        # sum of squared shifted windows is constant at 50% overlap
        w = sqrt_hann(512)
        acc = np.zeros(512 * 4)
        for m in range(7):
            acc[m * 256:m * 256 + 512] += w ** 2
        interior = acc[512:-512]
        assert np.allclose(interior, interior[0], atol=1e-12)

    def test_frame_count_is_ceil(self):
        cfg = StftConfig()
        assert cfg.n_frames(256) == 1
        assert cfg.n_frames(257) == 2
        assert cfg.n_frames(16000) == 63

    def test_equal_configs_compare_and_hash_equal(self):
        a, b = StftConfig(), StftConfig(512, 256)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, StftConfig()}) == 1
        assert StftConfig(hop=128) != a

    def test_stored_window_is_read_only(self):
        # one default instance is shared by every function that takes it as
        # a default argument
        with pytest.raises(ValueError):
            stft.__defaults__[0].window[0] = 1.0
        np.testing.assert_array_equal(StftConfig(256, 128).window, sqrt_hann(256))


class TestStft:
    def test_zero_waveform_gives_zero_spectrogram(self):
        spec = stft(np.zeros(FS), StftConfig())
        assert spec.shape == (63, 257)
        assert np.all(spec == 0)

    def test_impulse_frame_is_dft_of_windowed_impulse(self):
        cfg = StftConfig()
        w = sqrt_hann(cfg.fft_size)
        for pos in (0, 5):
            x = np.zeros(cfg.fft_size)
            x[pos] = 1.0
            frame0 = stft(x, cfg)[0]
            expect = oracles.dft_naive(x * w)
            np.testing.assert_allclose(frame0, expect, atol=1e-10)
            np.testing.assert_allclose(np.abs(frame0), w[pos], atol=1e-10)

    def test_sine_peaks_at_expected_bin(self):
        cfg = StftConfig()
        t = np.arange(FS) / FS
        spec = stft(np.sin(2 * np.pi * 1000.0 * t), cfg)
        steady = np.abs(spec[20])
        assert np.argmax(steady) == round(1000 * 512 / 16000) == 32

    def test_matches_direct_dft_oracle(self):
        cfg = StftConfig()
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1400)
        got = stft(x, cfg)
        want = oracles.stft_naive(x, cfg.fft_size, cfg.hop, sqrt_hann(512))
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_two_channel_layout(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4000))
        spec = stft(x, cfg)
        assert spec.shape == (2, cfg.n_frames(4000), 257)
        np.testing.assert_array_equal(spec[1], stft(x[1], cfg))

    def test_empty_waveform_rejected(self):
        with pytest.raises(InvalidInputError):
            stft(np.zeros(0), StftConfig())

    def test_linearity(self):
        cfg = StftConfig()
        rng = np.random.default_rng(2)
        x = rng.standard_normal(3000)
        y = rng.standard_normal(3000)
        lhs = stft(2.5 * x - 1.25 * y, cfg)
        rhs = 2.5 * stft(x, cfg) - 1.25 * stft(y, cfg)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


class TestIstft:
    def test_round_trip_white_noise_interior(self):
        cfg = StftConfig()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(FS)
        y = istft(stft(x, cfg), cfg, length=FS)
        err = np.linalg.norm(y[512:-512] - x[512:-512]) / np.linalg.norm(x[512:-512])
        assert err < 1e-6

    def test_zero_spectrogram_gives_silence(self):
        cfg = StftConfig()
        out = istft(np.zeros((10, 257), dtype=complex), cfg, length=2560)
        assert out.shape == (2560,)
        assert np.all(out == 0)

    def test_matches_naive_overlap_add(self):
        cfg = StftConfig()
        x = chirp(3000)
        spec = stft(x, cfg)
        got = istft(spec, cfg, length=3000)
        want = oracles.istft_naive(spec, cfg.fft_size, cfg.hop,
                                   sqrt_hann(512), 3000)
        assert np.max(np.abs(got - want)) < 1e-6

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            istft(np.zeros((10, 129), dtype=complex), StftConfig(), length=100)

    def test_length_extension_pads_zeros(self):
        cfg = StftConfig()
        x = np.ones(1000)
        out = istft(stft(x, cfg), cfg, length=1500)
        assert out.shape == (1500,)
        assert np.all(out[1280:] == 0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1537, max_value=6000), st.integers(0, 2 ** 32 - 1))
    def test_round_trip_property(self, n, seed):
        cfg = StftConfig()
        x = np.random.default_rng(seed).uniform(-1, 1, n)
        y = istft(stft(x, cfg), cfg, length=n)
        mid = slice(512, n - 512)
        err = np.linalg.norm(y[mid] - x[mid]) / max(np.linalg.norm(x[mid]), 1e-30)
        assert err < 1e-6


class TestParseval:
    def test_frame_energy_matches_spectrum(self):
        cfg = StftConfig()
        rng = np.random.default_rng(4)
        x = rng.standard_normal(4096)
        spec = stft(x, cfg)
        w = sqrt_hann(512)
        for l in (2, 5, 9):
            frame = x[l * 256:l * 256 + 512] * w
            e_time = np.sum(frame ** 2)
            mags = np.abs(spec[l]) ** 2
            e_spec = (mags[0] + 2 * np.sum(mags[1:-1]) + mags[-1]) / 512
            assert abs(e_time - e_spec) / e_time < 1e-6


class TestLogPower:
    def test_unit_magnitude_gives_zero(self):
        spec = np.exp(1j * np.linspace(0, 6, 257))[None, None, :] * np.ones((1, 4, 1))
        out = log_power(spec)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)

    def test_silence_hits_floor(self):
        out = log_power(np.zeros((2, 3, 257), dtype=complex), floor=1e-12)
        np.testing.assert_allclose(out, np.log(1e-12))
        assert out.shape == (2, 3, 257)

    def test_matches_elementwise_recomputation(self):
        rng = np.random.default_rng(5)
        spec = rng.standard_normal((2, 6, 257)) + 1j * rng.standard_normal((2, 6, 257))
        out = log_power(spec)
        for idx in [(0, 0, 0), (1, 3, 100), (1, 5, 256)]:
            v = abs(spec[idx]) ** 2
            assert out[idx] == pytest.approx(np.log(max(v, 1e-12)), rel=1e-12)

    def test_floor_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            log_power(np.zeros((1, 1, 257), dtype=complex), floor=0.0)

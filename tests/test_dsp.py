"""Analysis/synthesis transforms: framing, round trips, energy bookkeeping."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from hybridse import StftConfig, istft, log_power, stft
from hybridse.dsp import istft_blocks, sqrt_hann
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
        a, b = StftConfig(), StftConfig()
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, StftConfig()}) == 1

    def test_stored_window_is_read_only(self):
        # one default instance is shared by every function that takes it as
        # a default argument
        with pytest.raises(ValueError):
            stft.__defaults__[0].window[0] = 1.0
        np.testing.assert_array_equal(StftConfig().window, sqrt_hann(512))


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

    @pytest.mark.parametrize("cfg, shape", [
        (StftConfig(), (1400,)),
        (StftConfig(), (769,)),           # one sample past a whole number of hops
        (StftConfig(), (2, 700)),
    ], ids=["default", "len769", "stereo"])
    def test_matches_direct_dft_oracle(self, cfg, shape):
        x = np.random.default_rng(0).standard_normal(shape)
        got = stft(x, cfg)
        want = np.stack([oracles.stft_naive(ch, cfg.fft_size, cfg.hop, sqrt_hann(cfg.fft_size))
                         for ch in np.atleast_2d(x)])
        if x.ndim == 1:
            want = want[0]
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_two_channel_layout(self):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 4000))
        spec = stft(x, cfg)
        assert spec.shape == (2, cfg.n_frames(4000), 257)
        np.testing.assert_array_equal(spec[1], stft(x[1], cfg))

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["mono", "stereo"])
    @pytest.mark.parametrize("n", [1, 256, 257, 63 * 256 + 1, 64 * 256, 64 * 256 + 1,
                                   128 * 256 + 7, 160000])
    def test_blocks_equal_whole_file_transform(self, n, lead):
        cfg = StftConfig()
        x = np.random.default_rng(n).standard_normal(lead + (n,))
        got = stft(x, cfg)
        want = oracles.stft_whole(x, cfg.fft_size, cfg.hop, sqrt_hann(cfg.fft_size))
        assert got.shape == want.shape == lead + (cfg.n_frames(n), cfg.n_bins)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_the_padded_copy_and_the_output(self):
        cfg = StftConfig()
        n = 60 * FS
        x = np.random.default_rng(6).standard_normal(n)
        n_frames = cfg.n_frames(n)
        padded_bytes = ((n_frames - 1) * cfg.hop + cfg.fft_size) * 8
        out_bytes = n_frames * cfg.n_bins * 16
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            stft(x, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= padded_bytes + out_bytes + (1 << 20)

    def test_empty_waveform_rejected(self):
        with pytest.raises(InvalidInputError):
            stft(np.zeros(0), StftConfig())

    def test_waveform_beyond_2d_rejected(self):
        with pytest.raises(InvalidInputError, match=r"1-D or 2-D, got shape \(2, 2, 300\)"):
            stft(np.zeros((2, 2, 300)), StftConfig())

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

    @pytest.mark.parametrize("shape, length", [
        ((1, 257), 512), ((2, 257), 768), ((12, 257), 3000),
        ((625, 257), 160000), ((2, 12, 257), 3000), ((3, 257), 2000)],
        ids=["1_frame", "2_frames", "3000_samples", "160000_samples", "stereo",
             "length_past_extent"])
    def test_overlap_add_equals_frame_loop(self, shape, length):
        cfg = StftConfig()
        rng = np.random.default_rng(11)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = istft(spec, cfg, length=length)
        want = oracles.istft_frame_loop(spec, cfg.fft_size, cfg.hop, sqrt_hann(512), length)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()   # signed zeros too

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["mono", "stereo"])
    @pytest.mark.parametrize("n_frames", [1, 2, 3, 125])
    def test_per_block_division_equals_whole_envelope(self, n_frames, lead):
        cfg = StftConfig()
        shape = lead + (n_frames, cfg.n_bins)
        rng = np.random.default_rng(n_frames)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        total = (n_frames - 1) * cfg.hop + cfg.fft_size
        # empty, short of the overlap-add extent, at it, and past it
        for length in (0, total - 300, total, total + 300):
            got = istft(spec, cfg, length=length)
            want = oracles.istft_whole_envelope(spec, cfg.fft_size, cfg.hop, sqrt_hann(512),
                                                length)
            assert got.shape == want.shape == lead + (length,)
            assert got.tobytes() == want.tobytes()   # signed zeros too
        assert istft(spec, cfg).tobytes() == istft(spec, cfg, length=total).tobytes()

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["mono", "stereo"])
    @pytest.mark.parametrize("n_frames", [1, 63, 64, 65, 128, 129, 700])
    def test_block_loop_equals_whole_array_synthesis(self, n_frames, lead):
        # frames are inverted PASS_FRAMES (64) at a time: the counts sit on
        # each side of one and two block edges, and 700 spans eleven blocks
        cfg = StftConfig()
        shape = lead + (n_frames, cfg.n_bins)
        rng = np.random.default_rng(100 + n_frames)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        total = (n_frames - 1) * cfg.hop + cfg.fft_size
        # short of the overlap-add extent, at it, and past it
        for length in (total - cfg.hop - 7, total, total + 3 * cfg.hop + 5):
            got = istft(spec, cfg, length=length)
            want = oracles.istft_whole(spec, cfg.fft_size, cfg.hop, sqrt_hann(512), length)
            assert got.shape == want.shape == lead + (length,)
            assert got.tobytes() == want.tobytes()   # signed zeros too

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["mono", "stereo"])
    def test_blocks_of_any_cut_equal_one_spectrogram(self, lead):
        # each run of frames is inverted PASS_FRAMES at a time from its own
        # start, which gives the bytes of one inversion of every frame
        cfg = StftConfig()
        shape = lead + (300, cfg.n_bins)
        rng = np.random.default_rng(300)
        spec = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = istft(spec, cfg, length=300 * cfg.hop - 50)
        for cuts in ([300], [1, 299], [63, 65, 172], [0, 100, 0, 200], [7] * 42 + [6]):
            edges = np.cumsum([0, *cuts])
            blocks = (spec[..., a:b, :] for a, b in zip(edges, edges[1:]))
            got = istft_blocks(blocks, 300, cfg, length=300 * cfg.hop - 50)
            assert got.tobytes() == want.tobytes()

    def test_blocks_that_do_not_tile_the_frames_rejected(self):
        spec = np.zeros((2, 10, 257), dtype=complex)
        with pytest.raises(InvalidInputError, match="2-D or 3-D"):
            istft_blocks([spec[0, 0]], 10)
        with pytest.raises(InvalidInputError, match="bin count 129"):
            istft_blocks([spec[..., :129]], 10)
        with pytest.raises(InvalidInputError, match="does not continue"):
            istft_blocks([spec[:, :6], spec[0, 6:]], 10)       # another channel count
        with pytest.raises(InvalidInputError, match="does not continue"):
            istft_blocks([spec, spec[:, :1]], 10)               # one frame too many
        with pytest.raises(InvalidInputError, match="blocks hold 9 frames, expected 10"):
            istft_blocks([spec[:, :9]], 10)
        with pytest.raises(InvalidInputError, match="blocks hold 0 frames, expected 3"):
            istft_blocks([], 3)

    def test_peak_memory_is_the_transform_and_the_output(self):
        cfg = StftConfig()
        n = 60 * FS
        spec = stft(np.random.default_rng(5).standard_normal(n), cfg)
        n_frames = spec.shape[0]
        out_bytes = (n_frames + 1) * cfg.hop * 8          # the overlap-add blocks
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            istft(spec, cfg, length=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the output, one 64-frame block's inverse transform and its
        # temporaries: 0.53 MB measured, against 15.4 MB for all the frames
        assert peak - entry <= out_bytes + (1 << 20)

    def test_bin_count_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            istft(np.zeros((10, 129), dtype=complex), StftConfig(), length=100)

    @pytest.mark.parametrize("shape", [(257,), (2, 2, 10, 257)], ids=["1d", "4d"])
    def test_spectrogram_not_2d_or_3d_rejected(self, shape):
        message = f"2-D or 3-D, got shape {re.escape(str(shape))}"
        with pytest.raises(InvalidInputError, match=message):
            istft(np.zeros(shape, dtype=complex), StftConfig())

    def test_negative_length_rejected(self):
        with pytest.raises(InvalidInputError, match="non-negative"):
            istft(np.zeros((10, 257), dtype=complex), StftConfig(), length=-5)

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
        out = log_power(np.zeros((2, 3, 257), dtype=complex))
        np.testing.assert_allclose(out, np.log(1e-12))
        assert out.shape == (2, 3, 257)

    def test_matches_elementwise_recomputation(self):
        rng = np.random.default_rng(5)
        spec = rng.standard_normal((2, 6, 257)) + 1j * rng.standard_normal((2, 6, 257))
        out = log_power(spec)
        for idx in [(0, 0, 0), (1, 3, 100), (1, 5, 256)]:
            v = abs(spec[idx]) ** 2
            assert out[idx] == pytest.approx(np.log(max(v, 1e-12)), rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128, np.float64])
    def test_in_place_passes_equal_fresh_arrays(self, dtype):
        rng = np.random.default_rng(6)
        spec = (rng.standard_normal((2, 6, 257)) + 1j * rng.standard_normal((2, 6, 257)))
        spec = (spec.real if dtype == np.float64 else spec).astype(dtype)
        spec[0, 0, :3] = 0.0                      # the floor
        want = np.log(np.maximum(np.abs(spec) ** 2, 1e-12))
        got = log_power(spec)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_overflowing_power_is_inf_without_warning(self):
        # rejecting it is the caller's range check, as for stft's overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_power(np.array([1e200 + 0j, -1e300, 1.0]))
        assert out.tolist() == [np.inf, np.inf, 0.0]

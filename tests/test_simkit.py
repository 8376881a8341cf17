"""Scene sampling, image-method RIRs, SNR mixing, decay measurement."""

import dataclasses

import numpy as np
import pytest

import oracles
from hybridse import (Rir, SceneConstraints, SceneSpec, apply_rir,
                      early_target, image_rir, mix_at_snr, read_manifest,
                      render_scene, sabine_absorption, sample_scene,
                      schroeder_rt60, simkit, write_manifest)
from hybridse.cli import main
from hybridse.errors import InvalidInputError, SceneInfeasibleError
from hybridse.wavio import write_wav

FS = 16000


def controlled_scene(rt60=0.3, dist=2.0):
    return SceneSpec(
        room_dims=np.array([6.0, 5.0, 3.0]),
        rt60=rt60,
        mic_positions=np.array([[2.98, 2.5, 1.5], [3.02, 2.5, 1.5]]),
        source_position=np.array([3.0, 2.5 + dist, 1.5]),
        noise_position=np.array([1.0, 1.0, 1.5]),
        snr_db=-5.0,
        seed=0)


class TestSampleScene:
    def test_deterministic(self):
        a = sample_scene(42)
        b = sample_scene(42)
        np.testing.assert_array_equal(a.room_dims, b.room_dims)
        np.testing.assert_array_equal(a.mic_positions, b.mic_positions)
        np.testing.assert_array_equal(a.source_position, b.source_position)
        np.testing.assert_array_equal(a.noise_position, b.noise_position)
        assert a.rt60 == b.rt60 and a.snr_db == b.snr_db

    def test_invariants_hold_over_many_seeds(self):
        c = SceneConstraints()
        for seed in range(300):
            s = sample_scene(seed, c)
            center = s.mic_positions.mean(axis=0)
            dist = np.linalg.norm(s.source_position - center)
            assert min(abs(dist - d) for d in c.distances) < 1e-9
            assert np.linalg.norm(s.mic_positions[1] - s.mic_positions[0]) == \
                pytest.approx(c.mic_spacing, abs=1e-12)
            assert c.rt60_range[0] <= s.rt60 <= c.rt60_range[1]
            assert c.snr_range[0] <= s.snr_db <= c.snr_range[1]
            for p in (s.source_position, s.noise_position):
                assert np.all(p >= c.wall_margin - 1e-12)
                assert np.all(p <= s.room_dims - c.wall_margin + 1e-12)
            sv = s.source_position - center
            nv = s.noise_position - center
            cos = np.dot(sv, nv) / (np.linalg.norm(sv) * np.linalg.norm(nv))
            assert np.degrees(np.arccos(np.clip(cos, -1, 1))) > c.min_doa_deg
            # renderable: Sabine absorption stays below 1
            assert sabine_absorption(s.room_dims, s.rt60) < 1.0

    def test_distance_distribution_roughly_uniform(self):
        c = SceneConstraints()
        center_dists = []
        for seed in range(2000):
            s = sample_scene(seed, c)
            center = s.mic_positions.mean(axis=0)
            center_dists.append(np.linalg.norm(s.source_position - center))
        for d in c.distances:
            frac = np.mean(np.isclose(center_dists, d, atol=1e-6))
            assert abs(frac - 0.25) < 0.05

    def test_infeasible_constraints_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(SceneConstraints, "max_attempts", 0)
        with pytest.raises(SceneInfeasibleError):
            sample_scene(0)
        sp_dir, nz_dir = tmp_path / "speech", tmp_path / "noise"
        for d in (sp_dir, nz_dir):
            d.mkdir()
            write_wav(d / "x.wav", FS, 0.1 * np.random.default_rng(0).standard_normal(1600))
        assert main(["simulate", "--speech-dir", str(sp_dir), "--noise-dir", str(nz_dir),
                     "--n-scenes", "1", "--out", str(tmp_path / "out")]) == 2
        assert "no Sabine-feasible room" in capsys.readouterr().err

    def test_spec_dict_round_trip(self):
        s = sample_scene(9)
        back = SceneSpec.from_dict(s.to_dict())
        np.testing.assert_array_equal(back.mic_positions, s.mic_positions)
        assert back.rt60 == s.rt60
        assert back.seed == s.seed


class TestSabine:
    def test_known_value(self):
        # alpha = 0.1611 * V / (S * RT60) for a 5 x 4 x 3 room at 0.3 s
        v = 5.0 * 4.0 * 3.0
        s = 2.0 * (20.0 + 15.0 + 12.0)
        assert sabine_absorption((5.0, 4.0, 3.0), 0.3) == \
            pytest.approx(0.1611 * v / (s * 0.3))

    def test_unreachable_rt60_rejected(self):
        with pytest.raises(InvalidInputError):
            sabine_absorption((10.0, 10.0, 3.0), 0.1)

    def test_bad_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            sabine_absorption((0.0, 4.0, 3.0), 0.3)
        with pytest.raises(InvalidInputError):
            sabine_absorption((5.0, 4.0, 3.0), 0.0)


class TestImageRir:
    def test_direct_tap_is_the_first_and_unreflected(self):
        # the direct sound arrives first, at the nearest-sample delay, with
        # the free-field 1 / (4 pi d) gain and no reflection loss
        sc = controlled_scene()
        rir = image_rir(sc)
        assert rir.fs == FS
        for m in range(2):
            d = np.linalg.norm(sc.source_position - sc.mic_positions[m])
            idx = int(round(d * FS / 343.0))
            assert idx == 93
            assert np.nonzero(rir.taps[m])[0][0] == idx
            assert rir.taps[m, idx] == pytest.approx(1.0 / (4 * np.pi * d))
            assert rir.direct_path_index[m] == idx

    def test_direct_path_ordering_with_distance(self):
        sc = SceneSpec(
            room_dims=np.array([6.0, 5.0, 3.0]), rt60=0.3,
            mic_positions=np.array([[2.0, 2.5, 1.5], [2.04, 2.5, 1.5]]),
            source_position=np.array([1.0, 2.5, 1.5]),
            noise_position=np.array([5.0, 1.0, 1.5]), snr_db=0.0, seed=0)
        rir = image_rir(sc)
        assert rir.direct_path_index[1] >= rir.direct_path_index[0]

    def test_no_taps_before_direct_arrival(self):
        rir = image_rir(controlled_scene())
        for m in range(2):
            dpi = rir.direct_path_index[m]
            assert np.all(rir.taps[m, :dpi] == 0.0)

    def test_truncated_at_horizon(self):
        sc = controlled_scene(rt60=0.25)
        rir = image_rir(sc)
        assert rir.taps.shape == (2, int(round((0.25 + 0.05) * FS)))

    def test_deterministic_bit_for_bit(self):
        a = image_rir(controlled_scene())
        b = image_rir(controlled_scene())
        np.testing.assert_array_equal(a.taps, b.taps)
        np.testing.assert_array_equal(a.direct_path_index, b.direct_path_index)

    @pytest.mark.parametrize("seed", range(8))
    def test_horizon_prune_keeps_every_tap(self, seed):
        # images are dropped by their distance from the mic midpoint before
        # the per-mic distances are taken; every image of the full box
        # within the order cap must still give the same taps
        sc = sample_scene(seed)
        rir = image_rir(sc)
        beta = np.sqrt(1.0 - sabine_absorption(sc.room_dims, sc.rt60))
        n_taps = rir.taps.shape[1]
        horizon = 343.0 * n_taps / FS
        max_order = int(np.ceil(horizon / np.min(sc.room_dims))) + 2
        (cx, rx), (cy, ry), (cz, rz) = [
            simkit._axis_images(sc.source_position[ax], sc.room_dims[ax],
                                int(np.ceil((horizon / sc.room_dims[ax] + 1) / 2)) + 1)
            for ax in range(3)]
        refl = (rx[:, None, None] + ry[None, :, None] + rz[None, None, :]).ravel()
        coords = np.stack(np.meshgrid(cx, cy, cz, indexing="ij"), -1).reshape(-1, 3)
        keep = refl <= max_order
        want = np.zeros_like(rir.taps)
        for m in range(2):
            d = np.maximum(np.linalg.norm(coords[keep] - sc.mic_positions[m], axis=1), 1e-3)
            idx = np.rint(d * FS / 343.0).astype(np.int64)
            ok = idx < n_taps
            np.add.at(want[m], idx[ok], (beta ** refl[keep] / (4 * np.pi))[ok] / d[ok])
        np.testing.assert_array_equal(rir.taps, want)

    @pytest.mark.parametrize("rt60", [0.2, 0.3, 0.4])
    def test_decay_tracks_requested_rt60(self, rt60):
        # mid-size room, 2 m source distance: the measured decay should sit
        # within +-30% of the request (closer mics or very short RT60 bias
        # the fit through the direct-path energy step)
        rir = image_rir(controlled_scene(rt60=rt60))
        assert schroeder_rt60(rir.taps[0], rir.fs) == pytest.approx(rt60, rel=0.3)


class TestEarlyTarget:
    def test_anechoic_rir_gives_delayed_scaled_speech(self):
        dpi, amp = 93, 0.04
        taps = np.zeros((2, 4800))
        taps[:, dpi] = amp
        rir = Rir(taps=taps, direct_path_index=np.array([dpi, dpi]))
        rng = np.random.default_rng(0)
        speech = rng.standard_normal(4000)
        out = early_target(speech, rir)
        np.testing.assert_allclose(out[:dpi], 0.0, atol=1e-12)
        np.testing.assert_allclose(out[dpi:], amp * speech[:4000 - dpi],
                                   atol=1e-12)

    def test_late_energy_excluded(self):
        taps = np.zeros((2, 2400))
        taps[:, 10] = 1.0
        taps[:, 10 + 850] = 0.7   # 53 ms after the direct tap
        rir = Rir(taps=taps, direct_path_index=np.array([10, 10]))
        speech = np.random.default_rng(1).standard_normal(2000)
        out = early_target(speech, rir)
        expect = np.zeros(2000)
        expect[10:] = speech[:1990]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(2)
        taps = np.zeros((2, 1200))
        taps[0, 7] = 1.0
        taps[0, 8:] = 0.05 * rng.standard_normal(1192)
        rir = Rir(taps=taps, direct_path_index=np.array([7, 7]))
        speech = rng.standard_normal(1500)
        got = early_target(speech, rir)
        kernel = taps[0, :7 + 800].copy()
        want = oracles.convolve_naive(speech, kernel)
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestConvolution:
    def test_apply_rir_matches_direct_convolution_oracle(self):
        rng = np.random.default_rng(3)
        taps = 0.05 * rng.standard_normal((2, 700))
        taps[:, 5] = 1.0
        rir = Rir(taps=taps, direct_path_index=np.array([5, 5]))
        wave = rng.standard_normal(1100)
        got = apply_rir(wave, rir)
        for m in range(2):
            np.testing.assert_allclose(got[m], oracles.convolve_naive(wave, taps[m]),
                                       atol=1e-9)

    def test_empty_impulse_response_rejected(self):
        rir = Rir(taps=np.zeros((2, 0)), direct_path_index=np.array([0, 0]))
        for convolve in (apply_rir, early_target):
            with pytest.raises(InvalidInputError, match="empty impulse response"):
                convolve(np.ones(4), rir)

    def test_fft_length_is_the_next_5_smooth_size(self):
        from scipy.fft import next_fast_len
        for n in [*range(1, 3000), 48000 + 4799, 2 ** 20 + 1, 10 ** 7 + 3]:
            assert simkit._fft_length(n) == next_fast_len(n, real=True), n

    def test_render_shares_the_speech_transform_exactly(self):
        # one transform of the speech serves its image and its early target;
        # both equal the standalone functions bit for bit
        rng = np.random.default_rng(9)
        speech, noise = 0.1 * rng.standard_normal((2, 6000))
        sc = controlled_scene()
        r = render_scene(sc, speech, noise)
        rir = image_rir(sc)
        np.testing.assert_array_equal(r.speech_image, apply_rir(speech, rir))
        np.testing.assert_array_equal(r.target, early_target(speech, rir) * r.norm)


class TestMixAtSnr:
    def test_zero_snr_equal_energy_unit_gain(self):
        rng = np.random.default_rng(3)
        s = 0.01 * rng.standard_normal((2, 4000))
        v = rng.permutation(s[0])
        v = 0.01 * rng.standard_normal((2, 4000))
        v *= np.sqrt(np.sum(s[0] ** 2) / np.sum(v[0] ** 2))
        mix, norm = mix_at_snr(s, v, 0.0)
        assert norm == 1.0
        np.testing.assert_allclose(mix, s + v, atol=1e-12)

    def test_minus_ten_db_noise_energy(self):
        rng = np.random.default_rng(4)
        s = 0.01 * rng.standard_normal((2, 4000))
        v = 0.01 * rng.standard_normal((2, 4000))
        mix, norm = mix_at_snr(s, v, -10.0)
        noise_part = mix - s * norm
        ratio = np.sum(noise_part[0] ** 2) / np.sum((s[0] * norm) ** 2)
        assert ratio == pytest.approx(10.0, rel=1e-9)

    def test_peak_normalization(self):
        s = np.zeros((2, 100))
        s[:, 50] = 4.0
        v = np.zeros((2, 100))
        v[:, 10] = 1.0
        mix, norm = mix_at_snr(s, v, 0.0)
        assert norm < 1.0
        assert np.max(np.abs(mix)) == pytest.approx(0.9)

    def test_degenerate_inputs_rejected(self):
        good = np.ones((2, 10))
        with pytest.raises(InvalidInputError):
            mix_at_snr(good, np.zeros((2, 10)), 0.0)
        with pytest.raises(InvalidInputError):
            mix_at_snr(np.zeros((2, 10)), good, 0.0)
        with pytest.raises(InvalidInputError):
            mix_at_snr(good, np.ones((2, 11)), 0.0)


class TestRenderScene:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(5)
        speech = 0.1 * rng.standard_normal(8000)
        noise = 0.1 * rng.standard_normal(3000)   # shorter: must be tiled
        sc = controlled_scene()
        a = render_scene(sc, speech, noise)
        b = render_scene(sc, speech, noise)
        assert a.mixture.shape == (2, 8000)
        assert a.target.shape == (8000,)
        np.testing.assert_array_equal(a.mixture, b.mixture)
        np.testing.assert_array_equal(a.target, b.target)

    def test_measured_snr_matches_request(self):
        rng = np.random.default_rng(6)
        speech = 0.1 * rng.standard_normal(16000)
        noise = 0.1 * rng.standard_normal(16000)
        sc = controlled_scene()
        r = render_scene(sc, speech, noise)
        e_s = np.sum((r.speech_image[0] * r.norm) ** 2)
        e_n = np.sum((r.mixture[0] - r.speech_image[0] * r.norm) ** 2)
        assert 10 * np.log10(e_s / e_n) == pytest.approx(sc.snr_db, abs=0.01)

    def test_norm_applied_to_target(self):
        rng = np.random.default_rng(7)
        speech = 50.0 * rng.standard_normal(8000)  # force clipping rescale
        noise = rng.standard_normal(8000)
        sc = controlled_scene()
        r = render_scene(sc, speech, noise)
        assert r.norm < 1.0
        rir = image_rir(sc)
        np.testing.assert_allclose(r.target, early_target(speech, rir) * r.norm,
                                   atol=1e-12)

    def test_noise_image_is_the_noise_source_scene(self):
        rng = np.random.default_rng(8)
        speech = 0.1 * rng.standard_normal(4000)
        noise = 0.1 * rng.standard_normal(4000)
        sc = controlled_scene()
        r = render_scene(sc, speech, noise)
        rir_n = image_rir(dataclasses.replace(sc, source_position=sc.noise_position))
        np.testing.assert_array_equal(r.noise_image, apply_rir(noise, rir_n))

    @pytest.mark.parametrize("n_speech, n_noise, message", [
        (0, 100, "empty speech signal"),
        (100, 0, "empty noise signal"),
    ], ids=["speech", "noise"])
    def test_empty_signal_named(self, n_speech, n_noise, message):
        with pytest.raises(InvalidInputError, match=message):
            render_scene(controlled_scene(), np.ones(n_speech), np.ones(n_noise))


class TestSchroeder:
    def test_known_exponential_decay(self):
        # amplitude exp(-t/tau) decays 8.686/tau dB per second in energy,
        # so RT60 = 60 tau / 8.686
        tau = 0.05
        t = np.arange(int(0.6 * FS)) / FS
        taps = np.exp(-t / tau)
        expect = 60.0 * tau / (20.0 * np.log10(np.e))
        assert schroeder_rt60(taps, FS) == pytest.approx(expect, rel=0.02)

    def test_monotone_in_decay_rate(self):
        t = np.arange(int(0.5 * FS)) / FS
        fast = schroeder_rt60(np.exp(-t / 0.02), FS)
        slow = schroeder_rt60(np.exp(-t / 0.06), FS)
        assert fast < slow

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            schroeder_rt60(np.zeros(100), FS)
        # too short for the decay curve to span the fit window
        with pytest.raises(InvalidInputError):
            schroeder_rt60(np.ones(5), FS)
        with pytest.raises(InvalidInputError):
            schroeder_rt60(np.r_[1.0, np.zeros(99)], FS)


class TestManifest:
    def test_round_trip(self, tmp_path):
        recs = [{"seed": 1, "mixture": "mix_0001.wav", "snr_db": -5.0},
                {"seed": 2, "mixture": "mix_0002.wav", "snr_db": -1.5}]
        path = tmp_path / "manifest.jsonl"
        write_manifest(path, recs)
        assert read_manifest(path) == recs

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert read_manifest(path) == [{"a": 1}, {"a": 2}]

"""Scene sampling, image-method RIRs, SNR mixing, decay measurement."""

import dataclasses
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import oracles
from hybridse import (Rir, SceneConstraints, SceneSpec, apply_rir,
                      early_target, image_rir, mix_at_snr, read_manifest,
                      render_scene, sabine_absorption, sample_scene,
                      schroeder_rt60, simkit, write_manifest)
from hybridse.cli import main
from hybridse.errors import InvalidInputError, NumericalError, SceneInfeasibleError
from hybridse.wavio import read_wav, write_wav

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


def heaviest_scene():
    # the heaviest of seeds 0-63 (seed 60, RT60 0.397 s): the most images
    return max((sample_scene(seed) for seed in range(64)),
               key=lambda s: (s.rt60 + 0.05) ** 3 / np.prod(s.room_dims))


def one_file_corpora(root, n):
    for kind in ("speech", "noise"):
        (root / kind).mkdir()
        write_wav(root / kind / "a.wav", FS, 0.1 * np.random.default_rng(0).standard_normal(n))
    return ["simulate", "--speech-dir", str(root / "speech"), "--noise-dir", str(root / "noise"),
            "--n-scenes", "1", "--out", str(root / "out")]


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

    def test_no_admissible_geometry_error(self, tmp_path, monkeypatch, capsys):
        # every room admits the Sabine draw, but no source 50 m from the
        # microphones fits inside one
        monkeypatch.setattr(SceneConstraints, "distances", (50.0,))
        monkeypatch.setattr(SceneConstraints, "max_attempts", 50)
        with pytest.raises(SceneInfeasibleError,
                           match="no admissible geometry after 50 attempts"):
            sample_scene(0)
        assert main(one_file_corpora(tmp_path, 1600)) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: no admissible geometry")

    def test_spec_dict_round_trip(self):
        s = sample_scene(9)
        record = s.to_dict()
        back = SceneSpec.from_dict({**record, "speech_file": "s.wav", "norm": 0.5})
        for field in dataclasses.fields(SceneSpec):
            want, got = getattr(s, field.name), getattr(back, field.name)
            assert type(got) is type(want)
            np.testing.assert_array_equal(got, want)
        assert back.room_dims.dtype == back.mic_positions.dtype == np.float64

        def json_native(value):
            if isinstance(value, list):
                return all(map(json_native, value))
            return type(value) in (float, int)

        assert set(record) == {field.name for field in dataclasses.fields(SceneSpec)}
        assert all(map(json_native, record.values()))
        assert type(record["seed"]) is int and type(record["rt60"]) is float
        del record["snr_db"]
        with pytest.raises(KeyError, match="snr_db"):
            SceneSpec.from_dict(record)


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

    @pytest.mark.parametrize("dims", [(5.0, np.nan, 3.0), (5.0, 4.0, np.inf)],
                             ids=["nan", "inf"])
    def test_non_finite_dims_rejected(self, dims):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            sabine_absorption(dims, 0.3)


class TestImageRir:
    def test_direct_tap_is_the_first_and_unreflected(self):
        # the direct sound arrives first, at the nearest-sample delay, with
        # the free-field 1 / (4 pi d) gain and no reflection loss
        sc = controlled_scene()
        rir = image_rir(sc)
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

    @pytest.mark.parametrize("source", ["speech", "noise"])
    @pytest.mark.parametrize("seed", [142, 1132, 1827])
    def test_heavy_tail_scenes_match_full_box(self, monkeypatch, seed, source):
        # the costliest scenes: small rooms near RT60 0.4 s, where hundreds
        # of thousands of images land within the horizon and span the most
        # chunks.  In chunks of the default size, of one x-y cell, of a
        # prime number of candidate images (whole cells) and of more than
        # the whole box, each tap is summed in the full box's order
        sc = sample_scene(seed)
        assert sc.rt60 > 0.38 and np.prod(sc.room_dims) < 40.0
        if source == "noise":
            sc = dataclasses.replace(sc, source_position=sc.noise_position)
        want = oracles.image_rir_full_box(sc)
        for chunk in (simkit._CHUNK_IMAGES, 1, 1009, 10 ** 9):
            monkeypatch.setattr(simkit, "_CHUNK_IMAGES", chunk)
            np.testing.assert_array_equal(image_rir(sc).taps, want)

    @pytest.mark.parametrize("source", ["speech", "noise"])
    def test_peak_memory_is_one_chunk(self, source):
        # tracemalloc's peak over one call is one chunk's buffers, not the
        # scene's images: 2.86 MB on the heaviest of seeds 0-63, where
        # whole-scene image arrays took 13.0 MB; capped at 3.5 MB
        sc = heaviest_scene()
        assert sc.seed == 60
        if source == "noise":
            sc = dataclasses.replace(sc, source_position=sc.noise_position)
        image_rir(sc)
        tracemalloc.start()
        try:
            image_rir(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2 ** 20

    @pytest.mark.parametrize("seed", [1827, 0, 1, 2, 3, 5, 8, 13])
    def test_reflection_order_cap_costs_little(self, seed):
        # image_rir caps the reflection order at ceil(horizon / shortest
        # side) + 2, which drops diagonal images inside the horizon of small,
        # live rooms (seed 1827: 3.1 x 3.3 x 3.0 m, RT60 0.40 s).  A cap of
        # ceil(sqrt(3) * horizon / shortest side) + 4 keeps every such image
        # (a higher one changes nothing), and it moves the energy and the
        # measured decay of either mic by little.
        sc = sample_scene(seed)
        rir = image_rir(sc)
        horizon = 343.0 * rir.taps.shape[1] / FS
        cap = int(np.ceil(np.sqrt(3) * horizon / np.min(sc.room_dims))) + 4
        full = oracles.image_rir_full_box(sc, max_order=cap)
        np.testing.assert_array_equal(full, oracles.image_rir_full_box(sc, max_order=cap + 8))
        for capped, kept in zip(rir.taps, full):
            energy = np.sum(capped ** 2)
            assert abs(np.sum(kept ** 2) - energy) < 1e-3 * energy
            assert abs(schroeder_rt60(kept) - schroeder_rt60(capped)) < 0.01

    @pytest.mark.parametrize("rt60", [0.2, 0.3, 0.4])
    def test_decay_tracks_requested_rt60(self, rt60):
        # mid-size room, 2 m source distance: the measured decay should sit
        # within +-30% of the request (closer mics or very short RT60 bias
        # the fit through the direct-path energy step)
        rir = image_rir(controlled_scene(rt60=rt60))
        assert schroeder_rt60(rir.taps[0]) == pytest.approx(rt60, rel=0.3)

    @pytest.mark.parametrize("case", ["source_beyond_wall", "source_on_wall",
                                      "mic_behind_wall"])
    def test_point_outside_the_room_rejected(self, case):
        # a manifest record is outside input; a point past a wall would
        # render the RIR of its mirror images, not of this room
        record = sample_scene(0).to_dict()
        x_wall = record["room_dims"][0]
        if case == "source_beyond_wall":
            record["source_position"][0] = x_wall + 3.0
        elif case == "source_on_wall":
            record["source_position"][0] = x_wall
        else:
            record["mic_positions"][1][0] = -1.0
        with pytest.raises(InvalidInputError, match="strictly inside the room"):
            image_rir(SceneSpec.from_dict(record))

    def test_noise_outside_the_room_rejected(self):
        scene = dataclasses.replace(controlled_scene(), noise_position=np.array([1.0, 1.0, -0.5]))
        with pytest.raises(InvalidInputError, match="strictly inside the room"):
            render_scene(scene, np.ones(100), np.ones(100))

    @pytest.mark.parametrize("rt60", [np.nan, np.inf])
    def test_non_finite_rt60_rejected(self, rt60):
        with pytest.raises(InvalidInputError, match="positive and finite"):
            image_rir(controlled_scene(rt60=rt60))

    def test_source_past_the_horizon_gives_an_empty_response(self):
        # a manifest record can place the source farther from both
        # microphones than sound travels in RT60 + 50 ms, so no image
        # lands inside the response
        record = {**sample_scene(0).to_dict(), "room_dims": [100.0, 100.0, 0.05],
                  "rt60": 0.01, "mic_positions": [[1.0, 1.0, 0.02], [1.04, 1.0, 0.02]],
                  "source_position": [90.0, 90.0, 0.02]}
        with pytest.raises(InvalidInputError, match="empty impulse response; check geometry"):
            image_rir(SceneSpec.from_dict(record))


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

    # with 64-point blocks: 20 taps give a 64-point transform and a hop of
    # 45 samples, 50 taps need a 128-point transform (2L - 1 = 99, above the
    # block, rounded up to a power of two) and a hop of 79
    @pytest.mark.parametrize("n, taps", [(25, 40), (45, 20), (90, 20), (135, 20),
                                         (46, 20), (300, 50), (1, 1), (200, 1)],
                             ids=["n<L", "one-block", "2-hops", "3-hops", "hop+1",
                                  "2L-1-above-block", "1x1", "1-tap"])
    def test_overlap_add_across_block_edges(self, monkeypatch, n, taps):
        monkeypatch.setattr(simkit, "_BLOCK_FFT", 64)
        rng = np.random.default_rng(n + taps)
        x = rng.standard_normal(n)
        kernels = rng.standard_normal((3, taps))
        got = simkit._convolve(x, kernels)
        assert got.shape == (3, n)
        for row, kernel in zip(got, kernels):
            np.testing.assert_allclose(row, oracles.convolve_naive(x, kernel), atol=1e-9)

    def test_overlap_add_matches_numpy_at_full_size(self):
        # a 4.5 s signal and a 0.4 s RIR run in several 16384-point blocks
        rng = np.random.default_rng(11)
        x = rng.standard_normal(72000)
        kernels = 0.05 * rng.standard_normal((2, 6400))
        got = simkit._convolve(x, kernels)
        for row, kernel in zip(got, kernels):
            np.testing.assert_allclose(row, np.convolve(x, kernel)[:x.size], atol=1e-9)

    def test_empty_impulse_response_rejected(self):
        rir = Rir(taps=np.zeros((2, 0)), direct_path_index=np.array([0, 0]))
        for convolve in (apply_rir, early_target):
            with pytest.raises(InvalidInputError, match="empty impulse response"):
                convolve(np.ones(4), rir)

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

    # seed 60 is the heaviest scene of seeds 0-63 (RT60 0.397 s); 23000
    # noise samples are tiled to 64000; 1600 samples fit one transform block
    @pytest.mark.parametrize("seed, n_speech, n_noise", [
        (60, 64000, 80000), (3, 64000, 23000), (21, 1600, 1600), (9, 16000, 16000)],
        ids=["heavy", "tiled-noise", "sub-block", "1s"])
    def test_equals_the_sequential_composition(self, seed, n_speech, n_noise):
        # the noise is imaged on a helper thread, with the same bytes as the
        # public functions called one after the other
        rng = np.random.default_rng(seed)
        speech, noise = 0.1 * rng.standard_normal(n_speech), 0.1 * rng.standard_normal(n_noise)
        scene = sample_scene(seed)
        threads = threading.active_count()
        r = render_scene(scene, speech, noise)
        assert threading.active_count() == threads
        rir_s = image_rir(scene)
        rir_n = image_rir(dataclasses.replace(scene, source_position=scene.noise_position))
        s_img = apply_rir(speech, rir_s)
        n_img = apply_rir(np.tile(noise, -(-n_speech // n_noise))[:n_speech], rir_n)
        mix, norm = mix_at_snr(s_img, n_img, scene.snr_db)
        assert r.norm == norm
        for got, want in ((r.mixture, mix), (r.target, early_target(speech, rir_s) * norm),
                          (r.speech_image, s_img), (r.noise_image, n_img)):
            np.testing.assert_array_equal(got, want)

    def test_concurrent_renders_get_their_own_bytes(self):
        # four callers, each with its own helper, on two cores, switching
        # threads often: each render equals the one made alone
        rng = np.random.default_rng(10)
        scenes = [controlled_scene(rt60=0.15 + 0.05 * k, dist=1.0 + 0.4 * k) for k in range(4)]
        sources = [0.1 * rng.standard_normal((2, 6000)) for _ in scenes]
        want = [render_scene(sc, *src).mixture for sc, src in zip(scenes, sources)]
        mismatches = [0] * len(scenes)

        def render(k):
            for _ in range(8):
                got = render_scene(scenes[k], *sources[k]).mixture
                mismatches[k] += not np.array_equal(got, want[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=render, args=(k,)) for k in range(len(scenes))]
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert mismatches == [0] * len(scenes)

    @pytest.mark.parametrize("rows", [2, 3], ids=["noise", "speech"])
    def test_a_convolution_error_reaches_the_caller(self, tmp_path, monkeypatch, capsys, rows):
        # the noise (2 kernels) is convolved on the helper thread, the speech
        # (image and early target, 3 kernels) on the caller's
        convolve, where = simkit._convolve, []

        def failing(x, kernels):
            if kernels.shape[0] == rows:
                where.append(threading.current_thread())
                raise MemoryError("no room for the image")
            return convolve(x, kernels)

        monkeypatch.setattr(simkit, "_convolve", failing)
        threads = threading.active_count()
        with pytest.raises(MemoryError, match="no room for the image") as raised:
            render_scene(controlled_scene(), np.ones(4000), np.ones(4000))
        assert type(raised.value) is MemoryError
        assert (where[0] is threading.main_thread()) == (rows == 3)
        assert threading.active_count() == threads
        for kind in ("speech", "noise"):
            (tmp_path / kind).mkdir()
            write_wav(tmp_path / kind / "a.wav", FS, 0.1 * np.ones(4000))
        assert main(["simulate", "--speech-dir", str(tmp_path / "speech"),
                     "--noise-dir", str(tmp_path / "noise"), "--n-scenes", "1",
                     "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and "out of memory" in err[0]
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing, raised, message, code", [
        (("noise",), NumericalError, "no noise RIR", 4),
        (("speech", "noise"), InvalidInputError, "no speech RIR", 2)], ids=["noise", "both"])
    def test_a_rir_error_reaches_the_caller(self, tmp_path, monkeypatch, capsys,
                                            failing, raised, message, code):
        # the helper computes the noise RIR and the caller the speech RIR;
        # when both fail, the speech's error is raised, as it comes first
        rir, where = simkit.image_rir, {}
        errors = {"speech": InvalidInputError, "noise": NumericalError}

        def failing_rir(scene):
            source = ("noise" if np.array_equal(scene.source_position, scene.noise_position)
                      else "speech")
            if source in failing:
                where[source] = threading.current_thread()
                raise errors[source](f"no {source} RIR")
            return rir(scene)

        monkeypatch.setattr(simkit, "image_rir", failing_rir)
        threads = threading.active_count()
        with pytest.raises(raised, match=message) as error:
            render_scene(controlled_scene(), np.ones(4000), np.ones(4000))
        assert type(error.value) is raised
        assert set(where) == set(failing) and where["noise"] is not threading.main_thread()
        assert where.get("speech", threading.main_thread()) is threading.main_thread()
        assert threading.active_count() == threads
        assert main(one_file_corpora(tmp_path, 4000)) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(message)
        assert threading.active_count() == threads

    def test_an_interrupted_join_waits_for_the_helper(self, monkeypatch):
        # a Ctrl-C breaking into the join leaves render_scene only once the
        # slow helper is done
        convolve, helpers = simkit._convolve, []

        def slow(x, kernels):
            if kernels.shape[0] == 2:
                time.sleep(0.2)
            return convolve(x, kernels)

        class Interrupted(threading.Thread):
            def join(self, timeout=None):
                helpers.append(self)
                if len(helpers) == 1:
                    raise KeyboardInterrupt
                super().join(timeout)

        monkeypatch.setattr(simkit, "_convolve", slow)
        monkeypatch.setattr(threading, "Thread", Interrupted)
        with pytest.raises(KeyboardInterrupt):
            render_scene(controlled_scene(), np.ones(4000), np.ones(4000))
        assert len(helpers) == 2 and not helpers[0].is_alive()

    def test_peak_memory_of_the_heaviest_scene(self):
        # tracemalloc's peak over one render of the heaviest of seeds 0-63,
        # both threads' blocks counted, is capped at what the render took on
        # one thread: 17930178 bytes.  With each RIR in chunks, the peak is
        # the two convolutions: 7.0-9.2 MB (13.1 MB when both RIRs came
        # first, each holding whole-scene image arrays), capped at 10 MB
        scene = heaviest_scene()
        speech, noise = 0.1 * np.random.default_rng(12).standard_normal((2, 64000))
        render_scene(scene, speech, noise)
        tracemalloc.start()
        try:
            render_scene(scene, speech, noise)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17930178
        assert peak <= 10 * 2 ** 20

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
        assert schroeder_rt60(taps) == pytest.approx(expect, rel=0.02)

    def test_monotone_in_decay_rate(self):
        t = np.arange(int(0.5 * FS)) / FS
        fast = schroeder_rt60(np.exp(-t / 0.02))
        slow = schroeder_rt60(np.exp(-t / 0.06))
        assert fast < slow

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(InvalidInputError):
            schroeder_rt60(np.zeros(100))
        # too short for the decay curve to span the fit window
        with pytest.raises(InvalidInputError):
            schroeder_rt60(np.ones(5))
        with pytest.raises(InvalidInputError):
            schroeder_rt60(np.r_[1.0, np.zeros(99)])

    def test_flat_fit_window_does_not_decay(self):
        # the curve falls from 0 dB past -5 dB in a gap of zero taps and
        # stays there, so the fit window holds one level and the fitted
        # slope is rounding noise, not a decay
        with pytest.raises(InvalidInputError, match="does not decay"):
            schroeder_rt60(np.array([1.0, 0.0, 0.3]))

    @pytest.mark.parametrize("channel", [0, 1])
    def test_rendered_rir_with_a_flat_fit_window_does_not_decay(self, channel):
        rir = image_rir(sample_scene(104))
        with pytest.raises(InvalidInputError, match="does not decay"):
            schroeder_rt60(rir.taps[channel])


class TestManifest:
    def test_round_trip(self, tmp_path):
        recs = [{"seed": 1, "mixture": "mix_0001.wav", "snr_db": -5.0},
                {"seed": 2, "mixture": "mix_0002.wav", "snr_db": -1.5}]
        path = tmp_path / "manifest.jsonl"
        write_manifest(path, recs)
        assert read_manifest(path) == recs

    def test_record_and_dry_files_reproduce_the_audio(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        for kind in ("speech", "noise"):
            (tmp_path / kind).mkdir()
            for name in ("a", "b"):
                write_wav(tmp_path / kind / f"{name}.wav", FS, 0.2 * rng.standard_normal(8000))
        out = tmp_path / "scenes"
        assert main(["simulate", "--speech-dir", str(tmp_path / "speech"),
                     "--noise-dir", str(tmp_path / "noise"), "--n-scenes", "3",
                     "--seed", "2", "--out", str(out)]) == 0
        for i, record in enumerate(read_manifest(out / "manifest.jsonl")):
            render = render_scene(SceneSpec.from_dict(record),
                                  read_wav(record["speech_file"])[1],
                                  read_wav(record["noise_file"])[1])
            for key, wave in (("mixture", render.mixture), ("target", render.target)):
                path = tmp_path / f"{i}.{key}.wav"
                write_wav(path, FS, wave)
                assert path.read_bytes() == (out / record[key]).read_bytes()

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"a": 1}\n\n{"a": 2}\n')
        assert read_manifest(path) == [{"a": 1}, {"a": 2}]

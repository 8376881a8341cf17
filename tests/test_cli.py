"""Command-line behavior: subcommands, exit codes, config file, outputs."""

import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import FS, instantaneous_scene
from hybridse.cli import main
from hybridse.errors import NumericalError
from hybridse.loss import si_snr
from hybridse.model import ModelConfig, init_random, save_weights
from hybridse.wavio import read_wav, write_wav

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """Environment for a fresh interpreter that imports the in-tree package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


@pytest.fixture()
def stereo_wav(tmp_path):
    rng = np.random.default_rng(0)
    wave = 0.1 * rng.standard_normal((2, 4096))
    path = tmp_path / "in.wav"
    write_wav(path, FS, wave)
    return path


@pytest.fixture()
def weights_file(tmp_path):
    blob = save_weights(init_random(ModelConfig(), 0))
    path = tmp_path / "model.gtcw"
    path.write_bytes(blob)
    return path


class TestEnhance:
    def test_happy_path_writes_mono(self, tmp_path, stereo_wav, capsys):
        out = tmp_path / "out.wav"
        rc = main(["enhance", str(stereo_wav), "--out", str(out),
                   "--iva-iters", "3"])
        assert rc == 0
        assert str(out) in capsys.readouterr().out
        rate, wave = read_wav(out)
        assert rate == FS
        assert wave.shape == (4096,)

    def test_default_output_next_to_input(self, stereo_wav, capsys):
        rc = main(["enhance", str(stereo_wav), "--no-iva"])
        assert rc == 0
        expect = stereo_wav.with_name("in.enhanced.wav")
        assert expect.exists()

    def test_deterministic_across_runs(self, tmp_path, stereo_wav):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        assert main(["enhance", str(stereo_wav), "--out", str(a),
                     "--seed", "5", "--iva-iters", "2"]) == 0
        assert main(["enhance", str(stereo_wav), "--out", str(b),
                     "--seed", "5", "--iva-iters", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_no_iva_changes_output(self, tmp_path, stereo_wav):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        main(["enhance", str(stereo_wav), "--out", str(a), "--iva-iters", "3"])
        main(["enhance", str(stereo_wav), "--out", str(b), "--no-iva"])
        assert a.read_bytes() != b.read_bytes()

    def test_weights_file_round_trip(self, tmp_path, stereo_wav, weights_file):
        out = tmp_path / "w.wav"
        rc = main(["enhance", str(stereo_wav), "--out", str(out),
                   "--weights", str(weights_file), "--no-iva"])
        assert rc == 0
        # seed 0 random init must match the serialized seed-0 weights
        ref = tmp_path / "r.wav"
        main(["enhance", str(stereo_wav), "--out", str(ref),
              "--seed", "0", "--no-iva"])
        assert out.read_bytes() == ref.read_bytes()

    def test_mono_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "mono.wav"
        write_wav(path, FS, 0.1 * np.random.default_rng(1).standard_normal(4096))
        assert main(["enhance", str(path)]) == 2
        assert "stereo" in capsys.readouterr().err

    def test_wrong_rate_exit_2(self, tmp_path, capsys):
        path = tmp_path / "rate.wav"
        write_wav(path, 8000, 0.1 * np.random.default_rng(2).standard_normal((2, 4096)))
        assert main(["enhance", str(path)]) == 2
        assert "16000" in capsys.readouterr().err

    def test_missing_input_exit_2(self, tmp_path, capsys):
        assert main(["enhance", str(tmp_path / "nope.wav")]) == 2

    def test_input_directory_exit_2(self, tmp_path, capsys):
        folder = tmp_path / "folder.wav"
        folder.mkdir()
        assert main(["enhance", str(folder), "--out", str(tmp_path / "o.wav")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_weights_directory_exit_2(self, tmp_path, stereo_wav, capsys):
        assert main(["enhance", str(stereo_wav), "--out", str(tmp_path / "o.wav"),
                     "--weights", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o.wav").exists()

    def test_corrupt_weights_exit_3(self, tmp_path, stereo_wav, weights_file, capsys):
        bad = tmp_path / "bad.gtcw"
        bad.write_bytes(weights_file.read_bytes()[:-9])
        assert main(["enhance", str(stereo_wav), "--weights", str(bad)]) == 3
        assert "error" in capsys.readouterr().err

    def test_config_mismatch_weights_exit_3(self, tmp_path, stereo_wav, capsys):
        blob = save_weights(init_random(ModelConfig(encoder="dual"), 0))
        path = tmp_path / "dual.gtcw"
        path.write_bytes(blob)
        assert main(["enhance", str(stereo_wav), "--weights", str(path),
                     "--preset", "lps-sn-m2"]) == 3

    def test_multiple_inputs(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        paths = []
        for i in range(2):
            p = tmp_path / f"m{i}.wav"
            write_wav(p, FS, 0.1 * rng.standard_normal((2, 3000)))
            paths.append(str(p))
        out_dir = tmp_path / "outs"
        rc = main(["enhance", *paths, "--out", str(out_dir), "--no-iva"])
        assert rc == 0
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["m0.enhanced.wav", "m1.enhanced.wav"]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_model_built_once_per_call(self, tmp_path, capsys, monkeypatch, jobs):
        calls = []

        def counting_init(cfg, seed):
            calls.append(seed)
            return init_random(cfg, seed)

        monkeypatch.setattr("hybridse.cli.init_random", counting_init)
        rng = np.random.default_rng(4)
        paths = []
        for i in range(3):
            p = tmp_path / f"m{i}.wav"
            write_wav(p, FS, 0.1 * rng.standard_normal((2, 3000)))
            paths.append(str(p))
        out_dir = tmp_path / "outs"
        assert main(["enhance", *paths, "--out", str(out_dir), "--jobs", jobs]) == 0
        assert calls == [0]
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["m0.enhanced.wav", "m1.enhanced.wav", "m2.enhanced.wav"]

    def test_iva_failure_names_the_file_exit_4(self, tmp_path, stereo_wav, capsys,
                                               monkeypatch):
        def failing_iva(spec, cfg):
            raise NumericalError("singular demixing update")

        monkeypatch.setattr("hybridse.model.auxiva_separate", failing_iva)
        assert main(["enhance", str(stereo_wav), "--out", str(tmp_path / "o.wav")]) == 4
        assert f"error: {stereo_wav}: singular demixing update" in capsys.readouterr().err


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("command", [["enhance"], ["enhance", "--no-iva"],
                                         ["separate"]])
    def test_exit_2(self, tmp_path, capsys, command, bad):
        # float WAVs can carry NaN/Inf; they are invalid input, not a
        # numerical failure of the pipeline
        wave = 0.1 * np.random.default_rng(6).standard_normal((4096, 2))
        wave[1000, 1] = bad
        path = tmp_path / "bad.wav"
        wavfile.write(path, FS, wave.astype(np.float32))
        assert main([command[0], str(path), "--out", str(tmp_path / "out"),
                     *command[1:]]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra", [[], ["--no-iva"]])
    def test_beyond_float32_spectrum_exit_2(self, tmp_path, capsys, extra):
        # finite float samples near the float32 limit overflow the network's
        # float32 features; that is invalid input, not a numerical failure
        wave = 3e38 * np.random.default_rng(7).uniform(-1, 1, (4096, 2))
        path = tmp_path / "loud.wav"
        wavfile.write(path, FS, wave.astype(np.float32))
        assert main(["enhance", str(path), "--out", str(tmp_path / "out"), *extra]) == 2
        err = capsys.readouterr().err
        assert "float32" in err and "loud.wav" in err
        assert not (tmp_path / "out").exists()


_SPECIAL_SAMPLES = (np.nan, np.inf, -np.inf, 3e38, -3e38, 3.4e38, -3.4e38)


@st.composite
def wav_data(draw):
    """``(rate, samples)`` for any WAV the reader might be given: 1-3
    channels, 0-3 frames, u8/i16/i32/f32/f64 samples, and in float files
    NaN, Inf and samples near the float32 limit."""
    rate = draw(st.one_of(st.just(FS), st.integers(1, 192000)))
    channels = draw(st.one_of(st.just(2), st.integers(1, 3)))
    frames = draw(st.integers(0, 3))
    dtype = np.dtype(draw(st.sampled_from(["u1", "i2", "i4", "f4", "f8"])))
    if dtype.kind == "f":
        sample = st.one_of(st.sampled_from(_SPECIAL_SAMPLES), st.floats(-1, 1),
                           st.floats(allow_nan=False, allow_infinity=False, width=32))
    else:
        sample = st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max)
    values = draw(st.lists(sample, min_size=frames * channels, max_size=frames * channels))
    data = np.array(values, dtype=dtype).reshape(frames, channels)
    return rate, data[:, 0] if channels == 1 else data


def _stereo_wav_bytes(frames=4096):
    buf = io.BytesIO()
    data = 0.1 * np.random.default_rng(9).standard_normal((frames, 2))
    wavfile.write(buf, FS, (data * 32767).astype(np.int16))
    return buf.getvalue()


_VALID_STEREO = _stereo_wav_bytes()


@st.composite
def damaged_wav(draw):
    """A prefix of a valid stereo WAV, or the file with one of its first 44
    bytes (the whole RIFF, fmt and data header) overwritten."""
    if draw(st.booleans()):
        return _VALID_STEREO[:draw(st.integers(0, len(_VALID_STEREO)))]
    blob = bytearray(_VALID_STEREO)
    blob[draw(st.integers(0, 43))] = draw(st.integers(0, 255))
    return bytes(blob)


def _zero_channels():
    blob = bytearray(_VALID_STEREO)
    blob[22:24] = b"\x00\x00"           # fmt nChannels
    return bytes(blob)


class TestWavBoundary:
    @pytest.mark.filterwarnings("ignore:.*skipping IVA")
    @settings(max_examples=30, deadline=None)
    @given(wav_data())
    def test_any_wav_exits_0_or_2(self, wav):
        # every file a user can hand to enhance is enhanced or rejected as
        # invalid input; none escapes as an exception or a numerical failure
        rate, data = wav
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.wav"
            wavfile.write(path, rate, data)
            for extra in ([], ["--no-iva"]):
                assert main(["enhance", str(path), "--out", str(Path(tmp) / "out.wav"),
                             *extra]) in (0, 2)

    @pytest.mark.parametrize("blob", [
        b"RIFF\x00\x00", _VALID_STEREO[:20], _VALID_STEREO[:40], _zero_channels(),
    ], ids=["riff_and_2_bytes", "cut_to_20", "cut_to_40", "zero_channels"])
    def test_malformed_header_named_exit_2(self, tmp_path, capsys, blob):
        path = tmp_path / "broken.wav"
        path.write_bytes(blob)
        assert main(["enhance", str(path), "--out", str(tmp_path / "out.wav")]) == 2
        assert f"error: {path}: not a readable WAV file" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:.*skipping IVA")
    @settings(max_examples=40, deadline=None)
    @given(damaged_wav())
    def test_damaged_wav_exits_0_or_2(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.wav"
            path.write_bytes(blob)
            assert main(["enhance", str(path), "--out", str(Path(tmp) / "out.wav"),
                         "--iva-iters", "3"]) in (0, 2)


class TestFlags:
    @pytest.mark.parametrize("argv", [["inspect", "--jobs", "2"],
                                      ["separate", "x.wav", "--seed", "1"]])
    def test_flag_a_subcommand_ignores_is_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-2", "two"])
    def test_jobs_below_one_is_a_usage_error(self, stereo_wav, jobs, capsys):
        with pytest.raises(SystemExit) as info:
            main(["enhance", str(stereo_wav), "--jobs", jobs])
        assert info.value.code == 2
        assert "--jobs: expected a positive integer" in capsys.readouterr().err


class TestSeparate:
    def test_low_snr_mixture_improves(self, tmp_path, capsys):
        mix, speech_img, noise_img = instantaneous_scene(0)
        scale = 0.9 / np.max(np.abs(mix))
        path = tmp_path / "mix.wav"
        write_wav(path, FS, mix * scale)
        rc = main(["separate", str(path), "--out", str(tmp_path)])
        assert rc == 0
        outs = [read_wav(tmp_path / f"mix.{kind}.wav")[1]
                for kind in ("speech", "noise")]
        base = si_snr(mix[0], speech_img)
        best = max(si_snr(o, speech_img) for o in outs)
        assert best - base >= 5.0

    def test_mono_exit_2(self, tmp_path):
        path = tmp_path / "mono.wav"
        write_wav(path, FS, 0.1 * np.random.default_rng(4).standard_normal(4096))
        assert main(["separate", str(path)]) == 2

    def test_silent_file_named_exit_2(self, tmp_path, stereo_wav, capsys):
        silent = tmp_path / "silent.wav"
        write_wav(silent, FS, np.zeros((2, 4096)))
        assert main(["separate", str(stereo_wav), str(silent),
                     "--out", str(tmp_path / "outs")]) == 2
        assert f"error: {silent}: all-zero input" in capsys.readouterr().err

    def test_short_file_named_exit_2(self, tmp_path, capsys):
        short = tmp_path / "short.wav"
        write_wav(short, FS, 0.1 * np.random.default_rng(5).standard_normal((2, 100)))
        assert main(["separate", str(short)]) == 2
        assert f"error: {short}: need at least 2 frames" in capsys.readouterr().err


class TestSimulate:
    def _corpus(self, tmp_path):
        rng = np.random.default_rng(5)
        sp_dir, nz_dir = tmp_path / "speech", tmp_path / "noise"
        sp_dir.mkdir()
        nz_dir.mkdir()
        env = np.repeat(rng.uniform(0.05, 1.0, 20), 800)
        write_wav(sp_dir / "s.wav", FS, 0.2 * env * rng.standard_normal(16000))
        write_wav(nz_dir / "n.wav", FS, 0.2 * rng.standard_normal(16000))
        return sp_dir, nz_dir

    def test_renders_scenes_and_manifest(self, tmp_path, capsys):
        sp_dir, nz_dir = self._corpus(tmp_path)
        out = tmp_path / "scenes"
        rc = main(["simulate", "--speech-dir", str(sp_dir), "--noise-dir",
                   str(nz_dir), "--n-scenes", "2", "--seed", "7",
                   "--out", str(out)])
        assert rc == 0
        from hybridse import read_manifest
        recs = read_manifest(out / "manifest.jsonl")
        assert len(recs) == 2
        for rec in recs:
            rate, mix = read_wav(out / rec["mixture"])
            assert rate == FS and mix.ndim == 2 and mix.shape[0] == 2
            _, tgt = read_wav(out / rec["target"])
            assert tgt.shape == (mix.shape[1],)
            assert abs(rec["measured_snr_db"] - rec["snr_db"]) < 0.1

    def test_deterministic_manifests(self, tmp_path):
        sp_dir, nz_dir = self._corpus(tmp_path)
        args = ["simulate", "--speech-dir", str(sp_dir), "--noise-dir",
                str(nz_dir), "--n-scenes", "1", "--seed", "3"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "manifest.jsonl").read_text() == \
            (tmp_path / "b" / "manifest.jsonl").read_text()

    def test_empty_corpus_exit_2(self, tmp_path, capsys):
        (tmp_path / "se").mkdir()
        (tmp_path / "ne").mkdir()
        rc = main(["simulate", "--speech-dir", str(tmp_path / "se"),
                   "--noise-dir", str(tmp_path / "ne"), "--n-scenes", "1",
                   "--out", str(tmp_path / "scenes")])
        assert rc == 2

    def test_non_finite_speech_exit_2(self, tmp_path, capsys):
        sp_dir, nz_dir = self._corpus(tmp_path)
        speech = np.zeros(16000, np.float32)
        speech[100] = np.nan
        wavfile.write(sp_dir / "s.wav", FS, speech)
        out = tmp_path / "scenes"
        rc = main(["simulate", "--speech-dir", str(sp_dir), "--noise-dir",
                   str(nz_dir), "--n-scenes", "1", "--out", str(out)])
        assert rc == 2
        assert "s.wav: non-finite" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    def test_stereo_corpus_file_named_exit_2(self, tmp_path, capsys):
        sp_dir, nz_dir = self._corpus(tmp_path)
        write_wav(nz_dir / "n.wav", FS, 0.1 * np.random.default_rng(8).standard_normal((2, 16000)))
        out = tmp_path / "scenes"
        rc = main(["simulate", "--speech-dir", str(sp_dir), "--noise-dir",
                   str(nz_dir), "--n-scenes", "1", "--out", str(out)])
        assert rc == 2
        assert f"error: {nz_dir / 'n.wav'}: expected a mono file" in capsys.readouterr().err
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("case", ["negative_count", "missing_speech_dir"])
    def test_invalid_arguments_write_nothing(self, tmp_path, capsys, case):
        sp_dir, nz_dir = self._corpus(tmp_path)
        n_scenes = "-1" if case == "negative_count" else "1"
        if case == "missing_speech_dir":
            sp_dir = tmp_path / "absent"
        out = tmp_path / "scenes"
        rc = main(["simulate", "--speech-dir", str(sp_dir), "--noise-dir",
                   str(nz_dir), "--n-scenes", n_scenes, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_zero_scenes_ok(self, tmp_path):
        (tmp_path / "se").mkdir()
        (tmp_path / "ne").mkdir()
        rc = main(["simulate", "--speech-dir", str(tmp_path / "se"),
                   "--noise-dir", str(tmp_path / "ne"), "--n-scenes", "0",
                   "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "manifest.jsonl").read_text() == ""


class TestEval:
    def _dirs(self, tmp_path, names=("a.wav", "b.wav"), unpaired=False):
        est, ref = tmp_path / "est", tmp_path / "ref"
        est.mkdir()
        ref.mkdir()
        rng = np.random.default_rng(6)
        for name in names:
            clean = 0.3 * rng.standard_normal(4000)
            write_wav(ref / name, FS, clean)
            write_wav(est / name, FS, clean + 0.03 * rng.standard_normal(4000))
        if unpaired:
            write_wav(est / "extra.wav", FS, 0.1 * rng.standard_normal(4000))
        return est, ref

    def test_report_and_mean(self, tmp_path, capsys):
        est, ref = self._dirs(tmp_path)
        rc = main(["eval", "--est-dir", str(est), "--ref-dir", str(ref)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "a.wav" in out and "b.wav" in out
        assert "mean" in out and "over 2 files" in out

    def test_report_written_to_file(self, tmp_path, capsys):
        est, ref = self._dirs(tmp_path)
        report = tmp_path / "report.txt"
        rc = main(["eval", "--est-dir", str(est), "--ref-dir", str(ref),
                   "--out", str(report)])
        assert rc == 0
        assert "mean" in report.read_text()

    def test_unpaired_files_exit_2(self, tmp_path, capsys):
        est, ref = self._dirs(tmp_path, unpaired=True)
        rc = main(["eval", "--est-dir", str(est), "--ref-dir", str(ref)])
        out = capsys.readouterr().out
        assert rc == 2
        assert "unpaired\textra.wav" in out

    def test_non_finite_estimate_exit_2(self, tmp_path, capsys):
        est, ref = self._dirs(tmp_path)
        bad = np.zeros(4000, np.float32)
        bad[10] = np.nan
        wavfile.write(est / "b.wav", FS, bad)
        rc = main(["eval", "--est-dir", str(est), "--ref-dir", str(ref)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "b.wav: non-finite" in captured.err
        assert "nan" not in captured.out

    @pytest.mark.parametrize("rate, shape, message", [
        (8000, (4000,), "expected 16000 Hz, got 8000"),
        (FS, (2, 4000), "expected a mono file, got 2 channels"),
    ], ids=["rate", "stereo"])
    @pytest.mark.parametrize("side", ["est", "ref"])
    def test_estimate_and_reference_must_be_16k_mono(self, tmp_path, capsys, side,
                                                      rate, shape, message):
        est, ref = self._dirs(tmp_path)
        bad = (est if side == "est" else ref) / "b.wav"
        write_wav(bad, rate, 0.3 * np.random.default_rng(9).standard_normal(shape))
        rc = main(["eval", "--est-dir", str(est), "--ref-dir", str(ref)])
        captured = capsys.readouterr()
        assert rc == 2
        assert f"error: {bad}: {message}" in captured.err
        assert "mean" not in captured.out

    def test_all_zero_reference_named_exit_2(self, tmp_path, capsys):
        est, ref = self._dirs(tmp_path)
        write_wav(ref / "b.wav", FS, np.zeros(4000))
        rc = main(["eval", "--est-dir", str(est), "--ref-dir", str(ref)])
        assert rc == 2
        assert (f"error: {est / 'b.wav'} vs {ref / 'b.wav'}: reference signal is all zeros"
                in capsys.readouterr().err)

    def test_empty_dirs_ok(self, tmp_path, capsys):
        est, ref = tmp_path / "e", tmp_path / "r"
        est.mkdir()
        ref.mkdir()
        rc = main(["eval", "--est-dir", str(est), "--ref-dir", str(ref)])
        assert rc == 0
        assert "no file pairs" in capsys.readouterr().out


class TestInspect:
    def test_default_preset_report(self, capsys):
        assert main(["inspect"]) == 0
        out = capsys.readouterr().out
        assert "25746 total" in out
        assert "MACs/s" in out
        assert "per iteration" in out

    def test_named_preset(self, capsys):
        assert main(["inspect", "lps-s-m2"]) == 0
        assert "25506 total" in capsys.readouterr().out

    def test_unknown_preset_exit_2(self, capsys):
        assert main(["inspect", "zzz"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestConfigFile:
    def test_config_preloads_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\npreset = lps-s-m2\n")
        assert main(["--config", str(cfg), "inspect"]) == 0
        assert "25506 total" in capsys.readouterr().out

    def test_explicit_flag_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset = lps-s-m2\n")
        assert main(["--config", str(cfg), "inspect", "lps-sn-m2-dual"]) == 0
        assert "27190 total" in capsys.readouterr().out

    def test_unknown_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        assert main(["--config", str(cfg), "inspect"]) == 2
        assert "unknown option" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.cfg"), "inspect"]) == 2

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert main(["--config", str(cfg), "inspect"]) == 2
        assert "expected key = value" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("jobs = 0", "jobs: expected a positive integer, got 0"),
        ("iva-iters = many", "iva-iters: invalid literal"),
    ], ids=["jobs_zero", "not_an_int"])
    def test_bad_value_exit_2(self, tmp_path, stereo_wav, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg), "enhance", str(stereo_wav)]) == 2
        assert f"{cfg}:1: {message}" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_smoke(self):
        proc = subprocess.run([sys.executable, "-m", "hybridse.cli", "inspect"],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert "parameters" in proc.stdout

    def test_installed_script(self):
        # ``python -m hybridse`` reaches the same cli.main as the installed
        # console script, without requiring the package to be installed
        proc = subprocess.run([sys.executable, "-m", "hybridse", "inspect", "lps-s-m2"],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0
        assert "25506 total" in proc.stdout

    def test_import_leaves_scipy_stats_and_signal_unloaded(self):
        # the runtime needs numpy alone: no scipy module at all is loaded
        code = ("import sys, hybridse, hybridse.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_leaves_process_pool_unloaded(self):
        # only enhance --jobs > 1 needs the pool, and it imports it then
        code = ("import sys, hybridse, hybridse.cli; "
                "print('concurrent.futures.process' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_every_subcommand_runs_with_scipy_blocked(self, tmp_path):
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
                              capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["enhance=0", "enhance--no-iva=0", "separate=0",
                                       "simulate=0", "eval=0", "inspect=0"]


# Runs every subcommand through cli.main in an interpreter where importing
# any scipy module fails; prints "<subcommand>=<exit code>" for each.
_WITHOUT_SCIPY = """\
import contextlib, io, sys
from importlib.abc import MetaPathFinder
from pathlib import Path


class NoScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, NoScipy())
import numpy as np
from hybridse.cli import main
from hybridse.wavio import write_wav

tmp = Path(sys.argv[1])
rng = np.random.default_rng(0)
for sub in ("speech", "noise", "est", "ref"):
    (tmp / sub).mkdir()
    write_wav(tmp / sub / "a.wav", 16000, 0.2 * rng.standard_normal(8000))
write_wav(tmp / "in.wav", 16000, 0.2 * rng.standard_normal((2, 8000)))
runs = {
    "enhance": ["enhance", str(tmp / "in.wav"), "--iva-iters", "3"],
    "enhance--no-iva": ["enhance", str(tmp / "in.wav"), "--no-iva"],
    "separate": ["separate", str(tmp / "in.wav"), "--iva-iters", "3"],
    "simulate": ["simulate", "--speech-dir", str(tmp / "speech"), "--noise-dir",
                 str(tmp / "noise"), "--n-scenes", "1", "--out", str(tmp / "scenes")],
    "eval": ["eval", "--est-dir", str(tmp / "est"), "--ref-dir", str(tmp / "ref")],
    "inspect": ["inspect"],
}
for name, argv in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    print(f"{name}={rc}")
"""

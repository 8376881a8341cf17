"""Command-line behavior: subcommands, exit codes, config file, outputs."""

import io
import os
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from conftest import FS, instantaneous_scene
from test_weights import gtcw_stream
from hybridse import IvaConfig, cli, errors, model, stft
from hybridse.cli import main
from hybridse.errors import NumericalError
from hybridse.loss import si_snr
from hybridse.model import (ModelConfig, init_random, prepare, preset_config,
                            save_weights)
from hybridse.wavio import read_wav, write_wav

SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """Environment for a fresh interpreter that imports the in-tree package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


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
        # the read names the file itself, so the line holds its path once
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: expected a stereo file, got 1 channels"]

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

    def test_overflowing_dims_exit_3(self, tmp_path, stereo_wav, capsys):
        # a checksummed stream whose one tensor claims (2^16)^4 items
        body = (b"GTCW\x01" + struct.pack("<IH", 1, 1) + b"x\x04"
                + struct.pack("<4I", *(65536,) * 4) + bytes(16))
        path = tmp_path / "huge.gtcw"
        path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
        assert main(["enhance", str(stereo_wav), "--weights", str(path)]) == 3
        assert "truncated" in capsys.readouterr().err

    def test_weights_file_checked_once(self, tmp_path, stereo_wav, weights_file, monkeypatch):
        checked, check_inventory = [], model._check_inventory

        def counting_check(w, cfg):
            checked.append(len(w))
            return check_inventory(w, cfg)

        monkeypatch.setattr("hybridse.model._check_inventory", counting_check)
        assert main(["enhance", str(stereo_wav), "--out", str(tmp_path / "o.wav"),
                     "--weights", str(weights_file)]) == 0
        assert checked == [len(init_random(ModelConfig(), 0))]

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
    def test_each_file_warns_by_name(self, tmp_path, capsys, jobs):
        paths = [tmp_path / f"silent{i}.wav" for i in range(2)]
        for p in paths:
            write_wav(p, FS, np.zeros((2, 3000)))
        assert main(["enhance", *map(str, paths), "--out", str(tmp_path / "outs"),
                     "--jobs", jobs]) == 0
        warned = [line for line in capsys.readouterr().err.splitlines() if line]
        assert warned == [f"warning: {p}: all-zero input; nothing to separate; skipping IVA"
                          for p in paths]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_model_built_once_per_call(self, tmp_path, capsys, monkeypatch, jobs):
        # one plan is built, in this process; a worker gets it pickled and
        # runs it as it is
        calls, plans = [], tmp_path / "plans.txt"

        def counting_init(cfg, seed):
            calls.append(seed)
            return init_random(cfg, seed)

        def counting_prepare(w, cfg):
            if not isinstance(w, model.Plan):
                with open(plans, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
            return prepare(w, cfg)

        monkeypatch.setattr("hybridse.cli.init_random", counting_init)
        monkeypatch.setattr("hybridse.cli.prepare", counting_prepare)
        monkeypatch.setattr("hybridse.model.prepare", counting_prepare)
        cli._seeded_weights.cache_clear()       # an earlier test may have built them
        rng = np.random.default_rng(4)
        paths = []
        for i in range(3):
            p = tmp_path / f"m{i}.wav"
            write_wav(p, FS, 0.1 * rng.standard_normal((2, 3000)))
            paths.append(str(p))
        out_dir = tmp_path / "outs"
        assert main(["enhance", *paths, "--out", str(out_dir), "--jobs", jobs]) == 0
        assert calls == [0]
        assert plans.read_text().split() == [str(os.getpid())]
        assert sorted(p.name for p in out_dir.iterdir()) == \
            ["m0.enhanced.wav", "m1.enhanced.wav", "m2.enhanced.wav"]

    @pytest.mark.parametrize("weights", [False, True], ids=["seeded", "weights_file"])
    def test_jobs_two_writes_what_jobs_one_writes(self, tmp_path, capsys, weights_file,
                                                  weights):
        # the workers run the plan pickled into them
        rng = np.random.default_rng(9)
        paths = []
        for i in range(3):
            p = tmp_path / f"m{i}.wav"
            write_wav(p, FS, 0.1 * rng.standard_normal((2, 5000)))
            paths.append(str(p))
        flags = ["--weights", str(weights_file)] if weights else ["--seed", "1"]
        for jobs in ("1", "2"):
            assert main(["enhance", *paths, "--out", str(tmp_path / jobs),
                         "--jobs", jobs, *flags]) == 0
        for i in range(3):
            name = f"m{i}.enhanced.wav"
            assert (tmp_path / "2" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()

    def test_jobs_pool_capped_at_input_count(self, tmp_path, capsys, monkeypatch):
        import concurrent.futures
        asked = []

        class SerialPool:
            """Records the worker count asked for and maps in this process."""

            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        rng = np.random.default_rng(5)
        paths = []
        for i in range(2):
            p = tmp_path / f"m{i}.wav"
            write_wav(p, FS, 0.1 * rng.standard_normal((2, 3000)))
            paths.append(str(p))
        assert main(["enhance", *paths, "--out", str(tmp_path / "serial")]) == 0
        assert asked == []
        assert main(["enhance", *paths, "--out", str(tmp_path / "pooled"),
                     "--jobs", "5000"]) == 0
        assert asked == [2]
        for name in ("m0.enhanced.wav", "m1.enhanced.wav"):
            assert (tmp_path / "pooled" / name).read_bytes() == \
                (tmp_path / "serial" / name).read_bytes()

    def test_iva_failure_names_the_file_exit_4(self, tmp_path, stereo_wav, capsys,
                                               monkeypatch):
        def failing_iva(spec, cfg):
            raise NumericalError("singular demixing update")

        monkeypatch.setattr("hybridse.model.auxiva_separate", failing_iva)
        assert main(["enhance", str(stereo_wav), "--out", str(tmp_path / "o.wav")]) == 4
        assert f"error: {stereo_wav}: singular demixing update" in capsys.readouterr().err

    def test_non_finite_output_exit_4(self, tmp_path, stereo_wav, capsys):
        # every kernel 1e30 times larger, still finite float32: the
        # activations overflow on the way through the network
        w = {name: tensor * np.float32(1e30) if name.endswith(".kernel") else tensor
             for name, tensor in init_random(ModelConfig(), 0).items()}
        weights = tmp_path / "loud.gtcw"
        weights.write_bytes(save_weights(w))
        out = tmp_path / "o.wav"
        assert main(["enhance", str(stereo_wav), "--out", str(out),
                     "--weights", str(weights)]) == 4
        assert capsys.readouterr().err == \
            f"error: {stereo_wav}: enhancement produced non-finite samples\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset", sorted(name for name, cfg in model.PRESETS.items()
                                              if cfg.masking == "mask1_iva"))
    def test_loud_mono_copied_to_both_channels_keeps_the_signal(self, tmp_path, preset):
        # a float WAV beyond full scale: IVA's remainder of the rank-1
        # mixture ranks last, so the mask acts on the signal
        mono = instantaneous_scene(0, n=4096)[0][0]
        path = tmp_path / "loud.wav"
        wavfile.write(path, FS, 10.0 / np.max(np.abs(mono)) * np.stack([mono, mono], axis=1))
        out = tmp_path / "out.wav"
        assert main(["enhance", str(path), "--out", str(out), "--preset", preset]) == 0
        assert np.sqrt(np.mean(read_wav(out)[1] ** 2)) > 0.01


@pytest.mark.parametrize("error, code", [
    (errors.HybridseError, 2), (errors.InvalidInputError, 2),
    (errors.DegenerateInputError, 2), (errors.NumericalError, 4),
    (errors.WeightFormatError, 3), (errors.SceneInfeasibleError, 2),
    (type("UnnamedError", (errors.HybridseError,), {}), 2),
    (OSError, 2), (FileNotFoundError, 2), (MemoryError, 5)],
    ids=lambda case: case.__name__ if isinstance(case, type) else str(case))
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, error, code):
    def failing(name):
        raise error("the message")

    monkeypatch.setattr("hybridse.cli.preset_config", failing)
    assert main(["inspect"]) == code
    assert capsys.readouterr() == ("", "error: the message\n")


def test_peak_memory_of_a_10s_file_with_iva(tmp_path, capsys, monkeypatch):
    # traced peak above entry of one in-process call: 19.29 MB measured
    # (numpy 2, one BLAS thread), 22.16 MB while the call still held the
    # input past stft, the result's spectra past enhance and every
    # inverse-STFT frame at once
    rng = np.random.default_rng(10)
    write_wav(tmp_path / "warm.wav", FS, 0.1 * rng.standard_normal((2, FS)))
    write_wav(tmp_path / "in.wav", FS, 0.1 * rng.standard_normal((2, 10 * FS)))
    # a first call builds the parser and the seeded weights, which stay cached
    assert main(["enhance", str(tmp_path / "warm.wav")]) == 0
    held = []

    def write(path, rate, wave):
        held.append(tracemalloc.get_traced_memory()[0])
        write_wav(path, rate, wave)

    monkeypatch.setattr(cli, "write_wav", write)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        assert main(["enhance", str(tmp_path / "in.wav")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 20_500_000
    # at the write only the output wave is left: 1.28 MB of overlap-add
    # blocks, 1.29 MB held measured, where the result's spectra would add
    # 15.4 MB
    assert held[0] - entry <= 1_800_000


def _out_of_memory(*args, **kwargs):
    return np.empty(1 << 62, np.uint8)      # numpy raises its MemoryError subclass


class TestOutOfMemory:
    @staticmethod
    def assert_one_error_line(err, path):
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line]
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {path}: out of memory (Unable to allocate")

    def test_enhance_exit_5(self, tmp_path, stereo_wav, capsys, monkeypatch):
        monkeypatch.setattr("hybridse.cli.enhance", _out_of_memory)
        assert main(["enhance", str(stereo_wav), "--out", str(tmp_path / "o.wav")]) == 5
        self.assert_one_error_line(capsys.readouterr().err, stereo_wav)
        assert not (tmp_path / "o.wav").exists()

    def test_enhance_jobs_exit_5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("hybridse.cli.enhance", _out_of_memory)
        rng = np.random.default_rng(7)
        paths = [tmp_path / f"m{i}.wav" for i in range(2)]
        for path in paths:
            write_wav(path, FS, 0.1 * rng.standard_normal((2, 3000)))
        assert main(["enhance", *map(str, paths), "--out", str(tmp_path / "outs"),
                     "--jobs", "2"]) == 5
        self.assert_one_error_line(capsys.readouterr().err, paths[0])

    def test_separate_exit_5(self, tmp_path, stereo_wav, capsys, monkeypatch):
        monkeypatch.setattr("hybridse.cli.auxiva_separate", _out_of_memory)
        assert main(["separate", str(stereo_wav), "--out", str(tmp_path / "outs")]) == 5
        self.assert_one_error_line(capsys.readouterr().err, stereo_wav)

    @pytest.mark.parametrize("command, failing", [
        ("enhance", "read_wav"), ("enhance", "write_wav"), ("separate", "read_wav"),
        ("separate", "write_wav"), ("simulate", "read_wav"), ("simulate", "write_wav"),
        ("eval", "read_wav")])
    def test_read_or_write_names_its_file_once(self, tmp_path, stereo_wav, capsys,
                                               monkeypatch, command, failing):
        mono = tmp_path / "mono"
        mono.mkdir()
        write_wav(mono / "a.wav", FS, 0.1 * np.random.default_rng(8).standard_normal(16000))
        argv = {"enhance": ["enhance", str(stereo_wav), "--out", str(tmp_path / "o.wav")],
                "separate": ["separate", str(stereo_wav), "--out", str(tmp_path / "outs")],
                "simulate": ["simulate", "--speech-dir", str(mono), "--noise-dir", str(mono),
                             "--n-scenes", "1", "--out", str(tmp_path / "scenes")],
                "eval": ["eval", "--est-dir", str(mono), "--ref-dir", str(mono)]}[command]
        seen = []

        def out_of_memory(path, *args):
            seen.append(path)
            return _out_of_memory()

        monkeypatch.setattr(f"hybridse.cli.{failing}", out_of_memory)
        assert main(argv) == 5
        err = capsys.readouterr().err
        self.assert_one_error_line(err, seen[0])
        assert err.count(str(seen[0])) == 1


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

    @pytest.mark.parametrize("scale", [1e151, 1e301])
    @pytest.mark.parametrize("command", [["enhance"], ["enhance", "--no-iva"],
                                         ["separate"]])
    def test_loud_float64_exit_2(self, tmp_path, capsys, command, scale):
        # a spectrogram beyond the float32 range is invalid input with or
        # without IVA, not a demixing update that diverged, and it is
        # rejected before any overflow warning
        wave = scale * np.random.default_rng(8).uniform(-1, 1, (4096, 2))
        path = tmp_path / "loud.wav"
        wavfile.write(path, FS, wave)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command[0], str(path), "--out", str(tmp_path / "out"), *command[1:]])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: input too loud: spectrogram exceeds the float32 range"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["enhance"], ["enhance", "--no-iva"],
                                         ["separate"]])
    def test_finite_samples_with_nan_spectrum_exit_2(self, tmp_path, capsys, command):
        # finite samples near 4.5e307 overflow the STFT into NaN bins, which
        # compare false against the float32 limit
        wave = 4.5e307 * np.random.default_rng(8).uniform(-1, 1, (4096, 2))
        with np.errstate(all="ignore"):
            assert np.all(np.isfinite(wave)) and np.any(np.isnan(stft(wave.T)))
        path = tmp_path / "huge.wav"
        wavfile.write(path, FS, wave)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main([command[0], str(path), "--out", str(tmp_path / "out"), *command[1:]])
        assert rc == 2 and caught == []
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: input too loud: spectrogram exceeds the float32 range"]
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


class TestWeightsBoundary:
    @settings(max_examples=25, deadline=None)
    @given(gtcw_stream())
    def test_any_weight_file_exits_0_or_3(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            wav, weights = Path(tmp) / "in.wav", Path(tmp) / "w.gtcw"
            wav.write_bytes(_VALID_STEREO)
            weights.write_bytes(blob)
            assert main(["enhance", str(wav), "--weights", str(weights),
                         "--out", str(Path(tmp) / "out.wav")]) in (0, 3)


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

    @pytest.mark.parametrize("argv", [
        ["enhance", "x.wav"],
        ["simulate", "--speech-dir", "s", "--noise-dir", "n", "--n-scenes", "1"],
    ], ids=["enhance", "simulate"])
    def test_negative_seed_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--seed", "-1"])
        assert info.value.code == 2
        assert "--seed: expected a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["enhance", "x.wav"], ["separate", "x.wav"], ["inspect"]],
                             ids=["enhance", "separate", "inspect"])
    def test_negative_iva_iters_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--iva-iters", "-1"])
        assert info.value.code == 2
        assert "--iva-iters: expected a non-negative integer, got -1" in capsys.readouterr().err


_ONE_FRAME_STEREO = _stereo_wav_bytes(frames=1)
# any integer or text; no line break or lone surrogate, so a config line stays
# one line of UTF-8
_FLAG_TEXT = st.one_of(st.integers(-10 ** 6, 10 ** 30).map(str),
                       st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp"))))


def _value_options():
    """``(lead, option)`` for every option of every subcommand that takes
    a value, ``lead`` naming the subcommand, and the top-level ``--config``."""
    parser, children = cli._build_parser()
    for lead, p in [([], parser), *(([child.prog.split()[-1]], child) for child in children)]:
        for action in p._actions:
            if action.nargs is None and action.option_strings:
                yield lead, action.option_strings[-1]


@pytest.mark.parametrize("lead, option", list(_value_options()),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_option_given_dashes_is_a_usage_error(lead, option, tmp_path, capsys):
    # Python 3.11's argparse hands "--seed=--" an empty list, past the
    # option's type check
    with pytest.raises(SystemExit) as info:
        main([*lead, f"{option}=--"])
    assert info.value.code == 2
    assert f"error: argument {option}: expected one argument" in capsys.readouterr().err


class TestFlagBoundary:
    @settings(max_examples=60, deadline=None)
    @given(key=st.sampled_from(["preset", "iva-iters", "no-iva", "seed", "jobs"]),
           value=_FLAG_TEXT, as_flag=st.booleans())
    @example(key="seed", value="-1", as_flag=True)
    @example(key="seed", value="--", as_flag=True)
    def test_any_value_exits_0_2_or_3(self, key, value, as_flag):
        # a flag's value, on the command line or in a config file, runs or is
        # rejected at the boundary.  The one input keeps --jobs from starting a
        # pool, and a 1-frame file bypasses IVA, so any --iva-iters is fast.
        # weights and out are not drawn: a drawn path could name any file.
        with tempfile.TemporaryDirectory() as tmp:
            wav, cfg = Path(tmp) / "in.wav", Path(tmp) / "run.cfg"
            wav.write_bytes(_ONE_FRAME_STEREO)
            argv = ["enhance", str(wav), "--out", str(Path(tmp) / "out.wav")]
            if as_flag:
                argv.append(f"--{key}={value}")
            else:
                cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
                argv = ["--config", str(cfg), *argv]
            try:
                assert main(argv) in (0, 2, 3)
            except SystemExit as exc:
                assert exc.code == 2


def _same_name_inputs(tmp_path):
    """Stereo inputs ``a/x.wav`` and ``b/x.wav``, which name one output
    file in a shared output directory."""
    rng = np.random.default_rng(6)
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(tmp_path / sub / "x.wav")
        write_wav(paths[-1], FS, 0.1 * rng.standard_normal((2, 3000)))
    return paths


@pytest.mark.parametrize("argv, name", [(["enhance"], "x.enhanced.wav"),
                                        (["enhance", "--jobs", "2"], "x.enhanced.wav"),
                                        (["separate"], "x.speech.wav")])
def test_two_inputs_one_output_exit_2(tmp_path, capsys, argv, name):
    paths = _same_name_inputs(tmp_path)
    out = tmp_path / "outs"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([argv[0], *map(str, paths), "--out", str(out), *argv[1:]])
    assert rc == 2 and caught == []
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.splitlines() == [
        f"error: {paths[0]} and {paths[1]} both write {out / name}"]
    assert not out.exists()


@pytest.mark.parametrize("argv, suffix", [(["enhance"], ".enhanced.wav"),
                                          (["enhance", "--jobs", "2"], ".enhanced.wav"),
                                          (["separate"], ".speech.wav")])
def test_output_on_an_input_exit_2(tmp_path, capsys, argv, suffix):
    # the first input's output is the second input, which is read later
    rng = np.random.default_rng(7)
    paths = [tmp_path / "x.wav", tmp_path / f"x{suffix}"]
    for path in paths:
        write_wav(path, FS, 0.1 * rng.standard_normal((2, 3000)))
    before = {path: path.read_bytes() for path in paths}
    rc = main([argv[0], *map(str, paths), *argv[1:]])
    assert rc == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.splitlines() == [
        f"error: {paths[0]} would write over the input {paths[1]}"]
    assert sorted(tmp_path.iterdir()) == sorted(paths)
    assert {path: path.read_bytes() for path in paths} == before


def test_out_on_the_input_exit_2(tmp_path, stereo_wav, capsys):
    before = stereo_wav.read_bytes()
    assert main(["enhance", str(stereo_wav), "--out", str(stereo_wav)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: {stereo_wav} would write over the input {stereo_wav}"]
    assert stereo_wav.read_bytes() == before


def mono_copied_wav(path):
    """Microphone 0 of a mixture on both channels, as a mono recording
    copied to stereo gives: a rank-1 input.  Its rounding-level IVA source
    has the higher kurtosis, so ranked by kurtosis alone every output would
    be silent."""
    mono = instantaneous_scene(2)[0][0]
    write_wav(path, FS, 0.9 / np.max(np.abs(mono)) * np.stack([mono, mono]))
    return path


def rms(wave):
    return float(np.sqrt(np.mean(wave ** 2)))


class TestIdenticalChannels:
    @pytest.mark.parametrize("preset", sorted(p for p, cfg in model.PRESETS.items()
                                              if cfg.masking == "mask1_iva"))
    def test_enhance_with_iva_masks_the_signal(self, tmp_path, preset):
        # the mask multiplies IVA's first source, which must be the signal
        # and not the rank-1 mixture's rounding-level remainder
        path = mono_copied_wav(tmp_path / "mono2.wav")
        out = tmp_path / "out.wav"
        assert main(["enhance", str(path), "--out", str(out), "--preset", preset]) == 0
        assert rms(read_wav(out)[1]) > 1e-3 * rms(read_wav(path)[1][0])

    def test_separate_writes_the_signal_as_speech(self, tmp_path):
        path = mono_copied_wav(tmp_path / "mono2.wav")
        assert main(["separate", str(path), "--out", str(tmp_path)]) == 0
        speech = read_wav(tmp_path / "mono2.speech.wav")[1]
        noise = read_wav(tmp_path / "mono2.noise.wav")[1]
        assert rms(speech) > 0.5 * rms(read_wav(path)[1][0])
        assert rms(noise) < 1e-6 * rms(speech)


def silent_mic0_wav(path):
    """Microphone 0 all zeros, microphone 1 live."""
    wave = np.zeros((2, 4096))
    wave[1] = 0.1 * np.random.default_rng(9).standard_normal(4096)
    write_wav(path, FS, wave)
    return path


class TestSilentReferenceMicrophone:
    # every output is read at microphone 0, so it would be silence: the
    # file is invalid input, named with the silent microphone
    @staticmethod
    def error_line(path):
        return f"error: {path}: microphone 0, the reference, is silent; microphone 1 is not"

    @pytest.mark.parametrize("flags", [[], ["--no-iva"]], ids=["iva", "no_iva"])
    @pytest.mark.parametrize("preset", sorted(model.PRESETS))
    def test_enhance_exit_2(self, tmp_path, capsys, preset, flags):
        path = silent_mic0_wav(tmp_path / "mic1.wav")
        out = tmp_path / "out.wav"
        assert main(["enhance", str(path), "--out", str(out), "--preset", preset, *flags]) == 2
        assert capsys.readouterr().err.splitlines() == [self.error_line(path)]
        assert not out.exists()

    def test_separate_exit_2(self, tmp_path, capsys):
        path = silent_mic0_wav(tmp_path / "mic1.wav")
        assert main(["separate", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [self.error_line(path)]
        assert not list(tmp_path.glob("mic1.*.wav"))


class TestSeparate:
    def test_wav_out_is_a_directory_for_two_outputs(self, tmp_path, stereo_wav, capsys):
        # speech and noise are two files, so neither is written to out.wav
        out = tmp_path / "out.wav"
        assert main(["separate", str(stereo_wav), "--out", str(out)]) == 0
        written = [out / "in.speech.wav", out / "in.noise.wav"]
        assert capsys.readouterr().out.splitlines() == [str(p) for p in written]
        assert written[0].read_bytes() != written[1].read_bytes()

    def test_one_input_twice_exit_2(self, tmp_path, stereo_wav, capsys):
        assert main(["separate", str(stereo_wav), str(stereo_wav)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {stereo_wav} and {stereo_wav} both write "
            f"{tmp_path / 'in.speech.wav'}"]
        assert not (tmp_path / "in.speech.wav").exists()

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

    def test_mono_exit_2(self, tmp_path, capsys):
        path = tmp_path / "mono.wav"
        write_wav(path, FS, 0.1 * np.random.default_rng(4).standard_normal(4096))
        assert main(["separate", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}: expected a stereo file, got 1 channels"]

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

    def test_empty_speech_names_the_files_exit_2(self, tmp_path, capsys):
        sp_dir, nz_dir = self._corpus(tmp_path)
        write_wav(sp_dir / "s.wav", FS, np.zeros(0))
        rc = main(["simulate", "--speech-dir", str(sp_dir), "--noise-dir",
                   str(nz_dir), "--n-scenes", "1", "--out", str(tmp_path / "scenes")])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(sp_dir / "s.wav") in err and "empty speech signal" in err

    @pytest.mark.parametrize("case", ["negative_count", "underscored_count", "signed_count",
                                      "missing_speech_dir"])
    def test_invalid_arguments_write_nothing(self, tmp_path, capsys, case):
        sp_dir, nz_dir = self._corpus(tmp_path)
        n_scenes = {"negative_count": "-1", "underscored_count": "3_0",
                    "signed_count": "+1"}.get(case, "1")
        if case == "missing_speech_dir":
            sp_dir = tmp_path / "absent"
        out = tmp_path / "scenes"
        argv = ["simulate", "--speech-dir", str(sp_dir), "--noise-dir",
                str(nz_dir), "--n-scenes", n_scenes, "--out", str(out)]
        if case != "missing_speech_dir":
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert f"--n-scenes: expected a non-negative integer, got {n_scenes}" in \
                capsys.readouterr().err
        else:
            assert main(argv) == 2
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

    @pytest.mark.parametrize("iters", [0, 20])
    def test_total_is_the_breakdown_sum(self, capsys, iters):
        macs = model.macs_breakdown(preset_config(model.DEFAULT_PRESET),
                                    IvaConfig(iterations=iters))
        assert main(["inspect", "--iva-iters", str(iters)]) == 0
        assert f"MACs/s: {sum(macs.values()) / 1e6:.2f} M total" in \
            capsys.readouterr().out.splitlines()

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

    def test_config_not_utf8_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe\x00bad")
        assert main(["--config", str(cfg), "inspect"]) == 2
        assert "error: cannot read config" in capsys.readouterr().err

    def test_hash_inside_a_value_is_kept(self, tmp_path, stereo_wav, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "runs" / "take#2.wav"
        cfg.write_text(f"out = {out}\n")
        assert main(["--config", str(cfg), "enhance", str(stereo_wav), "--no-iva"]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert out.is_file()

    def test_comment_after_whitespace(self, tmp_path, stereo_wav, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1  # note\n")
        assert main(["--config", str(cfg), "enhance", str(stereo_wav), "--no-iva",
                     "--out", str(tmp_path / "config.wav")]) == 0
        assert main(["enhance", str(stereo_wav), "--no-iva", "--seed", "1",
                     "--out", str(tmp_path / "flag.wav")]) == 0
        assert (tmp_path / "config.wav").read_bytes() == (tmp_path / "flag.wav").read_bytes()

    def test_switch_values(self, tmp_path, stereo_wav, capsys):
        # each spelling of a switch gives the bytes of the run it names
        def run(*lead, flags=()):
            out = tmp_path / "out.wav"
            assert main([*lead, "enhance", str(stereo_wav), *flags, "--out", str(out)]) == 0
            return out.read_bytes()
        want = {True: run(flags=["--no-iva"]), False: run()}
        assert want[True] != want[False]
        cfg = tmp_path / "run.cfg"
        for value, on in [("on", True), ("YES", True), ("1", True),
                          ("off", False), ("False", False), ("0", False)]:
            cfg.write_text(f"no-iva = {value}\n")
            assert run("--config", str(cfg)) == want[on], value

    def test_malformed_line_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert main(["--config", str(cfg), "inspect"]) == 2
        assert "expected key = value" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("jobs = 0", "jobs: expected a positive integer, got 0"),
        ("iva-iters = many", "iva-iters: expected a non-negative integer, got many"),
        ("seed = -3", "seed: expected a non-negative integer, got -3"),
        ("no-iva = ture", "no-iva: expected one of 1/0/true/false/yes/no/on/off, got ture"),
        ("iva-iters = -1", "iva-iters: expected a non-negative integer, got -1"),
    ], ids=["jobs_zero", "not_an_int", "negative_seed", "not_a_boolean", "negative_iva_iters"])
    def test_bad_value_exit_2(self, tmp_path, stereo_wav, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert main(["--config", str(cfg), "enhance", str(stereo_wav)]) == 2
        assert f"{cfg}:1: {message}" in capsys.readouterr().err


class TestRepeatedCalls:
    """``main`` called many times in one process, as a host that drives it
    per file does: what the process builds once must not carry a setting
    of one call into the next."""

    @pytest.fixture(autouse=True)
    def fresh_caches(self):
        cli._build_parser.cache_clear()
        cli._seeded_weights.cache_clear()

    @staticmethod
    def enhanced(wav, out, *flags, config=None) -> bytes:
        lead = [] if config is None else ["--config", str(config)]
        assert main([*lead, "enhance", str(wav), "--out", str(out), "--no-iva", *flags]) == 0
        return out.read_bytes()

    @staticmethod
    def weights_file(path, preset, seed):
        path.write_bytes(save_weights(init_random(preset_config(preset), seed)))
        return path

    def test_seed_and_preset_take_effect(self, tmp_path, stereo_wav, capsys):
        # each seeded run must equal a run on a weight file, which no cache
        # holds, of the same preset and seed
        seen = {}
        for preset, seed in [("lps-sn-m2", 0), ("lps-sn-m2", 1), ("lps-s-m2", 1),
                             ("lps-s-m2", 0), ("lps-sn-m2", 0)]:
            got = self.enhanced(stereo_wav, tmp_path / "o.wav",
                                "--preset", preset, "--seed", str(seed))
            blob = self.weights_file(tmp_path / "w.gtcw", preset, seed)
            assert got == self.enhanced(stereo_wav, tmp_path / "r.wav",
                                        "--preset", preset, "--weights", str(blob))
            seen.setdefault((preset, seed), got)
            assert seen[(preset, seed)] == got
        assert len(set(seen.values())) == 4

    def test_config_file_takes_effect(self, tmp_path, stereo_wav, capsys):
        want = {seed: self.enhanced(stereo_wav, tmp_path / f"s{seed}.wav", "--seed", str(seed))
                for seed in (0, 1)}
        assert want[0] != want[1]
        one, other = tmp_path / "one.cfg", tmp_path / "other.cfg"
        one.write_text("seed = 1\n")
        other.write_text("seed = 0\n")
        for path, seed in [(one, 1), (other, 0), (one, 1)]:
            assert self.enhanced(stereo_wav, tmp_path / "o.wav", config=path) == want[seed]
        one.write_text("seed = 0\n")               # rewritten between calls
        assert self.enhanced(stereo_wav, tmp_path / "o.wav", config=one) == want[0]
        one.write_text("preset = lps-s-m2\n")
        assert main(["--config", str(one), "inspect"]) == 0
        assert "25506 total" in capsys.readouterr().out
        one.write_text("no-iva = maybe\n")
        assert main(["--config", str(one), "inspect"]) == 2
        assert main(["inspect"]) == 0
        assert "25746 total" in capsys.readouterr().out

    def test_rewritten_weights_file_takes_effect(self, tmp_path, stereo_wav, capsys):
        path = tmp_path / "w.gtcw"
        outputs = []
        for seed in (0, 1, 0):
            self.weights_file(path, "lps-sn-m2", seed)
            outputs.append(self.enhanced(stereo_wav, tmp_path / "o.wav",
                                         "--weights", str(path)))
        assert outputs[0] != outputs[1] and outputs[0] == outputs[2]
        assert outputs[1] == self.enhanced(stereo_wav, tmp_path / "s.wav", "--seed", "1")

    @pytest.mark.skipif(not _glibc(), reason="the allocator policy is set on glibc only")
    def test_later_calls_reuse_freed_pages(self, tmp_path):
        # freed heap stays mapped from one call to the next, so a later call
        # touches almost no fresh pages (about 1000 per call when glibc trims
        # the heap after every file)
        write_wav(tmp_path / "in.wav", FS,
                  0.1 * np.random.default_rng(0).standard_normal((2, 2 * FS)))
        env = {**src_env(), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run([sys.executable, "-c", _FAULTS_PER_CALL, str(tmp_path)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 50

    def test_cached_weights_are_read_only(self):
        plan = cli._seeded_weights(ModelConfig(), 0)
        assert plan is cli._seeded_weights(ModelConfig(), 0)
        want = prepare(init_random(ModelConfig(), 0), ModelConfig())
        got, expected = list(plan.arrays()), list(want.arrays())
        assert len(got) == len(expected) > 0
        for tensor, other in zip(got, expected):
            assert not tensor.flags.writeable
            assert tensor.tobytes() == other.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[0][...] = 0

    def test_built_once_per_preset_and_seed(self, tmp_path, stereo_wav, capsys,
                                            monkeypatch):
        calls = []

        def counting_init(cfg, seed):
            calls.append((cfg, seed))
            return init_random(cfg, seed)

        monkeypatch.setattr("hybridse.cli.init_random", counting_init)
        runs = [("lps-sn-m2", 0), ("lps-sn-m2", 1), ("lps-s-m2", 0)] * 3
        for preset, seed in runs:
            self.enhanced(stereo_wav, tmp_path / "o.wav", "--preset", preset,
                          "--seed", str(seed))
        assert calls == [(preset_config(preset), seed) for preset, seed in runs[:3]]
        assert cli._build_parser.cache_info().misses == 1


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
        # only enhance --jobs > 1 needs the pool, and it imports it then;
        # render_scene's helper is a plain thread, so no part of
        # concurrent.futures (which loads logging: some 8 ms) is loaded
        code = ("import sys, hybridse, hybridse.cli; "
                "print('concurrent.futures' in sys.modules)")
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


# Runs 6 ``enhance --no-iva`` calls through cli.main and prints the mean
# minor page faults per call over the last 4.
_FAULTS_PER_CALL = """\
import contextlib, io, resource, sys
from pathlib import Path
from hybridse.cli import main

tmp = Path(sys.argv[1])
argv = ["enhance", str(tmp / "in.wav"), "--no-iva", "--out", str(tmp / "out.wav")]
with contextlib.redirect_stdout(io.StringIO()):
    for call in range(6):
        if call == 2:
            start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert main(argv) == 0
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start) / 4)
"""


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

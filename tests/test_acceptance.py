"""End-to-end acceptance gate.

Each test covers one numbered release criterion and prints a single
``criterion N ... : PASS`` line with the measured figure; the assert that
follows carries the same threshold, so a failure shows the measurement.
"""

import time

import numpy as np
import pytest
import scipy.stats

import oracles
from conftest import FS, convolutive_scene, separate_to_waves
from hybridse import nn
from hybridse.auxiva import (IvaConfig, auxiva_separate, iva_macs_per_second,
                             iva_sweep, projection_back)
from hybridse.cli import main
from hybridse.dsp import StftConfig, istft, stft
from hybridse.loss import (hybrid_loss, imag_loss, mag_loss, real_loss,
                           si_snr, sisnr_loss)
from hybridse.model import (ModelConfig, count_params, enhance, init_random,
                            param_breakdown, preset_config)
from hybridse.simkit import image_rir, render_scene, sample_scene, schroeder_rt60
from hybridse.wavio import write_wav


def _report(n, name, value, ok):
    print(f"criterion {n} {name}: {value} : {'PASS' if ok else 'FAIL'}")


def _rel_linf(got, want):
    scale = max(np.max(np.abs(want)), 1e-12)
    return float(np.max(np.abs(got - want)) / scale)


def test_criterion_01_stft_round_trip():
    cfg = StftConfig()
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(FS)
        back = istft(stft(x, cfg), cfg, length=FS)
        lo, hi = cfg.fft_size, FS - cfg.fft_size
        err = np.linalg.norm(back[lo:hi] - x[lo:hi]) / np.linalg.norm(x[lo:hi])
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    _report(1, "stft round trip", f"interior rel L2 {worst:.2e} in {elapsed:.2f}s", ok)
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_02_nn_primitives_vs_oracles():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = {}

    def track(name, got, want):
        worst[name] = max(worst.get(name, 0.0), _rel_linf(got, want))

    for _ in range(100):
        g = int(rng.choice([1, 2, 3]))
        cin, cout = 2 * g, 3 * g
        b, t, f = int(rng.integers(1, 3)), int(rng.integers(3, 6)), int(rng.integers(3, 7))
        kt, kf = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        st, sf = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        dt = int(rng.integers(1, 3))
        x = rng.standard_normal((b, cin, t, f)).astype(np.float32)
        k = rng.standard_normal((cout, cin // g, kt, kf)).astype(np.float32)
        kb = rng.standard_normal(cout).astype(np.float32)
        track("conv2d", nn.conv2d(x, k, kb, stride=(st, sf), dilation=(dt, 1), groups=g),
              oracles.conv2d_naive(x, k, kb, (st, sf), (dt, 1), g))

        k = rng.standard_normal((cin, cout // g, kt, kf)).astype(np.float32)
        kb = rng.standard_normal(cout).astype(np.float32)
        track("conv_transpose2d", nn.conv_transpose2d(x, k, kb, stride=(st, sf), groups=g),
              oracles.conv_transpose2d_naive(x, k, kb, (st, sf), groups=g))

        bn = (rng.standard_normal(cin).astype(np.float32),
              rng.standard_normal(cin).astype(np.float32),
              rng.standard_normal(cin).astype(np.float32),
              rng.uniform(0.1, 2.0, cin).astype(np.float32))
        track("batch_norm", nn.batch_norm_infer(x, *bn),
              oracles.batch_norm_naive(x, *bn, 1e-5))

        alpha = rng.standard_normal(cin).astype(np.float32)
        track("prelu", nn.prelu(x, alpha), oracles.prelu_naive(x, alpha))

        seq = rng.standard_normal((t, b, cin)).astype(np.float32)
        h = int(rng.integers(2, 5))
        gp = nn.GruParams(rng.standard_normal((cin, 3 * h)).astype(np.float32),
                          rng.standard_normal((h, 3 * h)).astype(np.float32),
                          rng.standard_normal(3 * h).astype(np.float32))
        track("gru", nn.gru_sequence(seq, gp, "forward"),
              oracles.gru_naive(seq, gp.w_x, gp.w_h, gp.bias))

        # the draw of the retired channel-shuffle track, kept so that every
        # later draw stays the same
        rng.standard_normal((b, 2 * g * 3, t, f))
    elapsed = time.perf_counter() - t0
    peak = max(worst.values())
    ok = peak <= 1e-5 and elapsed < 60.0
    _report(2, "nn primitives vs oracles",
            f"rel Linf {peak:.2e} over 100 draws x {len(worst)} ops in {elapsed:.1f}s", ok)
    assert peak <= 1e-5, worst
    assert elapsed < 60.0


def test_criterion_03_iva_normalization_and_projection():
    rng = np.random.default_rng(2)
    cfg = IvaConfig()
    worst_norm = 0.0
    worst_pb = 0.0
    for _ in range(50):
        spec = (rng.standard_normal((2, 12, 17))
                + 1j * rng.standard_normal((2, 12, 17)))
        w = np.tile(np.eye(2, dtype=complex), (17, 1, 1))
        for _ in range(3):
            w, v = iva_sweep(spec, w, cfg)
            for m in range(2):
                wm = np.conj(w[:, m, :])        # rows store the conjugate
                q = np.einsum("kc,kcd,kd->k", wm.conj(), v[m], wm)
                worst_norm = max(worst_norm, float(np.max(np.abs(q - 1.0))))
        from hybridse.auxiva import demix
        sources = projection_back(demix(spec, w), w, ref_channel=0)
        resid = np.max(np.abs(sources.sum(axis=0) - spec[0]))
        worst_pb = max(worst_pb, float(resid / max(1.0, np.max(np.abs(spec[0])))))
    ok = worst_norm <= 1e-6 and worst_pb <= 1e-6
    _report(3, "iva normalization + projection back",
            f"|wHVw-1| {worst_norm:.2e}, decomposition residual {worst_pb:.2e}", ok)
    assert worst_norm <= 1e-6
    assert worst_pb <= 1e-6


def test_criterion_04_iva_separation_gain():
    t0 = time.perf_counter()
    gains = []
    for seed in range(20):
        mix, img = convolutive_scene(seed)
        outs = separate_to_waves(mix)
        base = si_snr(mix[0], img)
        best = max(si_snr(o, img) for o in outs)
        gains.append(best - base)
    elapsed = time.perf_counter() - t0
    med = float(np.median(gains))
    ok = med >= 5.0 and elapsed < 120.0
    _report(4, "iva separation gain",
            f"median SI-SNR improvement {med:.2f} dB over 20 scenes in {elapsed:.0f}s", ok)
    assert med >= 5.0, gains
    assert elapsed < 120.0


def test_criterion_05_parameter_accounting():
    id6 = count_params(preset_config("lps-sn-m2"))
    id5 = count_params(preset_config("lps-s-m2"))
    id3 = count_params(preset_config("lps-s-m1"))
    rel = (id6 - 24390) / 24390
    sums_ok = all(sum(param_breakdown(preset_config(p)).values())
                  == count_params(preset_config(p))
                  for p in ("lps-sn-m2", "lps-s-m2", "lps-s-m1"))
    ok = abs(rel) <= 0.15 and id3 < id6 and id5 < id6 and sums_ok
    _report(5, "parameter accounting",
            f"default {id6} ({rel:+.1%} of 24390), smaller variants {id3}/{id5}", ok)
    assert abs(rel) <= 0.15
    assert id3 < id6 and id5 < id6
    assert sums_ok


def test_criterion_06_iva_complexity_bracket():
    per_iter = iva_macs_per_second(IvaConfig(iterations=1)) / 1e6
    ok = 0.05 <= per_iter <= 2.0
    _report(6, "iva complexity", f"{per_iter:.3f} MMACs/s per iteration", ok)
    assert 0.05 <= per_iter <= 2.0


def test_criterion_07_causality_without_iva():
    cfg = ModelConfig()
    w = init_random(cfg, 0)
    scfg = StftConfig()
    rng = np.random.default_rng(3)
    wave = 0.1 * rng.standard_normal((2, 8192))
    base = enhance(wave, w, cfg, use_iva=False)
    n_frames = base.mask.shape[1]
    worst = 0.0
    for t in rng.integers(1, n_frames - 3, size=20):
        t = int(t)
        cut = t * scfg.hop + scfg.fft_size   # first sample beyond frame t
        pert = wave.copy()
        pert[:, cut:] += 0.05 * rng.standard_normal((2, 8192 - cut))
        out = enhance(pert, w, cfg, use_iva=False)
        worst = max(worst,
                    float(np.max(np.abs(out.mask[:, :t + 1] - base.mask[:, :t + 1]))),
                    float(np.max(np.abs(out.est_spec[:t + 1] - base.est_spec[:t + 1]))))
    ok = worst == 0.0
    _report(7, "causality without iva",
            f"max past-frame deviation {worst} over 20 cuts", ok)
    assert worst == 0.0


def test_criterion_08_loss_identities():
    rng = np.random.default_rng(4)
    worst_scale = 0.0
    for _ in range(20):
        est = rng.standard_normal(800)
        ref = rng.standard_normal(800)
        c = float(rng.uniform(0.01, 100.0))
        worst_scale = max(worst_scale, abs(si_snr(c * est, ref) - si_snr(est, ref)))

    ref = rng.standard_normal(1024)
    orth = rng.standard_normal(1024)
    orth -= orth @ ref / (ref @ ref) * ref
    orth *= np.linalg.norm(ref) / np.linalg.norm(orth)
    zero_db = abs(si_snr(ref + orth, ref))

    spec = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    other = spec + 0.1 * (rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9)))
    zero_iff = (mag_loss(spec, spec) == 0.0 and real_loss(spec, spec) == 0.0
                and imag_loss(spec, spec) == 0.0
                and mag_loss(other, spec) > 0 and real_loss(other, spec) > 0
                and imag_loss(other, spec) > 0)

    est_w, ref_w = rng.standard_normal(1000), rng.standard_normal(1000)
    alpha, beta = 0.01, 0.3
    combined = hybrid_loss(est_w, ref_w, other, spec, alpha=alpha, beta=beta)
    manual = (alpha * sisnr_loss(est_w, ref_w)
              + (1 - beta) * mag_loss(other, spec)
              + beta * (real_loss(other, spec) + imag_loss(other, spec)))
    comp = abs(combined - manual)

    ok = worst_scale <= 1e-9 and zero_db <= 1e-6 and zero_iff and comp <= 1e-12
    _report(8, "loss identities",
            f"scale {worst_scale:.1e}, 0dB {zero_db:.1e}, composition {comp:.1e}", ok)
    assert worst_scale <= 1e-9
    assert zero_db <= 1e-6
    assert zero_iff
    assert comp <= 1e-12


def test_criterion_09_simulator_snr_and_decay():
    rng = np.random.default_rng(5)
    worst_snr = 0.0
    for seed in range(100):
        scene = sample_scene(seed)
        speech = 0.1 * np.repeat(rng.uniform(0.1, 1.0, 10), 800) \
            * rng.standard_normal(8000)
        noise = 0.1 * rng.standard_normal(8000)
        r = render_scene(scene, speech, noise)
        e_s = np.sum((r.speech_image[0] * r.norm) ** 2)
        e_n = np.sum((r.mixture[0] - r.speech_image[0] * r.norm) ** 2)
        measured = 10.0 * np.log10(e_s / e_n)
        worst_snr = max(worst_snr, abs(measured - scene.snr_db))

    requested, measured_rt = [], []
    for seed in range(50):
        scene = sample_scene(1000 + seed)
        rir = image_rir(scene)
        requested.append(scene.rt60)
        measured_rt.append(schroeder_rt60(rir.taps[0]))
    rho = scipy.stats.spearmanr(requested, measured_rt).statistic

    scene = sample_scene(77)
    a = render_scene(scene, 0.1 * np.ones(4000), 0.1 * np.ones(4000))
    b = render_scene(scene, 0.1 * np.ones(4000), 0.1 * np.ones(4000))
    deterministic = (np.array_equal(a.mixture, b.mixture)
                     and np.array_equal(a.target, b.target))

    ok = worst_snr <= 0.01 and rho > 0.9 and deterministic
    _report(9, "simulator snr + decay",
            f"max SNR error {worst_snr:.4f} dB, decay rank corr {rho:.3f}", ok)
    assert worst_snr <= 0.01
    assert rho > 0.9
    assert deterministic


def test_criterion_10_real_time_factor(tmp_path):
    rng = np.random.default_rng(6)
    wave = 0.1 * rng.standard_normal((2, 10 * FS))
    src = tmp_path / "clip.wav"
    out = tmp_path / "clip.out.wav"
    write_wav(src, FS, wave)
    t0 = time.perf_counter()
    rc = main(["enhance", str(src), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    rtf = elapsed / 10.0
    ok = rc == 0 and rtf < 0.5
    _report(10, "real-time factor", f"RTF {rtf:.3f} on a 10 s clip", ok)
    assert rc == 0
    assert rtf < 0.5

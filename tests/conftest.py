"""Shared fixtures and synthetic-signal builders for the test suite."""

import numpy as np
import pytest

from hybridse import IvaConfig, StftConfig, auxiva_separate, istft, stft
from hybridse.bands import make_erb_filterbank

FS = 16000


@pytest.fixture(scope="session")
def fb():
    return make_erb_filterbank()


def burst_laplacian(rng, n, block=800, floor=0.01):
    """Laplacian carrier under an exponential block envelope.

    The envelope draws give the frame-energy sequence the heavy tail that
    separates speech from steadier interference, which is what the source
    ordering heuristic keys on.
    """
    blocks = n // block + 1
    env = np.repeat(rng.exponential(1.0, blocks), block)[:n] + floor
    return rng.laplace(size=n) * env


def fluctuating_noise(rng, n, block=800):
    """Gaussian noise with mild block-level level fluctuation (babble-like)."""
    env = np.repeat(rng.uniform(0.5, 1.5, n // block + 1), block)[:n]
    return rng.standard_normal(n) * env


def instantaneous_scene(seed, n=2 * FS, snr_db=-5.0):
    """Random 2x2 instantaneous mixture of a speech-like source and noise.

    Returns (mix [2, n], speech image at mic 0, noise image at mic 0).
    """
    rng = np.random.default_rng(seed)
    s = burst_laplacian(rng, n)
    v = fluctuating_noise(rng, n)
    a = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
    img = np.stack([np.outer(a[:, 0], s), np.outer(a[:, 1], v)], axis=1)
    e_s = np.sum(img[0, 0] ** 2)
    e_v = np.sum(img[0, 1] ** 2)
    img[:, 1] *= np.sqrt(e_s / (e_v * 10.0 ** (snr_db / 10.0)))
    return img.sum(axis=1), img[0, 0], img[0, 1]


def random_rir(rng, n=1600, tau=0.008, tail=0.3):
    """0.1 s exponentially decaying random reflection pattern with a unit
    direct tap at a random small delay; unit-norm overall."""
    t = np.arange(n) / FS
    h = rng.standard_normal(n) * np.exp(-t / tau)
    h[0] = 0.0
    d = rng.integers(0, 8)
    out = np.zeros(n)
    out[d] = 1.0
    out += tail * h / np.max(np.abs(h))
    return out / np.linalg.norm(out)


def convolutive_scene(seed, n=2 * FS, snr_db=-5.0):
    """2x2 convolutive mixture of independent Laplacian sources.

    Source 0 carries a block-varying envelope, source 1 is stationary; both
    are convolved with independent 0.1 s random RIRs per microphone.
    Returns (mix [2, n], source-0 image at mic 0).
    """
    rng = np.random.default_rng(seed)
    env = np.repeat(rng.uniform(0.05, 1.0, n // 800 + 1), 800)[:n]
    s0 = rng.laplace(size=n) * env
    s1 = rng.laplace(size=n)
    img = np.zeros((2, 2, n))
    for mic in range(2):
        for src, s in enumerate((s0, s1)):
            img[mic, src] = np.convolve(s, random_rir(rng))[:n]
    e0 = np.sum(img[0, 0] ** 2)
    e1 = np.sum(img[0, 1] ** 2)
    img[:, 1] *= np.sqrt(e0 / (e1 * 10.0 ** (snr_db / 10.0)))
    return img.sum(axis=1), img[0, 0]


def separate_to_waves(mix, iterations=20):
    """stft -> auxiva -> istft round trip, returning [2, n] time signals."""
    cfg = StftConfig()
    sep, _ = auxiva_separate(stft(mix, cfg), IvaConfig(iterations=iterations))
    n = mix.shape[1]
    return np.stack([istft(sep[0], cfg, length=n), istft(sep[1], cfg, length=n)])

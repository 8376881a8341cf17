"""Determined blind source separation via auxiliary-function IVA.

Operates on two-channel spectrogram tensors shaped ``[channel, frame, bin]``.
The demixing state ``w`` is one 2x2 complex matrix per bin whose rows are the
conjugated demixing vectors, so source m at bin k is
``x_m[l, k] = w[k, m, :] @ y[:, l, k]``.  The contrast function is the
spherical Laplace prior, which weights each frame's covariance contribution
by the reciprocal of that frame's source envelope.

A sweep updates each source in turn: envelope, weighted covariance, a 2x2
solve against the current demixing state, then renormalization so the
updated vector has unit quadratic form under its own covariance.

The weighted covariance is a frame-weighted sum of the rank-1 terms
``y y^H``, which do not depend on the demixing state (Ono, WASPAA 2011).
They are built once per utterance by :func:`covariance_stats`, so each
covariance update is a single ``[frames] @ [frames, 4 * bins]`` product.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dsp import StftConfig
from .errors import DegenerateInputError, InvalidInputError, NumericalError


@dataclass(frozen=True)
class IvaConfig:
    iterations: int = 20
    eps: float = 1e-8
    ref_channel: int = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise InvalidInputError("iterations must be >= 0")
        if not 0 <= self.ref_channel < 2:
            raise InvalidInputError("ref_channel must be 0 or 1")
        if self.eps <= 0:
            raise InvalidInputError("eps must be positive")


def _check_spec(spec: np.ndarray) -> np.ndarray:
    spec = np.asarray(spec)
    if spec.ndim != 3 or spec.shape[0] != 2:
        raise InvalidInputError(f"expected [2, frames, bins], got shape {spec.shape}")
    if not np.iscomplexobj(spec):
        spec = spec.astype(np.complex128)
    return spec


def _demix_row(spec: np.ndarray, row: np.ndarray, out: np.ndarray,
               term: np.ndarray) -> np.ndarray:
    """``out[l, k] = row[k, 0] spec[0, l, k] + row[k, 1] spec[1, l, k]``.

    ``term`` is scratch of the same shape as ``out``; both are written in
    place, so a caller looping over sources allocates them once.
    """
    np.multiply(row[:, 0], spec[0], out=out)
    np.multiply(row[:, 1], spec[1], out=term)
    out += term
    return out


def demix(spec: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply per-bin demixing rows: out[m, l, k] = sum_c w[k, m, c] spec[c, l, k]."""
    if spec.shape[0] != 2 or w.shape[2] != 2:
        raise InvalidInputError(
            f"expected two channels, got spec {spec.shape} and w {w.shape}")
    out = np.empty((w.shape[1],) + spec.shape[1:], dtype=np.result_type(spec, w))
    term = np.empty_like(out[0])
    for m in range(w.shape[1]):
        _demix_row(spec, w[:, m, :], out[m], term)
    return out


def _solve_rows(wv: np.ndarray, m: int) -> np.ndarray:
    rhs = np.zeros(wv.shape[:1] + (2, 1), dtype=wv.dtype)
    rhs[:, m, 0] = 1.0
    return np.linalg.solve(wv, rhs)[:, :, 0]


def covariance_stats(spec: np.ndarray) -> np.ndarray:
    """Per-utterance rank-1 covariance terms, ``[frames, 4 * bins]`` real.

    Row l holds ``|y0|^2``, ``|y1|^2``, ``Re(y0 y1*)`` and ``Im(y0 y1*)`` of
    frame l, each a block of ``bins`` values, divided by the frame count; the
    weighted covariance for frame weights ``1 / r`` is then
    ``(1 / r) @ stats`` reshaped to ``[4, bins]``.
    """
    spec = _check_spec(spec)
    n_frames, n_bins = spec.shape[1], spec.shape[2]
    y0, y1 = spec[0], spec[1]
    stats = np.empty((n_frames, 4, n_bins))
    np.add(y0.real ** 2, y0.imag ** 2, out=stats[:, 0])
    np.add(y1.real ** 2, y1.imag ** 2, out=stats[:, 1])
    cross = y0 * np.conj(y1)
    stats[:, 2] = cross.real
    stats[:, 3] = cross.imag
    stats /= n_frames
    return stats.reshape(n_frames, 4 * n_bins)


def _weighted_covariance(stats: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Hermitian ``[bins, 2, 2]`` covariance weighted by ``1 / r`` per frame."""
    p00, p11, re, im = ((1.0 / r) @ stats).reshape(4, -1)
    v = np.empty((p00.size, 2, 2), dtype=np.complex128)
    v[:, 0, 0] = p00
    v[:, 1, 1] = p11
    v[:, 0, 1] = re + 1j * im
    v[:, 1, 0] = re - 1j * im
    return v


def _quad_form(wm: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ka,kab,kb->k", np.conj(wm), v, wm))


def _positive(quad: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(quad) & (quad > 0)))


def iva_sweep(spec: np.ndarray, w: np.ndarray, cfg: IvaConfig = IvaConfig(),
              stats: Optional[np.ndarray] = None):
    """One full update sweep over both sources.

    Returns ``(w_new, v)`` where ``v[m]`` is the per-bin auxiliary covariance
    actually used for source m's update; after the sweep
    ``w_m^H v[m] w_m = 1`` holds for every bin.  A system that is singular,
    gives a non-finite update or a non-positive normalization ``w^H v w`` is
    regularized once with a trace-scaled identity; if it still fails a
    :class:`NumericalError` is raised.

    The rank-1 terms ``y y^H`` of the covariance come from ``stats``, the
    output of :func:`covariance_stats`, which callers running several sweeps
    build once per utterance; it is built here when omitted, with a
    bit-identical result.
    """
    spec = _check_spec(spec)
    n_frames, n_bins = spec.shape[1], spec.shape[2]
    if n_frames == 0:
        raise DegenerateInputError("no frames to separate")
    if stats is None:
        stats = covariance_stats(spec)
    elif stats.shape != (n_frames, 4 * n_bins):
        raise InvalidInputError(
            f"expected stats of shape {(n_frames, 4 * n_bins)}, got {stats.shape}")
    w = np.array(w, dtype=np.complex128, copy=True)
    v_used = np.empty((2, n_bins, 2, 2), dtype=np.complex128)
    xm = np.empty((n_frames, n_bins), dtype=np.complex128)
    term = np.empty_like(xm)
    for m in range(2):
        # re and im of the current source, interleaved, squared in place
        power = _demix_row(spec, w[:, m, :], xm, term).view(np.float64)
        np.square(power, out=power)
        r = np.sqrt(np.sum(power, axis=1))
        np.maximum(r, cfg.eps, out=r)
        v = _weighted_covariance(stats, r)
        try:
            wm = _solve_rows(w @ v, m)
            quad = _quad_form(wm, v) if np.all(np.isfinite(wm)) else None
        except np.linalg.LinAlgError:
            quad = None
        if quad is None or not _positive(quad):
            tr = np.real(v[:, 0, 0] + v[:, 1, 1]) / 2.0
            v = v + (cfg.eps * tr + cfg.eps)[:, None, None] * np.eye(2)
            try:
                wm = _solve_rows(w @ v, m)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("singular demixing update") from exc
            if not np.all(np.isfinite(wm)):
                raise NumericalError("demixing update diverged")
            quad = _quad_form(wm, v)
            if not _positive(quad):
                raise NumericalError("non-positive normalization in demixing update")
        wm = wm / np.sqrt(quad)[:, None]
        w[:, m, :] = np.conj(wm)
        v_used[m] = v
    return w, v_used


def auxiva_separate(spec, cfg: IvaConfig = IvaConfig()):
    """Run ``cfg.iterations`` sweeps and return ``(sources, w)``.

    ``sources`` is ``[2, frames, bins]`` after projection back onto
    ``cfg.ref_channel``, ordered so the channel with the spikier frame
    envelope (higher excess kurtosis, speech-like) comes first; ``w`` is the
    final demixing tensor ``[bins, 2, 2]`` under the same ordering.

    The rank-1 covariance terms are built once per utterance
    (:func:`covariance_stats`) and shared by every sweep; the result is
    bit-identical to calling ``iva_sweep(spec, w, cfg)`` ``cfg.iterations``
    times and then projecting back and ordering.
    """
    spec = _check_spec(spec)
    if spec.shape[1] < 2:
        raise InvalidInputError("need at least 2 frames")
    if not np.any(spec):
        raise DegenerateInputError("all-zero input; nothing to separate")
    n_bins = spec.shape[2]

    w = np.tile(np.eye(2, dtype=np.complex128), (n_bins, 1, 1))
    stats = covariance_stats(spec)
    for _ in range(cfg.iterations):
        w, _ = iva_sweep(spec, w, cfg, stats)

    sources = projection_back(demix(spec, w), w, cfg.ref_channel)
    order = order_sources(sources)
    return sources[order], w[:, order, :]


def projection_back(y_sep: np.ndarray, w: np.ndarray, ref_channel: int = 0) -> np.ndarray:
    """Rescale demixed sources to their images at the reference microphone.

    With the mixing matrix ``A = W^-1`` per bin, source m is scaled by
    ``A[ref_channel, m]``; the rescaled sources then sum exactly to the
    reference-channel spectrogram, so the scale ambiguity is resolved with
    minimal distortion.
    """
    if not 0 <= ref_channel < w.shape[1]:
        raise InvalidInputError(f"ref_channel {ref_channel} out of range")
    try:
        a = np.linalg.inv(w)
    except np.linalg.LinAlgError as exc:
        det = np.linalg.det(w)
        bad = np.nonzero(~(np.isfinite(det) & (det != 0)))[0]
        where = f" at bin {bad[0]}" if bad.size else ""
        raise NumericalError(f"demixing matrix not invertible{where}") from exc
    if not np.all(np.isfinite(a)):
        bad = np.nonzero(~np.all(np.isfinite(a), axis=(1, 2)))[0]
        raise NumericalError(f"demixing matrix not invertible at bin {bad[0]}")
    scale = a[:, ref_channel, :].T  # [source, bin]
    return y_sep * scale[:, None, :]


def _excess_kurtosis(env: np.ndarray) -> np.ndarray:
    """Biased Fisher kurtosis ``m4 / m2^2 - 3`` of each row of ``env``.

    NaN where the variance is zero to working precision,
    ``m2 <= (eps * mean)^2``: the rule of ``scipy.stats.kurtosis``.
    """
    mean = np.mean(env, axis=1, keepdims=True)
    dev2 = (env - mean) ** 2
    m2 = np.mean(dev2, axis=1)
    m4 = np.mean(dev2 ** 2, axis=1)
    with np.errstate(all="ignore"):
        flat = m2 <= (np.finfo(m2.dtype).eps * mean[:, 0]) ** 2
        return np.where(flat, np.nan, m4 / m2 ** 2.0) - 3


def order_sources(y_sep: np.ndarray) -> np.ndarray:
    """Permutation putting the source with the higher excess kurtosis of its
    frame magnitude envelope first; ties keep the original order.

    The final frame is excluded from the statistic whenever at least three
    frames exist: analysis zero-pads the signal tail, so that frame is a
    guaranteed low-energy outlier that would dominate the kurtosis of any
    stationary source and invert the ranking.  A flat envelope, whose
    kurtosis is undefined, ranks as -3.
    """
    env = np.sqrt(np.sum(np.abs(y_sep) ** 2, axis=2))  # [source, frame]
    if env.shape[1] >= 3:
        env = env[:, :-1]
    k = _excess_kurtosis(env)
    k = np.where(np.isfinite(k), k, -3.0)
    return np.argsort(-k, kind="stable")


def iva_macs_per_second(cfg: IvaConfig, stft_cfg: StftConfig = StftConfig()) -> float:
    """Real multiply-accumulates per second of audio for ``cfg.iterations``
    sweeps, counting one complex MAC as four real MACs.

    The figure is the marginal (streaming) cost: per frame and per source it
    counts demixing the current source, squared-envelope accumulation, the
    1/r frame weighting, and the rank-1 covariance accumulation, then scales
    by the frame rate.  The per-bin ``W V`` product, 2x2 solve, and
    renormalization cost a fixed ~39 kMAC per sweep regardless of utterance
    length and are excluded, so the count is exactly linear in both the
    frame rate and the iteration count.  It is the algorithm's cost as
    written; :func:`auxiva_separate` builds the rank-1 terms once per
    utterance rather than once per sweep, so it performs fewer.
    """
    n_bins = stft_cfg.n_bins
    frames_per_second = stft_cfg.frames_per_second
    m = 2
    per_frame = (
        4 * n_bins * m          # demix current source across bins
        + 4 * n_bins            # |x|^2 envelope accumulation
        + 2 * m * n_bins        # scale spectra by 1/r
        + 4 * n_bins * m * m    # rank-1 covariance accumulation
    )
    return float(cfg.iterations * m * per_frame * frames_per_second)

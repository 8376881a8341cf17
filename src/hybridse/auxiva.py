"""Determined blind source separation via auxiliary-function IVA.

Operates on two-channel spectrogram tensors shaped ``[channel, frame, bin]``.
The demixing state ``w`` is one 2x2 complex matrix per bin whose rows are the
conjugated demixing vectors, so source m at bin k is
``x_m[l, k] = w[k, m, :] @ y[:, l, k]``.  The contrast function is the
spherical Laplace prior, which weights each frame's covariance contribution
by the reciprocal of that frame's source envelope.

A sweep runs on per-utterance statistics alone (Ono, WASPAA 2011).  The
rank-1 terms ``y y^H`` do not depend on the demixing state, so
:func:`covariance_stats` builds them once per utterance as a real
``[frames, 4 * bins]`` array.  A source's squared frame envelope and its
weighted covariance are both linear in those terms.  Source m's envelope and
covariance read only row m of ``w``, which the other source's update leaves
alone, so a sweep starts with one matrix product of ``stats`` and both
rows' envelope coefficients, and one frame sum of ``stats`` weighted by
``1 / r`` for both covariances, an ``np.einsum`` whose summation order,
unlike BLAS's, does not follow the thread count.  These two products are
what :func:`iva_macs_per_second` counts.  Each source is then updated in
turn by a closed-form 2x2 adjugate solve against the current demixing
state, and renormalized so the updated vector has unit quadratic form
under its own covariance.

The envelope read off the statistics loses digits to cancellation when a
source is strongly suppressed; the frames where that could show are
recomputed from the spectrogram (see ``_CANCELLATION_RATIO``).
"""

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .dsp import StftConfig, check_float32_range
from .errors import DegenerateInputError, InvalidInputError, NumericalError

# Row (a, b) of ``w`` splits a bin's power |a y0 + b y1|^2 into the direct
# part q = |a|^2 |y0|^2 + |b|^2 |y1|^2 and the cross part 2 Re(a b* y0 y1*),
# whose magnitude is at most q (Cauchy-Schwarz, then AM-GM).  Summed over
# bins, 0 <= r^2 <= 2 q.  The statistics evaluate r^2 from these expanded
# terms, so its rounding error is a few ulps of q, not of r^2: a relative
# error of about 1e-16 * q / r^2.  Frames with r^2 < 1e-4 q, where that
# exceeds 1e-12, are recomputed from the spectrogram, so the weighted
# covariance stays at rounding distance from a direct evaluation.
_CANCELLATION_RATIO = 1e-4


@dataclass(frozen=True)
class IvaConfig:
    """The sweep count is the one setting; the envelope floor and ridge
    scale ``eps`` and the reference microphone for projection back are
    fixed."""
    iterations: int = 20

    eps: ClassVar[float] = 1e-8
    ref_channel: ClassVar[int] = 0

    def __post_init__(self):
        if self.iterations < 0:
            raise InvalidInputError("iterations must be >= 0")


def check_reference(x: np.ndarray) -> None:
    """Raise :class:`InvalidInputError` when microphone
    ``IvaConfig.ref_channel`` of the two-channel ``x`` (a waveform or a
    spectrogram) is all zeros and the other is not.  Projection back and
    both mask targets read that microphone, so every output would be
    silence.  Two silent microphones pass: IVA then bypasses itself."""
    ref = IvaConfig.ref_channel
    if not np.any(x[ref]) and np.any(x[1 - ref]):
        raise InvalidInputError(
            f"microphone {ref}, the reference, is silent; microphone {1 - ref} is not")


def _check_spec(spec: np.ndarray) -> np.ndarray:
    spec = np.asarray(spec)
    if spec.ndim != 3 or spec.shape[0] != 2:
        raise InvalidInputError(f"expected [2, frames, bins], got shape {spec.shape}")
    if not np.iscomplexobj(spec):
        spec = spec.astype(np.complex128)
    return spec


def _check_w(w: np.ndarray, n_bins: int) -> np.ndarray:
    w = np.asarray(w)
    if w.shape != (n_bins, 2, 2):
        raise InvalidInputError(
            f"expected demixing state of shape {(n_bins, 2, 2)}, got {w.shape}")
    return w


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
    spec = _check_spec(spec)
    w = _check_w(w, spec.shape[2])
    out = np.empty((2,) + spec.shape[1:], dtype=np.result_type(spec, w))
    term = np.empty_like(out[0])
    for m in range(2):
        _demix_row(spec, w[:, m, :], out[m], term)
    return out


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


def _envelopes(spec: np.ndarray, stats: np.ndarray, w: np.ndarray,
               eps: float) -> np.ndarray:
    """Frame envelopes ``r[l, m] = max(eps, ||x_m[l, :]||)``, ``[frames, 2]``.

    ``r^2 = L * stats @ [|a|^2, |b|^2, 2 Re(a b*), -2 Im(a b*)]`` for row
    ``(a, b)`` of each source, evaluated as the direct part ``q`` plus the
    cross part; frames that lost digits to cancellation are demixed directly.
    """
    n_frames, n_bins = spec.shape[1], spec.shape[2]
    a, b = w[:, :, 0], w[:, :, 1]  # [bins, source]
    ab = a * np.conj(b)
    direct = n_frames * np.concatenate([a.real ** 2 + a.imag ** 2,
                                        b.real ** 2 + b.imag ** 2])
    cross = n_frames * np.concatenate([2.0 * ab.real, -2.0 * ab.imag])
    q = stats[:, :2 * n_bins] @ direct
    r2 = q + stats[:, 2 * n_bins:] @ cross
    for m in range(2):
        lost = np.nonzero(r2[:, m] < _CANCELLATION_RATIO * q[:, m])[0]
        if lost.size:
            sub = spec[:, lost]
            power = _demix_row(sub, w[:, m, :], np.empty_like(sub[0]),
                               np.empty_like(sub[0])).view(np.float64)
            r2[lost, m] = np.sum(np.square(power, out=power), axis=1)
    r = np.sqrt(np.maximum(r2, 0.0, out=r2), out=r2)
    return np.maximum(r, eps, out=r)


def _weighted_covariances(stats: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Hermitian ``[2, bins, 2, 2]`` covariances, source m's frames weighted
    by ``1 / r[:, m]``.  The frame sum runs in ``einsum``'s fixed order, not
    through BLAS, whose summation order follows its thread count."""
    p00, p11, re, im = np.moveaxis(
        np.einsum("lm,lk->mk", 1.0 / r, stats).reshape(2, 4, -1), 1, 0)
    v = np.empty(p00.shape + (2, 2), dtype=np.complex128)
    v[..., 0, 0] = p00
    v[..., 1, 1] = p11
    v[..., 0, 1] = re + 1j * im
    v[..., 1, 0] = re - 1j * im
    return v


def _adjugate(b: np.ndarray):
    """Adjugate and determinant of each 2x2 matrix in ``b``, ``[..., 2, 2]``;
    ``b^-1 = adj / det`` wherever ``det`` is non-zero."""
    adj = np.empty_like(b)
    adj[..., 0, 0] = b[..., 1, 1]
    adj[..., 1, 1] = b[..., 0, 0]
    adj[..., 0, 1] = -b[..., 0, 1]
    adj[..., 1, 0] = -b[..., 1, 0]
    return adj, b[..., 0, 0] * b[..., 1, 1] - b[..., 0, 1] * b[..., 1, 0]


def _ip_update(w: np.ndarray, v: np.ndarray, m: int):
    """``wm = (W V)^-1 e_m = adj(V) adj(W) e_m / (det W det V)`` per bin,
    with ``det(W V)`` and the quadratic form ``wm^H V wm``.

    ``det V`` is taken in real arithmetic, so a singular ``W`` or a rank-1
    ``V`` gives a determinant of exactly zero.
    """
    adj_w, det_w = _adjugate(w)
    adj_v, _ = _adjugate(v)
    v01 = v[:, 0, 1]
    det = det_w * (v[:, 0, 0].real * v[:, 1, 1].real - (v01.real ** 2 + v01.imag ** 2))
    wm = np.sum(adj_v * adj_w[:, None, :, m], axis=2) / det[:, None]
    quad = np.real(np.sum(np.conj(wm)[:, :, None] * v * wm[:, None, :], axis=(1, 2)))
    return wm, det, quad


def _positive(quad: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(quad) & (quad > 0)))


def iva_sweep(spec: np.ndarray, w: np.ndarray, cfg: IvaConfig = IvaConfig(),
              stats: Optional[np.ndarray] = None):
    """One full update sweep over both sources, on the statistics alone.

    Returns ``(w_new, v)`` where ``v[m]`` is the per-bin auxiliary covariance
    actually used for source m's update; after the sweep
    ``w_m^H v[m] w_m = 1`` holds for every bin.

    Both sources' frame envelopes come from one product of ``stats``, the
    output of :func:`covariance_stats`, with the current rows of ``w``, and
    both weighted covariances from one product of the reciprocal envelopes
    with ``stats``.  Frames whose envelope the expanded form would lose to
    cancellation (``r^2 < 1e-4 q``, a strongly suppressed source) are
    demixed from ``spec`` instead; nothing else reads ``spec``.  Each source
    is then updated by the closed-form 2x2 solve ``(W V)^-1 e_m`` through
    the adjugates of ``W`` and ``V``, against the demixing state that
    already holds the other source's update.

    A system with a zero determinant, a non-finite update or a non-positive
    normalization ``w^H v w`` is regularized once with a trace-scaled
    identity; if it still fails a :class:`NumericalError` names the cause
    (singular, diverged or non-positive).  Callers running several sweeps
    build ``stats`` once per utterance; it is built here when omitted, with
    a bit-identical result.
    """
    spec = _check_spec(spec)
    n_frames, n_bins = spec.shape[1], spec.shape[2]
    if n_frames == 0:
        raise DegenerateInputError("no frames to separate")
    w = np.array(_check_w(w, n_bins), dtype=np.complex128, copy=True)
    if stats is None:
        stats = covariance_stats(spec)
    elif stats.shape != (n_frames, 4 * n_bins):
        raise InvalidInputError(
            f"expected stats of shape {(n_frames, 4 * n_bins)}, got {stats.shape}")
    # non-finite states are caught by the checks below, not by numpy warnings
    with np.errstate(all="ignore"):
        v_used = _weighted_covariances(stats, _envelopes(spec, stats, w, cfg.eps))
        for m in range(2):
            v = v_used[m]
            wm, det, quad = _ip_update(w, v, m)
            if not _positive(quad):
                tr = np.real(v[:, 0, 0] + v[:, 1, 1]) / 2.0
                v = v + (cfg.eps * tr + cfg.eps)[:, None, None] * np.eye(2)
                wm, det, quad = _ip_update(w, v, m)
                if np.any(det == 0):
                    raise NumericalError("singular demixing update")
                if not np.all(np.isfinite(wm)):
                    raise NumericalError("demixing update diverged")
                if not _positive(quad):
                    raise NumericalError("non-positive normalization in demixing update")
                v_used[m] = v
            w[:, m, :] = np.conj(wm / np.sqrt(quad)[:, None])
    return w, v_used


def auxiva_separate(spec, cfg: IvaConfig = IvaConfig()):
    """Run ``cfg.iterations`` sweeps and return ``(sources, w)``.

    ``sources`` is ``[2, frames, bins]`` after projection back onto
    ``IvaConfig.ref_channel`` (microphone 0), ordered so the channel with the
    spikier frame envelope (higher excess kurtosis, speech-like) comes first;
    ``w`` is the final demixing tensor ``[bins, 2, 2]`` under the same
    ordering.  Fewer than 2 frames or an all-zero ``spec`` raise
    :class:`DegenerateInputError`, on which ``enhance`` bypasses IVA; a part
    beyond the float32 range, or NaN, raises :class:`InvalidInputError`.

    The rank-1 covariance terms are built once per utterance
    (:func:`covariance_stats`) and shared by every sweep; the result is
    bit-identical to calling ``iva_sweep(spec, w, cfg)`` ``cfg.iterations``
    times and then projecting back and ordering.  The statistics are freed
    before the sources are demixed, and the projection back and the ordering
    then run in place on the demixed array.
    """
    spec = _check_spec(spec)
    if spec.shape[1] < 2:
        raise DegenerateInputError("need at least 2 frames")
    if not np.any(spec):
        raise DegenerateInputError("all-zero input; nothing to separate")
    check_float32_range(spec.real, spec.imag)
    n_bins = spec.shape[2]

    w = np.tile(np.eye(2, dtype=np.complex128), (n_bins, 1, 1))
    stats = covariance_stats(spec)
    for _ in range(cfg.iterations):
        w, _ = iva_sweep(spec, w, cfg, stats)
    del stats

    sources = demix(spec, w)
    _project_back(sources, w, cfg.ref_channel, out=sources)
    order = order_sources(sources)
    if order[0] == 1:                   # swap the planes through one plane of scratch
        speech = sources[1].copy()
        sources[1] = sources[0]
        sources[0] = speech
    return sources, w[:, order, :]


def projection_back(y_sep: np.ndarray, w: np.ndarray, ref_channel: int = 0) -> np.ndarray:
    """Rescale demixed sources to their images at the reference microphone.

    With the mixing matrix ``A = W^-1`` per bin, source m is scaled by
    ``A[ref_channel, m]``; the rescaled sources then sum exactly to the
    reference-channel spectrogram, so the scale ambiguity is resolved with
    minimal distortion.
    """
    y_sep = _check_spec(y_sep)
    w = _check_w(w, y_sep.shape[2])
    if not 0 <= ref_channel < 2:
        raise InvalidInputError(f"ref_channel {ref_channel} out of range")
    return _project_back(y_sep, w, ref_channel)


def _project_back(y_sep: np.ndarray, w: np.ndarray, ref_channel: int,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`projection_back` on checked arguments, written into ``out``
    (``y_sep`` itself is allowed) or a new array."""
    with np.errstate(all="ignore"):
        adj, det = _adjugate(w)
        a = adj / det[:, None, None]
    bad = np.nonzero(~np.all(np.isfinite(a), axis=(1, 2)))[0]
    if bad.size:
        raise NumericalError(f"demixing matrix not invertible at bin {bad[0]}")
    scale = a[:, ref_channel, :].T  # [source, bin]
    return np.multiply(y_sep, scale[:, None, :], out=out)


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
    kurtosis is undefined, ranks as -3, and so does a source whose envelope
    power is at most ``IvaConfig.eps`` times the strongest source's: what
    IVA leaves of a rank-1 mixture, rounding level or, in loud input, its
    envelope floor.
    """
    env = np.sqrt(np.sum(np.abs(y_sep) ** 2, axis=2))  # [source, frame]
    if env.shape[1] >= 3:
        env = env[:, :-1]
    power = np.sum(env ** 2, axis=1)
    faint = power <= IvaConfig.eps * np.max(power)
    k = _excess_kurtosis(env)
    k = np.where(np.isfinite(k) & ~faint, k, -3.0)
    return np.argsort(-k, kind="stable")


def iva_macs_per_second(cfg: IvaConfig) -> float:
    """Real multiply-accumulates per second of audio for ``cfg.iterations``
    sweeps of :func:`iva_sweep`: per frame, two products for each of the
    two sources over the ``4 * bins`` columns of :func:`covariance_stats`,
    the envelope product in ``_envelopes`` and the weighted-covariance
    ``einsum``.  The per-bin 2x2 solves, the one statistics build per
    utterance and the frames recomputed after cancellation (as many as the
    data call for) are left out, so the count is exactly linear in the
    iteration count.
    """
    return float(cfg.iterations * 2 * 2 * 4 * StftConfig.n_bins
                 * StftConfig.frames_per_second)

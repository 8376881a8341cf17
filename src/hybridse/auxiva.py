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
recomputed from the spectrogram (see ``_CANCELLATION_RATIO``), one pass
block at a time.

What the sweeps leave is a :class:`Demixer`: per bin, the demixing rows in
speech-first order and the scale that projects each source back onto the
reference microphone.  It is a per-bin map of the spectrogram, so it
applies to any run of frames, and :func:`auxiva_demixer` builds no
whole-file sources: the ordering reads frame envelopes gathered
:data:`~hybridse.dsp.PASS_FRAMES` frames at a time, the pass block that
also builds the statistics.
"""

from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .dsp import PASS_FRAMES, StftConfig, check_float32_range
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


def _demix(spec: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``out[m] = _demix_row(spec, rows[:, m, :])`` for each of the
    ``rows.shape[1]`` sources, through one plane of scratch."""
    out = np.empty((rows.shape[1],) + spec.shape[1:], dtype=np.result_type(spec, rows))
    term = np.empty_like(out[0])
    for m in range(rows.shape[1]):
        _demix_row(spec, rows[:, m, :], out[m], term)
    return out


def demix(spec: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Apply per-bin demixing rows: out[m, l, k] = sum_c w[k, m, c] spec[c, l, k]."""
    spec = _check_spec(spec)
    return _demix(spec, _check_w(w, spec.shape[2]))


@dataclass(frozen=True, eq=False)
class Demixer:
    """Aux-IVA's result as a per-bin map of the two-channel spectrogram.

    ``w`` [bins, 2, 2] holds the demixing rows, speech first, and ``scale``
    [2, bins] each source's projection back onto the reference microphone,
    in the same order.  Calling it on frames ``spec[:, a:b]`` of the
    spectrogram that :func:`auxiva_demixer` separated gives frames ``a:b``
    of the sources, byte for byte, whatever the run of frames.
    """
    w: np.ndarray
    scale: np.ndarray

    def __call__(self, spec: np.ndarray, sources: int = 2) -> np.ndarray:
        """The first ``sources`` projected sources of ``spec``, [sources,
        frames, bins]: each demixed by its row, then scaled per bin."""
        spec = _check_spec(spec)
        out = _demix(spec, _check_w(self.w, spec.shape[2])[:, :sources])
        return np.multiply(out, self.scale[:sources, None, :], out=out)

    def blocks(self, spec: np.ndarray):
        """Both sources of ``spec``, yielded :data:`~hybridse.dsp.PASS_FRAMES`
        frames at a time in frame order, so no whole-file source array is
        built."""
        for start in range(0, np.shape(spec)[1], PASS_FRAMES):
            yield self(spec[:, start:start + PASS_FRAMES])


def covariance_stats(spec: np.ndarray) -> np.ndarray:
    """Per-utterance rank-1 covariance terms, ``[frames, 4 * bins]`` real.

    Row l holds ``|y0|^2``, ``|y1|^2``, ``Re(y0 y1*)`` and ``Im(y0 y1*)`` of
    frame l, each a block of ``bins`` values, divided by the frame count; the
    weighted covariance for frame weights ``1 / r`` is then
    ``(1 / r) @ stats`` reshaped to ``[4, bins]``.

    The rows are filled :data:`~hybridse.dsp.PASS_FRAMES` frames at a time,
    so the only whole-file array is the output.  Every entry is a function
    of its own frame and bin, so the bytes do not depend on the block.  The
    cross term is ``conj(y1) * y0``, conjugate first, at every length: the
    operand order numpy's temporary elision gives a whole-file ``y0 *
    np.conj(y1)`` from 64 frames up, whose complex product rounds its
    imaginary part otherwise than ``y0 * conj(y1)``.
    """
    spec = _check_spec(spec)
    n_frames, n_bins = spec.shape[1], spec.shape[2]
    stats = np.empty((n_frames, 4, n_bins))
    for start in range(0, n_frames, PASS_FRAMES):
        frames = slice(start, start + PASS_FRAMES)
        y0, y1, rows = spec[0, frames], spec[1, frames], stats[frames]
        np.add(y0.real ** 2, y0.imag ** 2, out=rows[:, 0])
        np.add(y1.real ** 2, y1.imag ** 2, out=rows[:, 1])
        cross = np.conj(y1)
        np.multiply(cross, y0, out=cross)
        rows[:, 2] = cross.real
        rows[:, 3] = cross.imag
        rows /= n_frames
    return stats.reshape(n_frames, 4 * n_bins)


def _envelopes(spec: np.ndarray, stats: np.ndarray, w: np.ndarray,
               eps: float) -> np.ndarray:
    """Frame envelopes ``r[l, m] = max(eps, ||x_m[l, :]||)``, ``[frames, 2]``.

    ``r^2 = L * stats @ [|a|^2, |b|^2, 2 Re(a b*), -2 Im(a b*)]`` for row
    ``(a, b)`` of each source, evaluated as the direct part ``q`` plus the
    cross part; frames that lost digits to cancellation are demixed directly,
    :data:`~hybridse.dsp.PASS_FRAMES` of them at a time, since in a source
    IVA suppresses they can be most of the file.
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
        for start in range(0, lost.size, PASS_FRAMES):
            frames = lost[start:start + PASS_FRAMES]
            r2[frames, m] = _frame_powers(spec, frames, w[:, m, :])
    r = np.sqrt(np.maximum(r2, 0.0, out=r2), out=r2)
    return np.maximum(r, eps, out=r)


def _frame_powers(spec: np.ndarray, frames: np.ndarray, row: np.ndarray) -> np.ndarray:
    """Each frame's power summed over bins, ``[frames]``, of the source that
    ``row`` demixes from the listed ``frames`` of ``spec``.  Each channel's
    frames are gathered straight into the plane :func:`_demix_row` then
    multiplies in place, so no gathered copy of both channels is built.
    The gather's ``mode="clip"`` changes no index, since ``frames`` are in
    range; numpy's default mode gathers through a temporary instead."""
    planes = [np.take(channel, frames, axis=0, mode="clip",
                      out=np.empty((frames.size, spec.shape[2]), dtype=spec.dtype))
              for channel in spec]
    power = _demix_row(planes, row, *planes).view(np.float64)
    return np.sum(np.square(power, out=power), axis=1)


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


def auxiva_demixer(spec, cfg: IvaConfig = IvaConfig()) -> Demixer:
    """Run ``cfg.iterations`` sweeps and return the :class:`Demixer` that
    projects back onto ``IvaConfig.ref_channel`` (microphone 0), its sources
    ordered so the one with the spikier frame envelope (higher excess
    kurtosis, speech-like) comes first.  Fewer than 2 frames or an all-zero
    ``spec`` raise :class:`DegenerateInputError`, on which ``enhance``
    bypasses IVA; a part beyond the float32 range, or NaN, raises
    :class:`InvalidInputError`; a demixing matrix with no inverse raises
    :class:`NumericalError`.

    The rank-1 covariance terms are built once per utterance
    (:func:`covariance_stats`), shared by every sweep and freed after the
    last.  The ordering's frame envelopes are then gathered from the
    unordered sources :data:`~hybridse.dsp.PASS_FRAMES` frames at a time
    (:meth:`Demixer.blocks`), so no whole-file source array is built here.
    """
    spec = _check_spec(spec)
    if spec.shape[1] < 2:
        raise DegenerateInputError("need at least 2 frames")
    if not np.any(spec):
        raise DegenerateInputError("all-zero input; nothing to separate")
    check_float32_range(spec.real, spec.imag)
    w = np.tile(np.eye(2, dtype=np.complex128), (spec.shape[2], 1, 1))
    stats = covariance_stats(spec)
    for _ in range(cfg.iterations):
        w, _ = iva_sweep(spec, w, cfg, stats)
    del stats

    ref_row = _reference_row(w, cfg.ref_channel)
    order = _rank(np.concatenate([_frame_envelopes(sources) for sources
                                  in Demixer(w, ref_row.T).blocks(spec)], axis=1))
    return Demixer(w[:, order, :], ref_row[:, order].T)


def auxiva_separate(spec, cfg: IvaConfig = IvaConfig()):
    """Run ``cfg.iterations`` sweeps and return ``(sources, w)``: the
    :class:`Demixer` of :func:`auxiva_demixer` applied to the whole ``spec``,
    and its demixing rows.

    ``sources`` is ``[2, frames, bins]`` after projection back onto
    ``IvaConfig.ref_channel``, speech-like source first; ``w`` is the final
    demixing tensor ``[bins, 2, 2]`` under the same ordering.  The result is
    bit-identical to calling ``iva_sweep(spec, w, cfg)`` ``cfg.iterations``
    times, then :func:`projection_back` of :func:`demix`'s output and
    reordering by :func:`order_sources`.  Errors are those of
    :func:`auxiva_demixer`.
    """
    demixer = auxiva_demixer(spec, cfg)
    return demixer(spec), demixer.w


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
    return np.multiply(y_sep, _reference_row(w, ref_channel).T[:, None, :])


def _reference_row(w: np.ndarray, ref_channel: int) -> np.ndarray:
    """Row ``ref_channel`` of each bin's mixing matrix ``A = W^-1``, [bins,
    2]: the projection-back scale of each source.  Raises
    :class:`NumericalError` naming the first bin whose ``W`` has no finite
    inverse."""
    with np.errstate(all="ignore"):
        adj, det = _adjugate(w)
        a = adj / det[:, None, None]
    bad = np.nonzero(~np.all(np.isfinite(a), axis=(1, 2)))[0]
    if bad.size:
        raise NumericalError(f"demixing matrix not invertible at bin {bad[0]}")
    return a[:, ref_channel, :]


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
    kurtosis is undefined, ranks as -3, below any defined excess kurtosis
    (at least -2).  A source whose envelope power is at most
    ``IvaConfig.eps`` times the strongest source's ranks as -4, below a flat
    one: what IVA leaves of a rank-1 mixture, rounding level or, in loud
    input, its envelope floor.
    """
    return _rank(_frame_envelopes(y_sep))


def _frame_envelopes(y_sep) -> np.ndarray:
    """Each source's frame magnitude envelope, [source, frame]."""
    return np.sqrt(np.sum(np.abs(y_sep) ** 2, axis=2))


def _rank(env: np.ndarray) -> np.ndarray:
    """:func:`order_sources` on the sources' frame envelopes."""
    if env.shape[1] >= 3:
        env = env[:, :-1]
    power = np.sum(env ** 2, axis=1)
    faint = power <= IvaConfig.eps * np.max(power)
    k = _excess_kurtosis(env)
    k = np.where(faint, -4.0, np.where(np.isfinite(k), k, -3.0))
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

"""Inference-only neural network primitives on plain numpy arrays.

All image-like tensors are indexed ``[batch, channel, time, freq]``.
Convolutions use cross-correlation semantics (no kernel flip) so weights
exported from the usual deep-learning frameworks drop in unchanged.  Time
padding is always causal (left only, ``(kt - 1) * dilation`` frames);
frequency padding is symmetric "same"-style, total ``(kf - 1) * dilation``.
Functions preserve the dtype of their inputs and keep no hidden state.
Layer tensors are passed as plain arrays: a conv kernel is
[out, in/groups, kt, kf], a transposed-conv kernel [in, out/groups, kt, kf],
and batch norm takes its affine pair and running statistics one per channel.

:func:`conv2d` is the one convolution kernel.  It pads its input once into
flattened polyphase planes, one per stride phase, so every tap reads one
contiguous window of one plane at a fixed offset, and takes one batched
product per tap over all groups, a broadcast product when each group has a
single input channel (depthwise), the first tap's written straight into the
accumulator, so no pass zero-fills it.  :func:`conv_transpose2d` is one
conv2d per output stride phase over the reversed input, with the same bits
as a scatter-add of each tap's ``kernel^T @ x``.

Recurrences run through one kernel, :func:`gru_scan`, which advances ``S``
independent forward GRUs in lockstep.  Its inputs are stacked on a leading
axis, ``x`` [S, time, batch, input], with weights ``w_x`` [S, input, 3H],
``w_h`` [S, H, 3H] and ``bias`` [S, 3H] (gate columns: update, reset,
candidate), so a caller folds groups and directions into ``S``; a backward
GRU is a forward one over the time-reversed input.  It starts from zeros,
or from ``h0`` [S, batch, H]: passing a scan's last step as the next
scan's ``h0`` continues it bit for bit, which is how a caller runs a
sequence in blocks.  :func:`gru_gate_major` lays the weights out the way
the steps read them: each gate's bias as one more input row of ``w_x``,
and the update and reset planes halved so that each step's logistic is
one ``tanh`` and two in-place passes.  A caller that scans with one weight
set many times lays them out once and calls :func:`gru_scan_gate_major`
on an input with a constant-1 last column, so each step's input product
adds the bias as it goes.  With a BLAS gemm that sums a dot product in K
order, as OpenBLAS's does, that gives the bits of a separate bias add.
:func:`gru_sequence` is the single-GRU [time, batch, input] view of the
same kernel.
"""

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .errors import InvalidInputError


@dataclass
class GruParams:
    """One GRU direction; gate columns ordered (update, reset, candidate)."""
    w_x: np.ndarray               # [input, 3*hidden]
    w_h: np.ndarray               # [hidden, 3*hidden]
    bias: np.ndarray              # [3*hidden]


def _pads(kt, kf, dt, df):
    total_f = (kf - 1) * df
    return (kt - 1) * dt, total_f // 2, total_f - total_f // 2


def _check_geometry(x: np.ndarray, kernel: np.ndarray, stride, dilation, groups: int) -> None:
    if x.ndim != 4:
        raise InvalidInputError(f"expected [batch, channel, time, freq], got shape {x.shape}")
    if kernel.ndim != 4:
        raise InvalidInputError(f"expected a 4-D kernel, got shape {kernel.shape}")
    if 0 in x.shape or 0 in kernel.shape:
        raise InvalidInputError(f"empty axis in input shape {x.shape} or kernel shape "
                                f"{kernel.shape}")
    if min(*stride, *dilation, groups) < 1:
        raise InvalidInputError(f"stride {tuple(stride)}, dilation {tuple(dilation)} and "
                                f"groups {groups} must all be at least 1")


def _phase_start(phase: int, pad: int, step: int) -> Tuple[int, int]:
    """First plane index of a stride phase of conv2d's padded input that lies
    inside the unpadded axis, and the unpadded index it holds: padded index
    ``phase + k * step`` is unpadded ``phase + k * step - pad``."""
    k = -((phase - pad) // step)
    return k, phase + k * step - pad


def conv2d(x: np.ndarray, kernel: np.ndarray, bias: Optional[np.ndarray] = None,
           stride: Tuple[int, int] = (1, 1),
           dilation: Tuple[int, int] = (1, 1),
           groups: int = 1) -> np.ndarray:
    """Grouped dilated 2-D convolution (cross-correlation).

    ``kernel`` is [out, in / groups, kt, kf]; ``bias``, if given, is [out].

    The input is written once, with its zero padding, into polyphase planes:
    one per stride phase that some tap reads, each flattened to
    ``[.., tq * fq]`` with a spare row.  Tap ``(i, j)`` then reads one
    contiguous window of one plane at a fixed offset; each output row
    carries ``fq - f_out`` spare columns, dropped at the end.  A 1x1
    unstrided conv reads ``x`` itself.  Each tap is one product over all
    groups into a buffer of the accumulator's shape: a batched
    ``np.matmul``, or a broadcast ``np.multiply`` when each group has one
    input channel (depthwise).  The first tap's product is written straight
    into the accumulator, so a single tap needs no product buffer, and the
    other taps are added to it in ``(i, j)`` order.  Adding ``+0.0`` with the
    bias then gives every output the bits a sum into a zeroed accumulator
    gives, the sign of a zero included.
    """
    _check_geometry(x, kernel, stride, dilation, groups)
    out_ch, in_per_g, kt, kf = kernel.shape
    st, sf = stride
    dt, df = dilation
    if x.shape[1] != in_per_g * groups:
        raise InvalidInputError(
            f"{x.shape[1]} input channels incompatible with kernel {kernel.shape} and groups={groups}")
    if out_ch % groups != 0:
        raise InvalidInputError("output channels must be divisible by groups")

    b, c_in, t_in, f_in = x.shape
    pt, pf_l, pf_r = _pads(kt, kf, dt, df)
    t_out = (t_in - 1) // st + 1
    f_out = (f_in - 1) // sf + 1

    # tap (i, j) reads padded cell (i * dt + r * st, j * df + c * sf) for
    # output (r, c): plane row qi + r, column qj + c of phase (a, e)
    shifts = [(i, j, *divmod(i * dt, st), *divmod(j * df, sf))
              for i in range(kt) for j in range(kf)]
    if pt or pf_l or pf_r or st > 1 or sf > 1:
        tq, fq = -(-(t_in + pt) // st), -(-(f_in + pf_l + pf_r) // sf)
        phases = sorted({(a, e) for _, _, _, a, _, e in shifts})
        planes = np.zeros((len(phases), b, c_in, tq + 1, fq), dtype=x.dtype)
        for plane, (a, e) in zip(planes, phases):
            u, r = _phase_start(a, pt, st)
            v, c = _phase_start(e, pf_l, sf)
            src = x[:, :, r::st, c::sf]
            plane[:, :, u:u + src.shape[2], v:v + src.shape[3]] = src
    else:                                  # a 1x1 conv reads x in place
        fq, phases, planes = f_in, [(0, 0)], x[None]
    flat = planes.reshape(len(phases), b, groups, in_per_g, -1)
    which = {ph: p for p, ph in enumerate(phases)}
    taps = [(i, j, which[a, e], qi * fq + qj) for i, j, qi, a, qj, e in shifts]

    n = t_out * fq
    o_per_g = out_ch // groups
    kg = kernel.reshape(groups, o_per_g, in_per_g, kt, kf)
    acc = np.empty((b, groups, o_per_g, n), dtype=x.dtype)
    # depthwise: [groups, out/g, 1] * [b, groups, 1, n]
    tap_product = np.multiply if in_per_g == 1 else np.matmul
    (i, j, p, off), *rest = taps
    tap_product(kg[:, :, :, i, j], flat[p, ..., off:off + n], out=acc)
    prod = np.empty(acc.shape, dtype=np.result_type(x, kernel)) if rest else None
    for i, j, p, off in rest:
        tap_product(kg[:, :, :, i, j], flat[p, ..., off:off + n], out=prod)
        acc += prod
    del planes, flat, prod              # freed before the output is allocated
    rows = acc.reshape(b, out_ch, t_out, fq)[..., :f_out]
    out = rows if fq == f_out else np.empty(rows.shape, dtype=x.dtype)
    # + 0.0 turns a -0.0 sum into the +0.0 a zeroed accumulator would give,
    # and turns a -0.0 bias into +0.0, which changes no other sum
    shift = 0.0 if bias is None else bias[None, :, None, None] + 0.0
    return np.add(rows, shift, out=out)


def conv_transpose2d(x: np.ndarray, kernel: np.ndarray,
                     bias: Optional[np.ndarray] = None,
                     stride: Tuple[int, int] = (1, 1),
                     groups: int = 1) -> np.ndarray:
    """Transposed convolution: the adjoint of an undilated :func:`conv2d`
    with the same stride and groups arguments.

    ``kernel`` is [in, out / groups, kt, kf], the layout of the matching
    conv2d's kernel; ``bias``, if given, is [out].  The result has ``x``'s
    dtype, as :func:`conv2d`'s does.

    Output extents are ``(n - 1) * stride + 1`` per axis (scatter-add of the
    kernel, then the conv2d padding margins are trimmed), which restores the
    input extent of a matching conv2d whenever ``(extent - 1) % stride == 0``.

    Output phase ``out[..., a::st, e::sf]`` is one conv2d, with the taps
    that reach it (``i = (a + pt) mod st`` and ``j = (e + pf_l) mod sf``
    onwards, a stride apart) in conv2d's layout, over ``x`` reversed on both
    axes and read back reversed; a phase no tap reaches holds the bias.
    Each output then sums its taps in ``(i, j)`` order over descending input
    positions, as a scatter-add does, and gets its bits, except where numpy
    hands a 1x1 input with several input channels per group to BLAS gemv,
    whose rounding depends on where the data sit.  Every window lies inside
    conv2d's own padding, so ``x`` is not copied here.
    """
    _check_geometry(x, kernel, stride, (1, 1), groups)
    in_ch, o_per_g, kt, kf = kernel.shape
    st, sf = stride
    if x.shape[1] != in_ch:
        raise InvalidInputError(
            f"{x.shape[1]} input channels incompatible with kernel {kernel.shape}")
    if in_ch % groups != 0:
        raise InvalidInputError("input channels must be divisible by groups")

    b, _, t_in, f_in = x.shape
    pt, pf_l, _ = _pads(kt, kf, 1, 1)
    i_per_g = in_ch // groups
    out_ch = o_per_g * groups
    swapped = kernel.reshape(groups, i_per_g, o_per_g, kt, kf).swapaxes(1, 2)
    taps = swapped.reshape(out_ch, i_per_g, kt, kf)
    x_rev = x[:, :, ::-1, ::-1]
    out = np.empty((b, out_ch, (t_in - 1) * st + 1, (f_in - 1) * sf + 1), dtype=x.dtype)
    for a in range(st):
        da, i = divmod(a + pt, st)
        for e in range(sf):
            de, j = divmod(e + pf_l, sf)
            dst = out[:, :, a::st, e::sf]
            if i >= kt or j >= kf:
                dst[...] = 0.0 if bias is None else bias[None, :, None, None] + 0.0
                continue
            phase = taps[:, :, i::st, j::sf]
            # phase row r reads x[r + da - k] at time tap k, conv2d(x_rev)'s row
            # q reads x[t_in - 1 + lt - q - k]: r is row t_in - 1 + lt - da - r
            lt, lf, _ = _pads(*phase.shape[2:], 1, 1)
            u, v = t_in + lt - da - dst.shape[2], f_in + lf - de - dst.shape[3]
            y = conv2d(x_rev, phase, bias, groups=groups)
            dst[...] = y[:, :, u:u + dst.shape[2], v:v + dst.shape[3]][:, :, ::-1, ::-1]
    return out


def batch_norm_affine(gamma: np.ndarray, beta: np.ndarray, mean: np.ndarray,
                      var: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Inference batch norm as the per-channel affine map it is,
    ``(scale, shift)`` with ``x * scale + shift``: ``scale = gamma /
    sqrt(var + eps)`` and ``shift = beta - mean * scale``, in the dtype of
    the statistics.  The variance floor ``eps`` is fixed at 1e-5, PyTorch's
    default."""
    scale = gamma / np.sqrt(var + 1e-5)
    return scale, beta - mean * scale


def batch_norm_infer(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                     mean: np.ndarray, var: np.ndarray) -> np.ndarray:
    """Inference batch norm over the channel axis with running ``mean`` and
    ``var``, through :func:`batch_norm_affine`."""
    scale, shift = batch_norm_affine(gamma, beta, mean, var)
    return x * scale[None, :, None, None] + shift[None, :, None, None]


def prelu(x: np.ndarray, alpha: np.ndarray,
          out: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-channel parametric ReLU over [batch, channel, time, freq]:
    ``x if x >= 0 else alpha * x``, into ``out``, which may be ``x`` itself.

    Exact for every input, NaN and +-inf included, bit for bit except the
    sign of a zero result, which can be +0.0 where that expression gives
    -0.0.  The form is picked from ``alpha`` on each call: when every slope
    is in (0, 1] it is one product and one ``maximum``, ``max(x, alpha *
    x)``; any other slopes, 0 among them (``0 * inf`` is NaN), take
    ``max(x, 0) + alpha * min(x, 0)``.
    """
    alpha = np.asarray(alpha)
    a = alpha[None, :, None, None]
    if alpha.min(initial=1.0) > 0 and alpha.max(initial=1.0) <= 1:
        scaled = np.multiply(x, a, out=np.empty_like(x) if out is None or out is x else out)
        return np.maximum(x, scaled, out=scaled if out is None else out)
    neg = np.minimum(x, 0)
    neg *= a
    out = np.maximum(x, 0, out=out)
    out += neg
    return out


def gru_gate_major(w_x: np.ndarray, w_h: np.ndarray,
                   bias: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`gru_scan`'s stacked weights in the layout its steps read, as
    contiguous copies so that every gate plane is one block: ``w_x`` as
    [S, 3, input + 1, H], its last input row gate ``g``'s bias, and ``w_h``
    as [S, 3, H, H].  The bias row takes ``w_x``'s dtype; every caller
    passes one dtype for all three.  The update and reset planes, bias
    row included, are stored times 0.5, which is exact away from the
    subnormal range, so a step's logistic ``0.5 * tanh(0.5 * a) + 0.5``
    reads its halved argument ready-made.  A caller that scans with the
    same weights many times builds them once and runs
    :func:`gru_scan_gate_major`."""
    s, d_in, h3 = w_x.shape
    h_dim = h3 // 3
    wx = np.empty((s, 3, d_in + 1, h_dim), dtype=w_x.dtype)
    wx[:, :, :d_in] = w_x.reshape(s, d_in, 3, h_dim).transpose(0, 2, 1, 3)
    wx[:, :, d_in] = bias.reshape(s, 3, h_dim)
    wh = w_h.reshape(s, h_dim, 3, h_dim).transpose(0, 2, 1, 3).copy()
    for a in (wx, wh):
        a[:, :2] *= 0.5
    return wx, wh


def gru_scan(x: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
             bias: np.ndarray, h0: Optional[np.ndarray] = None) -> np.ndarray:
    """Run ``S`` independent forward GRUs in lockstep from the state ``h0``
    [S, batch, H], or from zeros when it is ``None``.

    ``x`` is [S, time, batch, input]; the weights are stacked per GRU,
    ``w_x`` [S, input, 3H], ``w_h`` [S, H, 3H], ``bias`` [S, 3H], gate
    columns ordered (update, reset, candidate), all of ``x``'s dtype.
    Returns the hidden states [S, time, batch, H].  Each step projects only
    that step's input, its bias with it, and advances every gate of every
    GRU with one batched ``h @ w_h``.  Passing the last returned step as
    the next call's ``h0`` continues the scan exactly where it stopped.
    """
    s, t_len, batch, d_in = x.shape
    xa = np.empty((s, t_len, batch, d_in + 1), dtype=x.dtype)
    xa[..., :d_in] = x
    xa[..., d_in] = 1
    return gru_scan_gate_major(xa, *gru_gate_major(w_x, w_h, bias), h0)


def gru_scan_gate_major(xa: np.ndarray, w_x: np.ndarray, w_h: np.ndarray,
                        h0: Optional[np.ndarray] = None) -> np.ndarray:
    """:func:`gru_scan` on weights already in :func:`gru_gate_major`'s
    layout, over an input [S, time, batch, input + 1] whose last input is
    1, so that each step's ``xa_t @ w_x`` is ``x_t W + b`` in one product.
    A BLAS gemm that sums each dot product in K order, one fused
    multiply-add per term, as OpenBLAS's does, rounds that last ``1 * b``
    term as one ``+ b``: these are the bits of a product followed by a
    separate bias add.  numpy runs a one-row product (a batch of 1)
    through gemv instead, whose kernels may split the sum, so there the
    last bits can move; at the network's widths they do not."""
    s, t_len, batch, _ = xa.shape
    h_dim = w_h.shape[-1]
    if h0 is None:
        h = np.zeros((s, batch, h_dim), dtype=xa.dtype)
    elif np.shape(h0) != (s, batch, h_dim):
        raise InvalidInputError(f"h0 has shape {np.shape(h0)}, expected {(s, batch, h_dim)}")
    else:
        h = np.asarray(h0, dtype=xa.dtype)
    out = np.empty((s, t_len, batch, h_dim), dtype=xa.dtype)
    for t in range(t_len):
        pre = np.matmul(xa[:, t, None], w_x)
        rec = np.matmul(h[:, None], w_h)
        zr = pre[:, :2] + rec[:, :2]             # halved: logistic in three passes
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        c = np.tanh(pre[:, 2] + zr[:, 1] * rec[:, 2])
        z = zr[:, 0]
        h = np.add((1.0 - z) * c, z * h, out=out[:, t])
    return out


def gru_sequence(x: np.ndarray,
                 p: Union[GruParams, Tuple[GruParams, GruParams]],
                 direction: str = "forward") -> np.ndarray:
    """Run a GRU over ``x`` of shape [time, batch, input] from a zero state.

    ``direction`` is "forward" or "bidirectional"; the latter takes
    ``p = (forward_params, backward_params)``, runs the backward GRU over the
    time-reversed input, and concatenates both hidden sequences on the
    feature axis.  A shape adapter over :func:`gru_scan` (``S = 1``, one scan
    per direction).
    """
    if direction == "bidirectional":
        pf, pb = p
        return np.concatenate([gru_sequence(x, pf), gru_sequence(x[::-1], pb)[::-1]], axis=-1)
    if direction != "forward":
        raise InvalidInputError(f"unknown direction {direction!r}")
    return gru_scan(x[None], p.w_x[None], p.w_h[None], p.bias[None])[0]


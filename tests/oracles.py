"""Slow, obviously-correct reference implementations used by the tests.

Everything here is written with explicit python loops and scalar math so a
disagreement with the package points at the fast path, not at the oracle.
Shapes and padding conventions mirror the documented contracts only; none
of the vectorized package code is reused.
"""

import math

import numpy as np

from hybridse.bands import N_BANDS, N_BINS, N_LOW


# ---------------------------------------------------------------------------
# Fourier analysis
# ---------------------------------------------------------------------------


def dft_naive(x):
    """O(N^2) discrete Fourier transform, non-negative half spectrum."""
    n = len(x)
    n_bins = n // 2 + 1
    out = np.zeros(n_bins, dtype=complex)
    for k in range(n_bins):
        acc = 0.0 + 0.0j
        for t in range(n):
            acc += x[t] * np.exp(-2j * np.pi * k * t / n)
        out[k] = acc
    return out


def stft_naive(wave, fft_size, hop, window):
    """Frame-by-frame windowed DFT with zero padding past the signal end."""
    wave = np.asarray(wave, dtype=np.float64)
    n = len(wave)
    n_frames = math.ceil(n / hop)
    spec = np.zeros((n_frames, fft_size // 2 + 1), dtype=complex)
    for l in range(n_frames):
        frame = np.zeros(fft_size)
        for t in range(fft_size):
            src = l * hop + t
            if src < n:
                frame[t] = wave[src]
        spec[l] = dft_naive(frame * window)
    return spec


def stft_whole(wave, fft_size, hop, window):
    """Window every frame of the zero-padded ``[..., n]`` waveform at once,
    then one ``np.fft.rfft`` over all of them: the whole-file transform
    that the package's block loop replaced, exact against it."""
    wave = np.asarray(wave)
    n = wave.shape[-1]
    n_frames = -(-n // hop)
    padded = np.zeros(wave.shape[:-1] + ((n_frames - 1) * hop + fft_size,))
    padded[..., :n] = wave
    starts = np.arange(n_frames) * hop
    frames = padded[..., starts[:, None] + np.arange(fft_size)] * window
    return np.fft.rfft(frames, n=fft_size, axis=-1)


def istft_naive(spec, fft_size, hop, window, length):
    """Overlap-add synthesis with per-sample loops and COLA normalization."""
    n_frames, n_bins = spec.shape
    total = (n_frames - 1) * hop + fft_size
    acc = np.zeros(total)
    env = np.zeros(total)
    for l in range(n_frames):
        full = np.zeros(fft_size, dtype=complex)
        full[:n_bins] = spec[l]
        for k in range(1, n_bins - 1):
            full[fft_size - k] = np.conj(spec[l, k])
        frame = np.real(np.fft.ifft(full))
        for t in range(fft_size):
            acc[l * hop + t] += frame[t] * window[t]
            env[l * hop + t] += window[t] ** 2
    out = acc / np.maximum(env, 1e-11)
    if length <= total:
        return out[:length]
    return np.concatenate([out, np.zeros(length - total)])


def istft_frame_loop(spec, fft_size, hop, window, length, floor=1e-11):
    """Overlap-add one frame at a time, in frame order, with the COLA envelope
    built the same way.  The frames come from ``np.fft.irfft``, so only the
    order of the overlap-add sums is under test, and the result is exact."""
    frames = np.fft.irfft(spec, n=fft_size, axis=-1) * window
    n_frames = spec.shape[-2]
    total = (n_frames - 1) * hop + fft_size
    acc = np.zeros(spec.shape[:-2] + (total,))
    env = np.zeros(total)
    for l in range(n_frames):
        acc[..., l * hop:l * hop + fft_size] += frames[..., l, :]
        env[l * hop:l * hop + fft_size] += window ** 2
    nz = env > floor
    acc[..., nz] /= env[nz]
    if length <= total:
        return acc[..., :length]
    return np.concatenate([acc, np.zeros(acc.shape[:-1] + (length - total,))], axis=-1)


def istft_whole_envelope(spec, fft_size, hop, window, length, floor=1e-11):
    """Overlap-add in hop blocks with a whole-file squared-window envelope
    built the same way, then one masked division over the truncated output.
    Takes ``[..., frames, bins]``; exact against the package's per-block
    division."""
    n_frames = spec.shape[-2]
    lead = spec.shape[:-2]
    n_blocks = max(n_frames + 1, -(-length // hop))
    halves = (np.fft.irfft(spec, n=fft_size, axis=-1) * window).reshape(
        lead + (n_frames, 2, hop))
    w2 = (window ** 2).reshape(2, hop)
    out = np.zeros(lead + (n_blocks, hop))
    cola = np.zeros((n_blocks, hop))
    out[..., 1:n_frames + 1, :] += halves[..., 1, :]
    out[..., :n_frames, :] += halves[..., 0, :]
    cola[1:n_frames + 1] += w2[1]
    cola[:n_frames] += w2[0]
    out = out.reshape(lead + (-1,))[..., :length]
    cola = cola.reshape(-1)[:length]
    nz = cola > floor
    out[..., nz] /= cola[nz]
    return out


# ---------------------------------------------------------------------------
# Neural network primitives
# ---------------------------------------------------------------------------


def conv2d_naive(x, kernel, bias=None, stride=(1, 1), dilation=(1, 1),
                 groups=1, causal_pad_time=True):
    """Six nested loops over output cells and kernel taps."""
    b, c_in, t_in, f_in = x.shape
    out_ch, in_per_g, kt, kf = kernel.shape
    st, sf = stride
    dt, df = dilation
    o_per_g = out_ch // groups

    pt = (kt - 1) * dt if causal_pad_time else 0
    total_f = (kf - 1) * df
    pf_l = total_f // 2
    xp = np.zeros((b, c_in, t_in + pt, f_in + total_f), dtype=x.dtype)
    xp[:, :, pt:pt + t_in, pf_l:pf_l + f_in] = x

    t_out = (xp.shape[2] - ((kt - 1) * dt + 1)) // st + 1
    f_out = (xp.shape[3] - ((kf - 1) * df + 1)) // sf + 1
    out = np.zeros((b, out_ch, t_out, f_out), dtype=x.dtype)
    for n in range(b):
        for o in range(out_ch):
            g = o // o_per_g
            for t in range(t_out):
                for f in range(f_out):
                    acc = 0.0
                    for ci in range(in_per_g):
                        for i in range(kt):
                            for j in range(kf):
                                acc += (kernel[o, ci, i, j]
                                        * xp[n, g * in_per_g + ci,
                                             t * st + i * dt,
                                             f * sf + j * df])
                    if bias is not None:
                        acc += bias[o]
                    out[n, o, t, f] = acc
    return out


def conv_transpose2d_naive(x, kernel, bias=None, stride=(1, 1),
                           dilation=(1, 1), groups=1, causal_pad_time=True):
    """Scatter-add of the dilated kernel, then trim the conv2d margins."""
    b, in_ch, t_in, f_in = x.shape
    _, o_per_g, kt, kf = kernel.shape
    st, sf = stride
    dt, df = dilation
    i_per_g = in_ch // groups
    out_ch = o_per_g * groups

    t_full = (t_in - 1) * st + (kt - 1) * dt + 1
    f_full = (f_in - 1) * sf + (kf - 1) * df + 1
    full = np.zeros((b, out_ch, t_full, f_full), dtype=x.dtype)
    for n in range(b):
        for ci in range(in_ch):
            g = ci // i_per_g
            for o in range(o_per_g):
                for t in range(t_in):
                    for f in range(f_in):
                        for i in range(kt):
                            for j in range(kf):
                                full[n, g * o_per_g + o,
                                     t * st + i * dt,
                                     f * sf + j * df] += (
                                    x[n, ci, t, f] * kernel[ci, o, i, j])
    pt = (kt - 1) * dt if causal_pad_time else 0
    total_f = (kf - 1) * df
    pf_l = total_f // 2
    pf_r = total_f - pf_l
    out = full[:, :, pt:, pf_l:f_full - pf_r]
    if bias is not None:
        out = out + bias[None, :, None, None]
    return out


def _conv_pads(kt, kf, dt, df):
    total_f = (kf - 1) * df
    return (kt - 1) * dt, total_f // 2, total_f - total_f // 2


def conv2d_per_tap(x, kernel, bias=None, stride=(1, 1), dilation=(1, 1), groups=1):
    """One batched product per kernel tap over a copied strided patch, summed
    in tap order into a zeroed accumulator.  Every product and every sum is
    the one the package kernel makes, so the result is exact."""
    out_ch, in_per_g, kt, kf = kernel.shape
    st, sf = stride
    dt, df = dilation
    b, c_in, t_in, f_in = x.shape
    pt, pf_l, pf_r = _conv_pads(kt, kf, dt, df)
    if pt or pf_l or pf_r:
        xp = np.zeros((b, c_in, t_in + pt, f_in + pf_l + pf_r), dtype=x.dtype)
        xp[:, :, pt:, pf_l:pf_l + f_in] = x
    else:
        xp = x
    tp, fp = xp.shape[2:]
    t_out = (tp - ((kt - 1) * dt + 1)) // st + 1
    f_out = (fp - ((kf - 1) * df + 1)) // sf + 1
    o_per_g = out_ch // groups
    xg = xp.reshape(b, groups, in_per_g, tp, fp)
    kg = kernel.reshape(groups, o_per_g, in_per_g, kt, kf)
    acc = np.zeros((b, groups, o_per_g, t_out, f_out), dtype=x.dtype)
    for i in range(kt):
        for j in range(kf):
            patch = xg[..., i * dt:i * dt + (t_out - 1) * st + 1:st,
                       j * df:j * df + (f_out - 1) * sf + 1:sf]
            if in_per_g == 1:
                acc += kg[:, :, :, i, j, None] * patch
            else:
                acc += np.matmul(kg[:, :, :, i, j], patch.reshape(b, groups, in_per_g, -1)
                                 ).reshape(acc.shape)
    out = acc.reshape(b, out_ch, t_out, f_out)
    if bias is not None:
        out += bias[None, :, None, None]
    return out


def conv_transpose2d_per_tap(x, kernel, bias=None, stride=(1, 1), groups=1):
    """Scatter-add one batched ``kernel^T @ x`` per tap into strided views of
    a zeroed full-extent buffer, in tap order, then trim the conv2d margins.
    Exact against the package kernel, like :func:`conv2d_per_tap`."""
    in_ch, o_per_g, kt, kf = kernel.shape
    st, sf = stride
    b, _, t_in, f_in = x.shape
    pt, pf_l, pf_r = _conv_pads(kt, kf, 1, 1)
    t_full = (t_in - 1) * st + kt
    f_full = (f_in - 1) * sf + kf
    i_per_g = in_ch // groups
    out_ch = o_per_g * groups
    full = np.zeros((b, groups, o_per_g, t_full, f_full), dtype=x.dtype)
    xg = x.reshape(b, groups, i_per_g, t_in * f_in)
    kg = kernel.reshape(groups, i_per_g, o_per_g, kt, kf)
    for i in range(kt):
        for j in range(kf):
            contrib = np.matmul(kg[:, :, :, i, j].transpose(0, 2, 1), xg)
            full[..., i:i + (t_in - 1) * st + 1:st, j:j + (f_in - 1) * sf + 1:sf] += \
                contrib.reshape(b, groups, o_per_g, t_in, f_in)
    full = full.reshape(b, out_ch, t_full, f_full)
    out = full[:, :, pt:t_full, pf_l:f_full - pf_r]
    if bias is not None:
        out = out + bias[None, :, None, None]
    return out


def batch_norm_naive(x, gamma, beta, mean, var, eps):
    out = np.zeros_like(x)
    for n in range(x.shape[0]):
        for c in range(x.shape[1]):
            for t in range(x.shape[2]):
                for f in range(x.shape[3]):
                    z = (x[n, c, t, f] - mean[c]) / math.sqrt(var[c] + eps)
                    out[n, c, t, f] = z * gamma[c] + beta[c]
    return out


def prelu_naive(x, alpha):
    out = np.zeros_like(x)
    for n in range(x.shape[0]):
        for c in range(x.shape[1]):
            for t in range(x.shape[2]):
                for f in range(x.shape[3]):
                    v = x[n, c, t, f]
                    out[n, c, t, f] = v if v >= 0 else alpha[c] * v
    return out


def _sigmoid_scalar(v):
    if v >= 0:
        return 1.0 / (1.0 + math.exp(-v))
    e = math.exp(v)
    return e / (1.0 + e)


def gru_naive(x, w_x, w_h, bias):
    """Forward GRU with per-element scalar arithmetic, zero initial state.

    Gate columns in the weight matrices are ordered (update, reset,
    candidate), matching the package layout.
    """
    t_len, batch, d_in = x.shape
    hidden = w_h.shape[0]
    h = np.zeros((batch, hidden))
    out = np.zeros((t_len, batch, hidden))
    for t in range(t_len):
        for n in range(batch):
            z = np.zeros(hidden)
            r = np.zeros(hidden)
            c = np.zeros(hidden)
            for j in range(hidden):
                az = bias[j]
                ar = bias[hidden + j]
                for i in range(d_in):
                    az += x[t, n, i] * w_x[i, j]
                    ar += x[t, n, i] * w_x[i, hidden + j]
                for i in range(hidden):
                    az += h[n, i] * w_h[i, j]
                    ar += h[n, i] * w_h[i, hidden + j]
                z[j] = _sigmoid_scalar(az)
                r[j] = _sigmoid_scalar(ar)
            for j in range(hidden):
                ac = bias[2 * hidden + j]
                for i in range(d_in):
                    ac += x[t, n, i] * w_x[i, 2 * hidden + j]
                rec = 0.0
                for i in range(hidden):
                    rec += h[n, i] * w_h[i, 2 * hidden + j]
                c[j] = math.tanh(ac + r[j] * rec)
            for j in range(hidden):
                h[n, j] = (1.0 - z[j]) * c[j] + z[j] * h[n, j]
            out[t, n] = h[n]
    return out


def gru_scan_unhalved(x, w_x, w_h, bias, h0=None):
    """The stacked GRU scan with its gate planes laid out unscaled and each
    step's logistic as ``0.5 * tanh(0.5 * a) + 0.5`` in four in-place passes,
    the bias added to each step's input product in a pass of its own: the
    step the package's pre-halved gate planes and bias row replaced.
    Halving a plane is exact, and a BLAS that sums each dot product in K
    order adds the bias row last, so the two agree bit for bit."""
    s, t_len, batch, _ = x.shape
    d_in, hidden = w_x.shape[1], w_h.shape[1]
    wx = w_x.reshape(s, d_in, 3, hidden).transpose(0, 2, 1, 3).copy()
    wh = w_h.reshape(s, hidden, 3, hidden).transpose(0, 2, 1, 3).copy()
    b = bias.reshape(s, 3, 1, hidden)
    h = np.zeros((s, batch, hidden), x.dtype) if h0 is None else np.asarray(h0, x.dtype)
    out = np.empty((s, t_len, batch, hidden), dtype=x.dtype)
    for t in range(t_len):
        pre = np.matmul(x[:, t, None], wx)
        pre += b
        rec = np.matmul(h[:, None], wh)
        zr = pre[:, :2] + rec[:, :2]
        zr *= 0.5
        np.tanh(zr, out=zr)
        zr *= 0.5
        zr += 0.5
        c = np.tanh(pre[:, 2] + zr[:, 1] * rec[:, 2])
        z = zr[:, 0]
        h = (1.0 - z) * c + z * h
        out[:, t] = h
    return out


def channel_shuffle_naive(x, groups):
    b, c = x.shape[:2]
    per = c // groups
    out = np.zeros_like(x)
    for dest in range(c):
        # destination position (i, g) reads source channel g*per + i
        i, g = divmod(dest, groups)
        out[:, dest] = x[:, g * per + i]
    return out


def _linear_naive(h, kernel, bias):
    """``h @ kernel + bias`` over the last axis of a [time, batch, in] array."""
    t_len, batch, d_in = h.shape
    out = np.zeros((t_len, batch, kernel.shape[1]))
    for t in range(t_len):
        for n in range(batch):
            for j in range(kernel.shape[1]):
                acc = bias[j]
                for i in range(d_in):
                    acc += h[t, n, i] * kernel[i, j]
                out[t, n, j] = acc
    return out


def _gru_weights(w, name):
    return w[f"{name}.w_x"], w[f"{name}.w_h"], w[f"{name}.bias"]


def gdprnn_naive(x, w, groups):
    """Grouped dual-path block composed group by group from :func:`gru_naive`.

    ``x`` is [batch, channel, time, freq]; ``w`` maps the ``dprnn.*`` tensor
    names to arrays.  Per group, a bidirectional GRU runs over the bands of
    every frame and a forward GRU over the frames of every band; each is
    projected back to group width, channel-shuffled and added residually.
    """
    b, c, t_len, f = x.shape
    gw = c // groups
    x = np.array(x, dtype=np.float64)
    for path in ("intra", "inter"):
        # sequence axis: bands (intra) or frames (inter); batch: the other
        seq_len, other = (f, t_len) if path == "intra" else (t_len, f)
        y = np.zeros_like(x)
        for g in range(groups):
            name = f"dprnn.{path}.g{g}"
            seq = np.zeros((seq_len, b * other, gw))
            for n in range(b):
                for o in range(other):
                    for s in range(seq_len):
                        ti, fi = (o, s) if path == "intra" else (s, o)
                        for ch in range(gw):
                            seq[s, n * other + o, ch] = x[n, g * gw + ch, ti, fi]
            if path == "intra":
                fwd = gru_naive(seq, *_gru_weights(w, f"{name}.fwd"))
                bwd = gru_naive(seq[::-1], *_gru_weights(w, f"{name}.bwd"))[::-1]
                h = np.concatenate([fwd, bwd], axis=-1)
            else:
                h = gru_naive(seq, *_gru_weights(w, f"{name}.gru"))
            p = _linear_naive(h, w[f"{name}.proj.kernel"], w[f"{name}.proj.bias"])
            for n in range(b):
                for o in range(other):
                    for s in range(seq_len):
                        ti, fi = (o, s) if path == "intra" else (s, o)
                        for ch in range(gw):
                            y[n, g * gw + ch, ti, fi] = p[s, n * other + o, ch]
        x = x + channel_shuffle_naive(y, groups)
    return x


# ---------------------------------------------------------------------------
# Band mapping and feature stacking
# ---------------------------------------------------------------------------


def band_merge_naive(vec, fb):
    """Dense matrix-vector product for a single 257-bin spectrum."""
    out = np.zeros(N_BANDS)
    for i in range(N_LOW):
        out[i] = vec[i]
    for band in range(N_BANDS - N_LOW):
        acc = 0.0
        for j in range(N_BINS - N_LOW):
            acc += fb.merge_weights[band, j] * vec[N_LOW + j]
        out[N_LOW + band] = acc
    return out


def band_merge_concat(x, fb):
    """Low bins and the product of the high bins with the float64 merge
    weights, concatenated: the merge that every input took before float32
    input kept its dtype.  Exact against the package on float64 input."""
    x = np.asarray(x)
    return np.concatenate([x[..., :N_LOW], x[..., N_LOW:] @ fb.merge_weights.T],
                          axis=-1)


def band_split_naive(vec, fb):
    out = np.zeros(N_BINS)
    for i in range(N_LOW):
        out[i] = vec[i]
    for j in range(N_BINS - N_LOW):
        acc = 0.0
        for band in range(N_BANDS - N_LOW):
            acc += fb.split_weights[j, band] * vec[N_LOW + band]
        out[N_LOW + j] = acc
    return out


def band_split_dense(x, fb):
    """Low bins copied, high bins as a product with the one-hot
    ``split_weights`` (float64 whatever the input).  Exact against the
    package's gather on finite input, whose values it only multiplies by 1
    and adds zeros to."""
    x = np.asarray(x)
    high = x[..., N_LOW:] @ fb.split_weights.T
    return np.concatenate([x[..., :N_LOW], high], axis=-1)


def sfe_naive(x, kernel):
    """Neighbor gathering with edge replication, channels stacked."""
    b, c, t, f = x.shape
    half = kernel // 2
    out = np.zeros((b, c * kernel, t, f), dtype=x.dtype)
    for n in range(b):
        for ci in range(c):
            for j in range(kernel):
                for fi in range(f):
                    src = min(max(fi + j - half, 0), f - 1)
                    out[n, ci * kernel + j, :, fi] = x[n, ci, :, src]
    return out


def sfe_gather(x, kernel):
    """Neighbor stacking by one clipped fancy-index gather and a transposed
    copy, the form the package's slice copies replaced; exact against it."""
    b, c, t, f = x.shape
    half = kernel // 2
    idx = np.clip(np.arange(f)[None, :] + np.arange(-half, half + 1)[:, None], 0, f - 1)
    return x[:, :, :, idx].transpose(0, 1, 3, 2, 4).reshape(b, c * kernel, t, f)


def build_features_stacked(y, y_iva, cfg):
    """Feature planes stacked by ``np.stack`` at their own dtype, then cast
    to float32 in one ``astype``, with the log power written out of place:
    the stack-and-cast the package's plane-by-plane fill replaced, exact
    against it on input inside the float32 range."""
    planes = [y[0].real, y[0].imag, y[1].real, y[1].imag]
    for ch in range(1 if cfg.iva_channels == "s" else 2):
        if cfg.feature == "complex":
            planes += [y_iva[ch].real, y_iva[ch].imag]
        else:
            planes.append(np.log(np.maximum(np.abs(y_iva[ch]) ** 2, 1e-12)))
    return np.stack(planes).astype(np.float32)


def apply_mask_complex(mask, target):
    """``(mask[0] + 1j * mask[1]) * target``: the mask built as a complex
    array, then multiplied.  Exact against the package on finite masks, the
    sign of a zero mask value aside."""
    return (mask[0] + 1j * mask[1]) * target


# ---------------------------------------------------------------------------
# Metrics and time-domain helpers
# ---------------------------------------------------------------------------


def si_snr_naive(est, ref):
    est = np.asarray(est, dtype=np.float64).ravel()
    ref = np.asarray(ref, dtype=np.float64).ravel()
    scale = float(np.dot(est, ref)) / float(np.dot(ref, ref))
    target = scale * ref
    err = est - target
    return 10.0 * math.log10(float(np.dot(target, target))
                             / float(np.dot(err, err)))


def kurtosis_naive(v):
    """Biased excess kurtosis: m4 / m2^2 - 3 with plain loops."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    mean = sum(v) / n
    m2 = sum((x - mean) ** 2 for x in v) / n
    m4 = sum((x - mean) ** 4 for x in v) / n
    return m4 / m2 ** 2 - 3.0


def weighted_covariance_naive(spec, w, m, eps):
    """Aux-IVA covariance of source m under the spherical Laplace prior.

    Frame envelope ``r_l = max(eps, sqrt(sum_k |sum_c w[k, m, c] y[c, l, k]|^2))``
    and ``v[k, a, b] = (1 / L) sum_l y[a, l, k] conj(y[b, l, k]) / r_l``,
    returned as ``[bins, 2, 2]``.
    """
    n_ch, n_frames, n_bins = spec.shape
    y = spec.tolist()
    r = []
    for l in range(n_frames):
        acc = 0.0
        for k in range(n_bins):
            x = sum(complex(w[k, m, c]) * y[c][l][k] for c in range(n_ch))
            acc += x.real ** 2 + x.imag ** 2
        r.append(max(eps, math.sqrt(acc)))
    v = np.zeros((n_bins, n_ch, n_ch), dtype=complex)
    for k in range(n_bins):
        for a in range(n_ch):
            for b in range(n_ch):
                acc = 0j
                for l in range(n_frames):
                    acc += y[a][l][k] * y[b][l][k].conjugate() / r[l]
                v[k, a, b] = acc / n_frames
    return v


def convolve_naive(sig, kernel):
    """Direct O(N*K) full convolution, truncated to len(sig)."""
    n = len(sig)
    out = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for j in range(min(i + 1, len(kernel))):
            acc += kernel[j] * sig[i - j]
        out[i] = acc
    return out


def inverse_2x2(m):
    """Closed-form adjugate inverse of a complex 2x2 matrix."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det


# ---------------------------------------------------------------------------
# Room acoustics
# ---------------------------------------------------------------------------


def image_rir_full_box(scene, fs=16000, c=343.0, max_order=None):
    """Image-method taps ``[2, n]`` from every image of a box of images that
    is larger than the horizon needs: coordinates stacked into an ``[N, 3]``
    array, distances by ``np.linalg.norm``, gains ``beta ** reflections``,
    summed by ``np.add.at`` in C order over the per-axis image lists.

    Each axis lists the images at ``2 n L + s`` for ``n = -K..K`` and then
    those at ``2 n L - s`` (``2|n|`` and ``|2n - 1|`` reflections).  A larger
    ``K`` keeps the order of the images a smaller one lists, and the extra
    images land past the last tap, so equal taps mean the same sums in the
    same order.  The Sabine absorption follows the simulator's documented
    protocol, and so does the reflection order cap unless ``max_order``
    gives another."""
    dims = np.asarray(scene.room_dims, dtype=np.float64)
    lx, ly, lz = dims
    alpha = 0.1611 * (lx * ly * lz) / (2.0 * (lx * ly + lx * lz + ly * lz) * scene.rt60)
    beta = np.sqrt(1.0 - alpha)
    n_taps = int(round((scene.rt60 + 0.05) * fs))
    horizon = c * (n_taps / fs)
    if max_order is None:
        max_order = int(np.ceil(horizon / np.min(dims))) + 2
    coords, refls = [], []
    for ax in range(3):
        n = np.arange(-int(np.ceil(horizon / (2.0 * dims[ax]))) - 2,
                      int(np.ceil(horizon / (2.0 * dims[ax]))) + 3)
        src = float(scene.source_position[ax])
        coords.append(np.concatenate([2.0 * n * dims[ax] + src, 2.0 * n * dims[ax] - src]))
        refls.append(np.concatenate([2 * np.abs(n), np.abs(2 * n - 1)]))
    refl = (refls[0][:, None, None] + refls[1][None, :, None]
            + refls[2][None, None, :]).ravel()
    keep = refl <= max_order
    points = np.stack(np.meshgrid(*coords, indexing="ij"), -1).reshape(-1, 3)[keep]
    gains = beta ** refl[keep] / (4 * np.pi)
    taps = np.zeros((2, n_taps))
    for m in range(2):
        d = np.maximum(np.linalg.norm(points - scene.mic_positions[m], axis=1), 1e-3)
        idx = np.rint(d * fs / c).astype(np.int64)
        ok = idx < n_taps
        np.add.at(taps[m], idx[ok], gains[ok] / d[ok])
    return taps

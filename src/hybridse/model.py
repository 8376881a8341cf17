"""The refinement network and its surrounding plumbing.

Pipeline: the two-channel noisy spectrogram and the coarse IVA estimate are
turned into real feature planes, compressed to 129 bands, widened by the
neighbor-stacking SFE step, then passed through a convolutional encoder, a
grouped dual-path RNN, and a mirrored transposed-convolution decoder that
emits a two-plane complex ratio mask.  The mask is expanded back to 257 bins
and multiplied onto either the IVA speech channel or the raw reference
channel.

Everything below the feature stage runs in float32 on the framework-free
primitives from :mod:`hybridse.nn`.  Weights live in a flat name->tensor
mapping; the layer inventory for a configuration is generated by
:func:`expected_shapes`, and loading validates against it exactly.
"""

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from . import nn
from .auxiva import IvaConfig, auxiva_separate, iva_macs_per_second
from .bands import ErbFilterbank, band_merge, band_split, make_erb_filterbank
from .dsp import StftConfig, istft, log_power, stft
from .errors import InvalidInputError, WeightFormatError
from .weights import deserialize_tensors, serialize_tensors

_FEATURES = ("complex", "lps")
_IVA_CHANNELS = ("s", "s_and_n")
_MASKINGS = ("mask1_iva", "mask2_noisy")
_ENCODERS = ("single", "dual")


@dataclass(frozen=True)
class ModelConfig:
    feature: str = "lps"
    iva_channels: str = "s_and_n"
    masking: str = "mask2_noisy"
    encoder: str = "single"
    sfe_kernel: int = 3
    gtconv_channels: int = 16
    gtconv_kernel: Tuple[int, int] = (3, 3)
    gtconv_dilations: Tuple[int, ...] = (1, 2, 5)
    conv_kernel: Tuple[int, int] = (1, 5)
    conv_stride: Tuple[int, int] = (1, 2)
    conv2_groups: int = 2
    dprnn_groups: int = 2
    # Recurrent widths per group; sized so the default single-encoder
    # configuration totals about 25k learnable parameters.
    intra_hidden: int = 32
    inter_hidden: int = 16
    dual_branch_channels: int = 12

    def __post_init__(self):
        if self.feature not in _FEATURES:
            raise InvalidInputError(f"feature must be one of {_FEATURES}")
        if self.iva_channels not in _IVA_CHANNELS:
            raise InvalidInputError(f"iva_channels must be one of {_IVA_CHANNELS}")
        if self.masking not in _MASKINGS:
            raise InvalidInputError(f"masking must be one of {_MASKINGS}")
        if self.encoder not in _ENCODERS:
            raise InvalidInputError(f"encoder must be one of {_ENCODERS}")
        if self.sfe_kernel < 1 or self.sfe_kernel % 2 == 0:
            raise InvalidInputError("sfe_kernel must be odd")
        if self.gtconv_channels % 2 != 0:
            raise InvalidInputError("gtconv_channels must be even")
        for width, groups in ((self.gtconv_channels, self.conv2_groups),
                              (self.gtconv_channels, self.dprnn_groups),
                              (self.dual_branch_channels, self.conv2_groups)):
            if width % groups != 0:
                raise InvalidInputError("channel widths must be divisible by their groups")
        if self.dual_branch_channels % 2 != 0:
            raise InvalidInputError("dual_branch_channels must be even")

    @property
    def iva_planes(self) -> int:
        per_channel = 2 if self.feature == "complex" else 1
        n_ch = 1 if self.iva_channels == "s" else 2
        return per_channel * n_ch

    @property
    def feature_planes(self) -> int:
        return 4 + self.iva_planes


PRESETS: Dict[str, ModelConfig] = {
    "cplx-s-m1": ModelConfig(feature="complex", iva_channels="s", masking="mask1_iva"),
    "cplx-s-m2": ModelConfig(feature="complex", iva_channels="s", masking="mask2_noisy"),
    "cplx-sn-m1": ModelConfig(feature="complex", iva_channels="s_and_n", masking="mask1_iva"),
    "lps-s-m1": ModelConfig(feature="lps", iva_channels="s", masking="mask1_iva"),
    "lps-s-m2": ModelConfig(feature="lps", iva_channels="s", masking="mask2_noisy"),
    "lps-sn-m2": ModelConfig(feature="lps", iva_channels="s_and_n", masking="mask2_noisy"),
    "lps-sn-m2-dual": ModelConfig(feature="lps", iva_channels="s_and_n",
                                  masking="mask2_noisy", encoder="dual"),
}
DEFAULT_PRESET = "lps-sn-m2"


def preset_config(name: str) -> ModelConfig:
    try:
        return PRESETS[name]
    except KeyError:
        raise InvalidInputError(
            f"unknown preset {name!r}; choose from {', '.join(sorted(PRESETS))}") from None


# --------------------------------------------------------------------------
# layer inventory


def _conv_shapes(d, name, out_ch, in_per_g, kt, kf):
    d[f"{name}.kernel"] = (out_ch, in_per_g, kt, kf)
    d[f"{name}.bias"] = (out_ch,)


def _bn_shapes(d, name, ch):
    for leaf in ("gamma", "beta", "mean", "var"):
        d[f"{name}.{leaf}"] = (ch,)


def _gt_shapes(d, name, ch, expand, kernel):
    half = ch // 2
    kt, kf = kernel
    _conv_shapes(d, f"{name}.pconv1", expand, half, 1, 1)
    _bn_shapes(d, f"{name}.bn1", expand)
    d[f"{name}.prelu1.alpha"] = (expand,)
    d[f"{name}.dwconv.kernel"] = (expand, 1, kt, kf)
    d[f"{name}.dwconv.bias"] = (expand,)
    _bn_shapes(d, f"{name}.bn2", expand)
    d[f"{name}.prelu2.alpha"] = (expand,)
    _conv_shapes(d, f"{name}.pconv2", half, expand, 1, 1)


def _gru_shapes(d, name, in_dim, hidden):
    d[f"{name}.w_x"] = (in_dim, 3 * hidden)
    d[f"{name}.w_h"] = (hidden, 3 * hidden)
    d[f"{name}.bias"] = (3 * hidden,)


def _encoder_branch_shapes(d, prefix, in_planes, width, cfg):
    kt, kf = cfg.conv_kernel
    _conv_shapes(d, f"{prefix}.conv1", width, in_planes, kt, kf)
    _bn_shapes(d, f"{prefix}.bn1", width)
    d[f"{prefix}.prelu1.alpha"] = (width,)
    _conv_shapes(d, f"{prefix}.conv2", width, width // cfg.conv2_groups, kt, kf)
    _bn_shapes(d, f"{prefix}.bn2", width)
    d[f"{prefix}.prelu2.alpha"] = (width,)
    for i in range(len(cfg.gtconv_dilations)):
        _gt_shapes(d, f"{prefix}.gt{i}", width, cfg.gtconv_channels, cfg.gtconv_kernel)


def expected_shapes(cfg: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Ordered name -> shape inventory of every tensor the config requires."""
    d: Dict[str, Tuple[int, ...]] = {}
    c = cfg.gtconv_channels
    if cfg.encoder == "single":
        _encoder_branch_shapes(d, "enc", cfg.sfe_kernel * cfg.feature_planes, c, cfg)
    else:
        bc = cfg.dual_branch_channels
        _encoder_branch_shapes(d, "enc.main", cfg.sfe_kernel * 4, bc, cfg)
        _encoder_branch_shapes(d, "enc.aux", cfg.sfe_kernel * cfg.iva_planes, bc, cfg)
        _conv_shapes(d, "enc.fuse", c, 2 * bc, 1, 1)
        _bn_shapes(d, "enc.fuse_bn", c)
        d["enc.fuse_prelu.alpha"] = (c,)

    gw = c // cfg.dprnn_groups
    for g in range(cfg.dprnn_groups):
        _gru_shapes(d, f"dprnn.intra.g{g}.fwd", gw, cfg.intra_hidden)
        _gru_shapes(d, f"dprnn.intra.g{g}.bwd", gw, cfg.intra_hidden)
        d[f"dprnn.intra.g{g}.proj.kernel"] = (2 * cfg.intra_hidden, gw)
        d[f"dprnn.intra.g{g}.proj.bias"] = (gw,)
    for g in range(cfg.dprnn_groups):
        _gru_shapes(d, f"dprnn.inter.g{g}.gru", gw, cfg.inter_hidden)
        d[f"dprnn.inter.g{g}.proj.kernel"] = (cfg.inter_hidden, gw)
        d[f"dprnn.inter.g{g}.proj.bias"] = (gw,)

    for i in range(len(cfg.gtconv_dilations)):
        _gt_shapes(d, f"dec.gt{i}", c, cfg.gtconv_channels, cfg.gtconv_kernel)
    kt, kf = cfg.conv_kernel
    d["dec.deconv1.kernel"] = (c, c // cfg.conv2_groups, kt, kf)
    d["dec.deconv1.bias"] = (c,)
    _bn_shapes(d, "dec.bn1", c)
    d["dec.prelu1.alpha"] = (c,)
    d["dec.deconv2.kernel"] = (c, 2, kt, kf)
    d["dec.deconv2.bias"] = (2,)
    return d


_STAT_LEAVES = (".mean", ".var")


def param_count(shapes) -> int:
    """Learnable scalars in a shape inventory (BN running stats excluded)."""
    total = 0
    for name, shp in shapes.items():
        if name.endswith(_STAT_LEAVES):
            continue
        total += int(np.prod(shp, dtype=np.int64))
    return total


def count_params(cfg: ModelConfig) -> int:
    return param_count(expected_shapes(cfg))


def _layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


def param_breakdown(cfg: ModelConfig) -> Dict[str, int]:
    """Per-layer learnable parameter counts; values sum to count_params."""
    out: Dict[str, int] = {}
    for name, shp in expected_shapes(cfg).items():
        if name.endswith(_STAT_LEAVES):
            continue
        layer = _layer_of(name)
        out[layer] = out.get(layer, 0) + int(np.prod(shp, dtype=np.int64))
    return out


# --------------------------------------------------------------------------
# weights


@dataclass
class ModelWeights:
    """Flat tensor map plus provenance metadata (config hash, init seed)."""
    tensors: Dict[str, np.ndarray]
    config_hash: str
    seed: Optional[int] = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]


def config_hash(cfg: ModelConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True, default=list)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _fan_in_bound(name: str, shp) -> float:
    leaf = name.rsplit(".", 1)[1]
    if leaf in ("w_x", "w_h"):
        hidden = shp[1] // 3 if leaf == "w_x" else shp[0]
        return 1.0 / np.sqrt(hidden)
    if leaf == "kernel":
        fan_in = int(np.prod(shp[1:])) if len(shp) > 1 else shp[0]
        return 1.0 / np.sqrt(fan_in)
    raise InvalidInputError(f"no fan-in rule for {name}")


def init_random(cfg: ModelConfig, seed: int) -> ModelWeights:
    """Seeded random weights: uniform +-1/sqrt(fan_in) for kernels and their
    biases, 1/sqrt(hidden) for all GRU tensors, identity batch norms, and
    PReLU slopes at 0.25."""
    rng = np.random.default_rng(seed)
    tensors: Dict[str, np.ndarray] = {}
    bound = 0.0
    for name, shp in expected_shapes(cfg).items():
        leaf = name.rsplit(".", 1)[1]
        if leaf in ("gamma", "var"):
            arr = np.ones(shp, dtype=np.float32)
        elif leaf in ("beta", "mean"):
            arr = np.zeros(shp, dtype=np.float32)
        elif leaf == "alpha":
            arr = np.full(shp, 0.25, dtype=np.float32)
        elif leaf in ("kernel", "w_x", "w_h"):
            bound = _fan_in_bound(name, shp)
            arr = rng.uniform(-bound, bound, size=shp).astype(np.float32)
        elif leaf == "bias":
            arr = rng.uniform(-bound, bound, size=shp).astype(np.float32)
        else:
            raise InvalidInputError(f"unknown tensor leaf in {name}")
        tensors[name] = arr
    return ModelWeights(tensors=tensors, config_hash=config_hash(cfg), seed=int(seed))


def save_weights(w: ModelWeights) -> bytes:
    return serialize_tensors(w.tensors)


def load_weights(data: bytes, cfg: ModelConfig) -> ModelWeights:
    """Parse a weight blob and validate it against the config's inventory.

    Any missing, extra, misshapen, or non-finite tensor raises
    :class:`WeightFormatError` naming the offender; nothing partial escapes.
    """
    raw = deserialize_tensors(data)
    shapes = expected_shapes(cfg)
    for name, shp in shapes.items():
        if name not in raw:
            raise WeightFormatError(f"missing tensor {name!r} for this config")
        if raw[name].shape != tuple(shp):
            raise WeightFormatError(
                f"tensor {name!r} has shape {raw[name].shape}, expected {tuple(shp)}")
        if not np.all(np.isfinite(raw[name])):
            raise WeightFormatError(f"tensor {name!r} contains non-finite values")
    for name in raw:
        if name not in shapes:
            raise WeightFormatError(f"unexpected tensor {name!r} for this config")
    ordered = {name: raw[name] for name in shapes}
    return ModelWeights(tensors=ordered, config_hash=config_hash(cfg), seed=None)


# --------------------------------------------------------------------------
# forward pass


def build_features(y: np.ndarray, y_iva: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Real feature planes [planes, frames, bins] from the noisy and IVA
    spectrograms: Re/Im of both noisy channels, then the configured IVA
    planes (Re/Im pairs or log-power, speech channel first).  Raises
    :class:`InvalidInputError` when a plane leaves the float32 range."""
    y = np.asarray(y)
    y_iva = np.asarray(y_iva)
    if y.shape != y_iva.shape or y.ndim != 3 or y.shape[0] != 2:
        raise InvalidInputError(
            f"expected matching [2, frames, bins] spectrograms, got {y.shape} and {y_iva.shape}")
    planes = [y[0].real, y[0].imag, y[1].real, y[1].imag]
    n_iva = 1 if cfg.iva_channels == "s" else 2
    for ch in range(n_iva):
        if cfg.feature == "complex":
            planes.append(y_iva[ch].real)
            planes.append(y_iva[ch].imag)
        else:
            planes.append(log_power(y_iva[ch]))
    feats = np.stack(planes)
    limit = np.finfo(np.float32).max
    if feats.max() > limit or feats.min() < -limit:
        raise InvalidInputError("input too loud: spectrogram exceeds the float32 range")
    return feats.astype(np.float32)


def sfe(x: np.ndarray, kernel: int = 3) -> np.ndarray:
    """Stack each band with its neighbors along the channel axis.

    Edge bands replicate; output channel ``c * kernel + j`` holds plane c at
    band offset ``j - kernel//2``, so each plane's stencil stays contiguous.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise InvalidInputError("sfe kernel must be odd and positive")
    if x.ndim != 4:
        raise InvalidInputError(f"expected [batch, channel, time, freq], got {x.shape}")
    b, c, t, f = x.shape
    half = kernel // 2
    idx = np.clip(np.arange(f)[None, :] + np.arange(-half, half + 1)[:, None], 0, f - 1)
    gathered = x[:, :, :, idx]                    # [b, c, t, kernel, f]
    return gathered.transpose(0, 1, 3, 2, 4).reshape(b, c * kernel, t, f)


def _conv_p(w: ModelWeights, name: str) -> nn.Conv2dParams:
    return nn.Conv2dParams(kernel=w[f"{name}.kernel"], bias=w[f"{name}.bias"])


def _bn_p(w: ModelWeights, name: str) -> nn.BatchNormParams:
    return nn.BatchNormParams(gamma=w[f"{name}.gamma"], beta=w[f"{name}.beta"],
                              running_mean=w[f"{name}.mean"],
                              running_var=w[f"{name}.var"])


def gtconv_block(x: np.ndarray, w: ModelWeights, prefix: str, dilation: int,
                 cfg: ModelConfig) -> np.ndarray:
    """Half-identity grouped temporal conv block.

    The second channel half goes through pointwise expand, causal dilated
    depthwise (dilation on time only), and pointwise squeeze, each conv
    followed by BN+PReLU where the structure calls for it; the halves are
    re-joined and the channels shuffled across two groups.
    """
    ch = x.shape[1]
    if ch % 2 != 0:
        raise InvalidInputError("gtconv block needs an even channel count")
    half = ch // 2
    keep, transform = x[:, :half], x[:, half:]
    t = nn.conv2d(transform, _conv_p(w, f"{prefix}.pconv1"))
    t = nn.prelu(nn.batch_norm_infer(t, _bn_p(w, f"{prefix}.bn1")),
                 w[f"{prefix}.prelu1.alpha"])
    t = nn.conv2d(t, nn.Conv2dParams(w[f"{prefix}.dwconv.kernel"],
                                     w[f"{prefix}.dwconv.bias"]),
                  dilation=(dilation, 1), groups=t.shape[1], causal_pad_time=True)
    t = nn.prelu(nn.batch_norm_infer(t, _bn_p(w, f"{prefix}.bn2")),
                 w[f"{prefix}.prelu2.alpha"])
    t = nn.conv2d(t, _conv_p(w, f"{prefix}.pconv2"))
    return nn.channel_shuffle(np.concatenate([keep, t], axis=1), 2)


def _encode_branch(x: np.ndarray, w: ModelWeights, prefix: str,
                   cfg: ModelConfig) -> np.ndarray:
    x = nn.conv2d(x, _conv_p(w, f"{prefix}.conv1"), stride=cfg.conv_stride)
    x = nn.prelu(nn.batch_norm_infer(x, _bn_p(w, f"{prefix}.bn1")),
                 w[f"{prefix}.prelu1.alpha"])
    x = nn.conv2d(x, _conv_p(w, f"{prefix}.conv2"), stride=cfg.conv_stride,
                  groups=cfg.conv2_groups)
    x = nn.prelu(nn.batch_norm_infer(x, _bn_p(w, f"{prefix}.bn2")),
                 w[f"{prefix}.prelu2.alpha"])
    for i, d in enumerate(cfg.gtconv_dilations):
        x = gtconv_block(x, w, f"{prefix}.gt{i}", d, cfg)
    return x


def encode(x: np.ndarray, w: ModelWeights, cfg: ModelConfig):
    """Feature tensor [batch, 3P, time, 129] to ``(latent, skip)``, both
    [batch, 16, time, 33]; the skip is the latent itself."""
    if x.ndim != 4:
        raise InvalidInputError(f"expected [batch, channel, time, freq], got {x.shape}")
    if cfg.encoder == "single":
        latent = _encode_branch(x, w, "enc", cfg)
    else:
        n_main = 4 * cfg.sfe_kernel
        main = _encode_branch(x[:, :n_main], w, "enc.main", cfg)
        aux = _encode_branch(x[:, n_main:], w, "enc.aux", cfg)
        fused = nn.conv2d(np.concatenate([main, aux], axis=1), _conv_p(w, "enc.fuse"))
        latent = nn.prelu(nn.batch_norm_infer(fused, _bn_p(w, "enc.fuse_bn")),
                          w["enc.fuse_prelu.alpha"])
    return latent, latent


def _stacked_gru(w: ModelWeights, names) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return tuple(np.stack([w[f"{n}.{k}"] for n in names]) for k in ("w_x", "w_h", "bias"))


def gdprnn(latent: np.ndarray, w: ModelWeights, cfg: ModelConfig) -> np.ndarray:
    """Grouped dual-path block: bidirectional GRUs over bands within each
    frame, then causal GRUs over time within each band, each followed by a
    linear projection back to group width, a channel shuffle, and a residual
    add.  Output shape equals input shape.

    Each path is one :func:`nn.gru_scan`: the intra path stacks the forward
    and the band-reversed inputs of every group (``S = 2 * groups``), the
    inter path stacks the groups (``S = groups``).  The projections are
    batched over groups, the intra one summing the two directions' halves.
    """
    b, c, t, f = latent.shape
    groups = cfg.dprnn_groups
    if c % groups != 0:
        raise InvalidInputError(f"{c} channels not divisible by {groups} groups")
    gw = c // groups

    # intra: [groups, bands, batch * frames, gw], scanned over the bands
    seq = latent.reshape(b, groups, gw, t, f).transpose(1, 4, 0, 3, 2)
    seq = seq.reshape(groups, f, b * t, gw)
    intra = [f"dprnn.intra.g{g}" for g in range(groups)]
    h = nn.gru_scan(np.concatenate([seq, seq[:, ::-1]]),
                    *_stacked_gru(w, [f"{n}.fwd" for n in intra] + [f"{n}.bwd" for n in intra]))
    k = np.stack([w[f"{n}.proj.kernel"] for n in intra])[:, None]
    hid = cfg.intra_hidden
    p = np.matmul(h[:groups], k[:, :, :hid])
    p += np.matmul(h[groups:], k[:, :, hid:])[:, ::-1]
    p += np.stack([w[f"{n}.proj.bias"] for n in intra])[:, None, None]
    p = p.reshape(groups, f, b, t, gw).transpose(2, 0, 4, 3, 1).reshape(b, c, t, f)
    x = latent + nn.channel_shuffle(p, groups)

    # inter: [groups, frames, batch * bands, gw], scanned over the frames
    seq = x.reshape(b, groups, gw, t, f).transpose(1, 3, 0, 4, 2).reshape(groups, t, b * f, gw)
    inter = [f"dprnn.inter.g{g}" for g in range(groups)]
    h = nn.gru_scan(seq, *_stacked_gru(w, [f"{n}.gru" for n in inter]))
    p = np.matmul(h, np.stack([w[f"{n}.proj.kernel"] for n in inter])[:, None])
    p += np.stack([w[f"{n}.proj.bias"] for n in inter])[:, None, None]
    p = p.reshape(groups, t, b, f, gw).transpose(2, 0, 4, 1, 3).reshape(b, c, t, f)
    return x + nn.channel_shuffle(p, groups)


def decode(z: np.ndarray, w: ModelWeights, cfg: ModelConfig) -> np.ndarray:
    """Latent-plus-skip [batch, 16, time, 33] to a two-plane mask at 129
    bands, squashed to (-1, 1) by the final tanh."""
    for i, d in enumerate(reversed(cfg.gtconv_dilations)):
        z = gtconv_block(z, w, f"dec.gt{i}", d, cfg)
    z = nn.conv_transpose2d(z, _conv_p(w, "dec.deconv1"), stride=cfg.conv_stride,
                            groups=cfg.conv2_groups)
    z = nn.prelu(nn.batch_norm_infer(z, _bn_p(w, "dec.bn1")), w["dec.prelu1.alpha"])
    z = nn.conv_transpose2d(z, _conv_p(w, "dec.deconv2"), stride=cfg.conv_stride)
    return nn.tanh_act(z)


def forward(y: np.ndarray, y_iva: np.ndarray, w: ModelWeights, cfg: ModelConfig,
            fb: Optional[ErbFilterbank] = None) -> np.ndarray:
    """Complex ratio mask [2, frames, 257] for the given spectrograms.

    Plane 0 is the real mask, plane 1 the imaginary mask; both lie in
    [-1, 1] (tanh output propagated through the convex band split).
    """
    if fb is None:
        fb = make_erb_filterbank()
    feats = build_features(y, y_iva, cfg)
    merged = band_merge(feats, fb).astype(np.float32)
    x = sfe(merged[None], cfg.sfe_kernel)
    latent, skip = encode(x, w, cfg)
    z = gdprnn(latent, w, cfg) + skip
    mask = decode(z, w, cfg)
    return band_split(mask.astype(np.float64), fb)[0]


def apply_mask(mask: np.ndarray, y: np.ndarray, y_iva: np.ndarray,
               mode: str) -> np.ndarray:
    """Multiply the complex mask onto the configured target spectrogram:
    the IVA speech channel (mask1_iva) or the noisy reference (mask2_noisy)."""
    if mode == "mask1_iva":
        target = np.asarray(y_iva)[0]
    elif mode == "mask2_noisy":
        target = np.asarray(y)[0]
    else:
        raise InvalidInputError(f"unknown masking mode {mode!r}")
    mask = np.asarray(mask)
    if mask.ndim != 3 or mask.shape[0] != 2 or mask.shape[1:] != target.shape:
        raise InvalidInputError(
            f"mask shape {mask.shape} does not match target {target.shape}")
    return (mask[0] + 1j * mask[1]) * target


# --------------------------------------------------------------------------
# analytic cost accounting


def _band_trace(cfg: ModelConfig, n_bands: int):
    sf = cfg.conv_stride[1]
    f1 = (n_bands - 1) // sf + 1
    f2 = (f1 - 1) // sf + 1
    return f1, f2


def _branch_macs(cfg: ModelConfig, in_planes: int, width: int, f1: int, f2: int,
                 out: Dict[str, float], prefix: str):
    kt, kf = cfg.conv_kernel
    out[f"{prefix}.conv1"] = f1 * width * in_planes * kt * kf
    out[f"{prefix}.conv2"] = f2 * width * (width // cfg.conv2_groups) * kt * kf
    gkt, gkf = cfg.gtconv_kernel
    e = cfg.gtconv_channels
    for i in range(len(cfg.gtconv_dilations)):
        out[f"{prefix}.gt{i}"] = f2 * (e * (width // 2)      # expand
                                       + e * gkt * gkf       # depthwise
                                       + (width // 2) * e)   # squeeze


def macs_breakdown(cfg: ModelConfig, stft_cfg: StftConfig = StftConfig(),
                   iva_cfg: Optional[IvaConfig] = None) -> Dict[str, float]:
    """Multiply-accumulates per second of audio, itemized per layer.

    Counting convention: one MAC per kernel tap per output element for
    convolutions (per input element for transposed ones), gate and candidate
    matrix products for GRUs, sparse effective cost for the band filterbank,
    four real MACs per complex multiply in the mask application.  Batch
    norms and activations fold into their neighbors and are not counted.
    The IVA term comes from :func:`iva_macs_per_second`.
    """
    fps = stft_cfg.frames_per_second
    n_bins = stft_cfg.n_bins
    n_bands = 129
    n_high = n_bins - 65
    f1, f2 = _band_trace(cfg, n_bands)
    c = cfg.gtconv_channels
    per_frame: Dict[str, float] = {}
    per_frame["band_merge"] = cfg.feature_planes * n_high
    if cfg.encoder == "single":
        _branch_macs(cfg, cfg.sfe_kernel * cfg.feature_planes, c, f1, f2,
                     per_frame, "enc")
    else:
        bc = cfg.dual_branch_channels
        _branch_macs(cfg, cfg.sfe_kernel * 4, bc, f1, f2, per_frame, "enc.main")
        _branch_macs(cfg, cfg.sfe_kernel * cfg.iva_planes, bc, f1, f2,
                     per_frame, "enc.aux")
        per_frame["enc.fuse"] = f2 * c * 2 * bc

    gw = c // cfg.dprnn_groups
    hi = cfg.intra_hidden
    per_frame["dprnn.intra"] = (
        f2 * 2 * cfg.dprnn_groups * 3 * (gw * hi + hi * hi)
        + f2 * cfg.dprnn_groups * 2 * hi * gw)
    he = cfg.inter_hidden
    per_frame["dprnn.inter"] = (
        f2 * cfg.dprnn_groups * 3 * (gw * he + he * he)
        + f2 * cfg.dprnn_groups * he * gw)

    gkt, gkf = cfg.gtconv_kernel
    e = cfg.gtconv_channels
    for i in range(len(cfg.gtconv_dilations)):
        per_frame[f"dec.gt{i}"] = f2 * (e * (c // 2) + e * gkt * gkf + (c // 2) * e)
    kt, kf = cfg.conv_kernel
    per_frame["dec.deconv1"] = f2 * c * (c // cfg.conv2_groups) * kt * kf
    per_frame["dec.deconv2"] = f1 * c * 2 * kt * kf
    per_frame["band_split"] = 2 * n_high
    per_frame["apply_mask"] = 4 * n_bins

    out = {name: v * fps for name, v in per_frame.items()}
    if iva_cfg is not None:
        out["auxiva"] = iva_macs_per_second(iva_cfg, stft_cfg)
    return out


def count_macs(cfg: ModelConfig, stft_cfg: StftConfig = StftConfig(),
               iva_cfg: Optional[IvaConfig] = IvaConfig()) -> float:
    """Total MACs per second of audio, network plus IVA (see
    :func:`macs_breakdown` for the convention)."""
    return float(sum(macs_breakdown(cfg, stft_cfg, iva_cfg).values()))


# --------------------------------------------------------------------------
# end-to-end enhancement


@dataclass
class EnhanceResult:
    wave: np.ndarray               # [n] enhanced mono
    mask: np.ndarray               # [2, frames, 257]
    est_spec: np.ndarray           # [frames, 257] complex
    noisy_spec: np.ndarray         # [2, frames, 257] complex
    iva_spec: np.ndarray           # [2, frames, 257] complex (noisy copy if bypassed)
    used_iva: bool


def enhance(wave: np.ndarray, w: ModelWeights, cfg: ModelConfig,
            stft_cfg: StftConfig = StftConfig(),
            iva_cfg: IvaConfig = IvaConfig(),
            use_iva: bool = True,
            fb: Optional[ErbFilterbank] = None) -> EnhanceResult:
    """Enhance a two-channel waveform [2, n] into mono speech of length n."""
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim != 2 or wave.shape[0] != 2:
        raise InvalidInputError(f"expected a [2, n] waveform, got shape {wave.shape}")
    if not np.all(np.isfinite(wave)):
        raise InvalidInputError("waveform contains non-finite samples")
    y = stft(wave, stft_cfg)
    bypass = not use_iva
    if use_iva and not np.any(y):
        warnings.warn("input is digital silence; skipping IVA", stacklevel=2)
        bypass = True
    if use_iva and y.shape[1] < 2:
        warnings.warn("fewer than 2 frames; skipping IVA", stacklevel=2)
        bypass = True
    y_iva = y if bypass else auxiva_separate(y, iva_cfg)[0]
    mask = forward(y, y_iva, w, cfg, fb=fb)
    est = apply_mask(mask, y, y_iva, cfg.masking)
    out = istft(est, stft_cfg, length=wave.shape[1])
    return EnhanceResult(wave=out, mask=mask, est_spec=est, noisy_spec=y,
                         iva_spec=y_iva, used_iva=not bypass)

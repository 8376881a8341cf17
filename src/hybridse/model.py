"""The refinement network and its surrounding plumbing.

Pipeline: the two-channel noisy spectrogram and the coarse IVA estimate are
turned into real feature planes, compressed to 129 bands, widened by the
neighbor-stacking SFE step, then passed through a convolutional encoder, a
grouped dual-path RNN, and a mirrored transposed-convolution decoder that
emits a two-plane complex ratio mask.  The mask is expanded back to 257 bins
and multiplied onto either the IVA speech channel or the raw reference
channel.

Everything below the feature stage runs in float32 on the framework-free
primitives from :mod:`hybridse.nn`.  Weights are a plain ordered ``dict``
of name -> float32 array.  One private layer table, ``_layers(cfg)``, is
the single description of the architecture: the tensor inventory
(:func:`expected_shapes`, which loading validates against exactly), the
seeded initialisation (:func:`init_random`), the parameter counts and the
MAC accounting are all read from it, and so is the forward pass.  Each
conv, BN and PReLU row carries the ``nn`` call that runs it, and
:func:`prepare` walks the table once per weight set into a :class:`Plan`:
each batch norm folded into the conv before it, each PReLU's slopes on
the conv it follows, each G-DPRNN path's GRUs and projections stacked.
Encoder, G-T-conv blocks and decoder run the plan's rows in table order.
Every public function that takes weights takes a dict or a plan, and
prepares a dict on entry, so both run the same arithmetic.

The network is causal in time, and :func:`forward` runs it over blocks of
at most :data:`BLOCK_FRAMES` frames, so its working set is one block's
whatever the file length.  :func:`encode`, :func:`gdprnn` and
:func:`decode` take an optional ``state`` dict that carries what crosses a
block boundary, keyed by layer or path name: each depthwise time conv (the
rows whose op binds a dilation) keeps its last ``(kt - 1) * d`` input
frames, 2, 4 or 10, which stand in for its causal zero padding in the next
block, and the inter path keeps the inter-GRU's hidden state, which
:func:`nn.gru_scan` takes as ``h0``.  Everything else
(features, band merge and split, SFE, the strided ``kt = 1`` convs and
deconvs, the intra-GRU) is local to a frame.  ``state=None`` is the zero
state and keeps nothing: one call over all frames.
"""

import itertools
import math
import warnings
from dataclasses import dataclass, fields
from functools import cache, partial
from typing import ClassVar, Dict, Literal, Optional, Tuple, Union, get_args

import numpy as np

from . import nn
from .auxiva import IvaConfig, auxiva_separate, check_reference, iva_macs_per_second
from .bands import N_BANDS, N_BINS, N_HIGH, band_merge, band_split
from .dsp import StftConfig, check_float32_range, istft, log_power, stft
from .errors import DegenerateInputError, InvalidInputError, WeightFormatError
from .weights import deserialize_tensors, serialize_tensors

# Most frames in one block of the forward pass (about 4 s of audio).
BLOCK_FRAMES = 256


@dataclass(frozen=True)
class ModelConfig:
    """The four design axes the paper compares: the IVA feature type, the
    IVA channels fed to the network, the masking target and the encoder.

    The refinement net itself has GTCRN's fixed lightweight geometry (Rong
    et al., ICASSP 2024), given by the class constants below.  Each axis's
    annotation lists its allowed values, and construction checks them.
    """
    feature: Literal["complex", "lps"] = "lps"
    iva_channels: Literal["s", "s_and_n"] = "s_and_n"
    masking: Literal["mask1_iva", "mask2_noisy"] = "mask2_noisy"
    encoder: Literal["single", "dual"] = "single"

    sfe_kernel: ClassVar[int] = 3
    gtconv_channels: ClassVar[int] = 16
    gtconv_kernel: ClassVar[Tuple[int, int]] = (3, 3)
    gtconv_dilations: ClassVar[Tuple[int, ...]] = (1, 2, 5)
    conv_kernel: ClassVar[Tuple[int, int]] = (1, 5)
    # (1, s): the decoder mirrors the band axis only when s divides both
    # N_BANDS - 1 and (N_BANDS - 1) / s, so no band is dropped
    conv_stride: ClassVar[Tuple[int, int]] = (1, 2)
    conv2_groups: ClassVar[int] = 2
    dprnn_groups: ClassVar[int] = 2
    # Recurrent widths per group; sized so the default single-encoder
    # configuration totals about 25k learnable parameters.
    intra_hidden: ClassVar[int] = 32
    inter_hidden: ClassVar[int] = 16
    dual_branch_channels: ClassVar[int] = 12

    def __post_init__(self):
        for field in fields(self):
            choices = get_args(field.type)
            if getattr(self, field.name) not in choices:
                raise InvalidInputError(f"{field.name} must be one of {choices}")

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
# layer table


@cache
def _layers(cfg: ModelConfig):
    """The architecture as one ordered table of ``(layer, {leaf: shape},
    mac_entry, bands, bound, op)`` rows, in weight-file order, built once
    per config.

    ``mac_entry`` is the :func:`macs_breakdown` item (the layer itself, or
    the G-T-conv block or G-DPRNN path it belongs to) that the layer's
    ``kernel``, ``w_x`` and ``w_h`` entries count towards, each applied once
    per band of a frame, at ``bands`` bands: f1 after one strided conv, f2
    after two.  Each of the layer's tensors, its bias too, starts uniform in
    +-``bound``: ``1/sqrt(prod(kernel[1:]))`` for any kernel, ``1/sqrt(hidden)``
    for a GRU.  Batch norms and PReLUs have ``None`` for all three.  ``op``
    runs a conv, BN or PReLU layer as ``op(x, *tensors)``, tensors in leaf
    order, a conv's stride, dilation and groups bound in; it is ``None`` for
    the G-DPRNN's GRUs and projections, which :func:`gdprnn` runs per path.
    """
    sf = cfg.conv_stride[1]
    f1 = (N_BANDS - 1) // sf + 1
    f2 = (f1 - 1) // sf + 1
    kt, kf = cfg.conv_kernel
    c = e = cfg.gtconv_channels             # latent width; G-T-conv expansion width
    conv = partial(nn.conv2d, stride=cfg.conv_stride)
    deconv = partial(nn.conv_transpose2d, stride=cfg.conv_stride)
    rows = []

    def weighted(layer, kernel, n_out, mac=None, bands=f2, op=nn.conv2d):
        rows.append((layer, {"kernel": kernel, "bias": (n_out,)}, mac or layer, bands,
                     1 / math.sqrt(math.prod(kernel[1:])), op))

    def norm_act(bn, prelu, ch):
        rows.append((bn, dict.fromkeys(("gamma", "beta", "mean", "var"), (ch,)),
                     None, None, None, nn.batch_norm_infer))
        rows.append((prelu, {"alpha": (ch,)}, None, None, None, nn.prelu))

    def gru(layer, n_in, hidden, mac):
        rows.append((layer, {"w_x": (n_in, 3 * hidden), "w_h": (hidden, 3 * hidden),
                             "bias": (3 * hidden,)}, mac, f2, 1 / math.sqrt(hidden), None))

    def gt(prefix, ch, dilation):
        half = ch // 2
        weighted(f"{prefix}.pconv1", (e, half, 1, 1), e, prefix)          # expand
        norm_act(f"{prefix}.bn1", f"{prefix}.prelu1", e)
        weighted(f"{prefix}.dwconv", (e, 1, *cfg.gtconv_kernel), e, prefix,
                 op=partial(nn.conv2d, dilation=(dilation, 1), groups=e))
        norm_act(f"{prefix}.bn2", f"{prefix}.prelu2", e)
        weighted(f"{prefix}.pconv2", (half, e, 1, 1), half, prefix)      # squeeze

    def branch(prefix, in_planes, width):
        weighted(f"{prefix}.conv1", (width, in_planes, kt, kf), width, bands=f1, op=conv)
        norm_act(f"{prefix}.bn1", f"{prefix}.prelu1", width)
        weighted(f"{prefix}.conv2", (width, width // cfg.conv2_groups, kt, kf), width,
                 op=partial(conv, groups=cfg.conv2_groups))
        norm_act(f"{prefix}.bn2", f"{prefix}.prelu2", width)
        for i, d in enumerate(cfg.gtconv_dilations):
            gt(f"{prefix}.gt{i}", width, d)

    if cfg.encoder == "single":
        branch("enc", cfg.sfe_kernel * cfg.feature_planes, c)
    else:
        bc = cfg.dual_branch_channels
        branch("enc.main", cfg.sfe_kernel * 4, bc)
        branch("enc.aux", cfg.sfe_kernel * cfg.iva_planes, bc)
        weighted("enc.fuse", (c, 2 * bc, 1, 1), c)
        norm_act("enc.fuse_bn", "enc.fuse_prelu", c)

    gw = c // cfg.dprnn_groups
    hi, he = cfg.intra_hidden, cfg.inter_hidden
    for g in range(cfg.dprnn_groups):
        gru(f"dprnn.intra.g{g}.fwd", gw, hi, "dprnn.intra")
        gru(f"dprnn.intra.g{g}.bwd", gw, hi, "dprnn.intra")
        weighted(f"dprnn.intra.g{g}.proj", (2 * hi, gw), gw, "dprnn.intra", op=None)
    for g in range(cfg.dprnn_groups):
        gru(f"dprnn.inter.g{g}.gru", gw, he, "dprnn.inter")
        weighted(f"dprnn.inter.g{g}.proj", (he, gw), gw, "dprnn.inter", op=None)

    # the decoder mirrors the encoder: its blocks run the dilations backwards
    for i, d in enumerate(reversed(cfg.gtconv_dilations)):
        gt(f"dec.gt{i}", c, d)
    # transposed kernels are [in, out / groups, kt, kf], counted per input band
    weighted("dec.deconv1", (c, c // cfg.conv2_groups, kt, kf), c,
             op=partial(deconv, groups=cfg.conv2_groups))
    norm_act("dec.bn1", "dec.prelu1", c)
    weighted("dec.deconv2", (c, 2, kt, kf), 2, bands=f1, op=deconv)
    return tuple(rows)


def expected_shapes(cfg: ModelConfig) -> Dict[str, Tuple[int, ...]]:
    """Ordered name -> shape inventory of every tensor the config requires."""
    return {f"{layer}.{leaf}": shape for layer, leaves, *_ in _layers(cfg)
            for leaf, shape in leaves.items()}


def param_breakdown(cfg: ModelConfig) -> Dict[str, int]:
    """Per-layer learnable parameter counts (BN running stats excluded)."""
    return {layer: sum(math.prod(shape) for leaf, shape in leaves.items()
                       if leaf not in ("mean", "var"))
            for layer, leaves, *_ in _layers(cfg)}


def count_params(cfg: ModelConfig) -> int:
    return sum(param_breakdown(cfg).values())


# --------------------------------------------------------------------------
# weights


_CONSTANT_LEAVES = {"gamma": 1.0, "var": 1.0, "beta": 0.0, "mean": 0.0, "alpha": 0.25}


def init_random(cfg: ModelConfig, seed: int) -> Dict[str, np.ndarray]:
    """Seeded random weights: each tensor of a row with a bound is drawn
    uniform in +-bound, in weight-file order; batch norms start as identity
    and PReLU slopes at 0.25."""
    rng = np.random.default_rng(seed)
    tensors: Dict[str, np.ndarray] = {}
    for layer, leaves, _, _, bound, _ in _layers(cfg):
        for leaf, shp in leaves.items():
            tensors[f"{layer}.{leaf}"] = (
                np.full(shp, _CONSTANT_LEAVES[leaf], dtype=np.float32) if bound is None
                else rng.uniform(-bound, bound, size=shp).astype(np.float32))
    return tensors


def save_weights(w: Dict[str, np.ndarray]) -> bytes:
    return serialize_tensors(w)


def load_weights(data: bytes, cfg: ModelConfig) -> "Plan":
    """The :class:`Plan` of a weight blob for ``cfg``.  :func:`prepare`
    checks it against the config's inventory: any missing, extra, misshapen,
    or non-finite tensor raises :class:`WeightFormatError` naming the
    offender; nothing partial escapes.
    """
    return prepare(deserialize_tensors(data), cfg)


def _check_inventory(w, cfg: ModelConfig) -> None:
    """Raise :class:`WeightFormatError` naming the first missing, misshapen,
    non-finite or unexpected tensor of the name -> array mapping ``w``
    against the config's inventory."""
    shapes = expected_shapes(cfg)
    for name, shp in shapes.items():
        if name not in w:
            raise WeightFormatError(f"missing tensor {name!r} for this config")
        tensor = w[name]
        if np.shape(tensor) != tuple(shp):
            raise WeightFormatError(
                f"tensor {name!r} has shape {np.shape(tensor)}, expected {tuple(shp)}")
        if not np.isfinite(tensor).all():
            raise WeightFormatError(f"tensor {name!r} contains non-finite values")
    for name in w:
        if name not in shapes:
            raise WeightFormatError(f"unexpected tensor {name!r} for this config")


# --------------------------------------------------------------------------
# features


def _spectrograms(y, y_iva) -> Tuple[np.ndarray, np.ndarray]:
    y = np.asarray(y)
    y_iva = np.asarray(y_iva)
    if y.shape != y_iva.shape or y.ndim != 3 or y.shape[0] != 2:
        raise InvalidInputError(
            f"expected matching [2, frames, bins] spectrograms, got {y.shape} and {y_iva.shape}")
    return y, y_iva


def build_features(y: np.ndarray, y_iva: np.ndarray, cfg: ModelConfig) -> np.ndarray:
    """Real feature planes [planes, frames, bins] from the noisy and IVA
    spectrograms: Re/Im of both noisy channels, then the configured IVA
    planes (Re/Im pairs or log-power, speech channel first).  Each plane is
    range-checked in float64, then written into one float32 array; raises
    :class:`InvalidInputError` when a plane leaves the float32 range."""
    y, y_iva = _spectrograms(y, y_iva)
    planes = [y[0].real, y[0].imag, y[1].real, y[1].imag]
    n_iva = 1 if cfg.iva_channels == "s" else 2
    for ch in range(n_iva):
        if cfg.feature == "complex":
            planes.append(y_iva[ch].real)
            planes.append(y_iva[ch].imag)
        else:
            planes.append(log_power(y_iva[ch]))
    feats = np.empty((len(planes), *y.shape[1:]), dtype=np.float32)
    buf = np.empty(y.shape[1:])
    for out, plane in zip(feats, planes):
        if not (plane.dtype == np.float64 and plane.flags.c_contiguous):
            np.copyto(buf, plane)
            plane = buf
        check_float32_range(plane)
        out[...] = plane
    return feats


def sfe(x: np.ndarray, kernel: int = 3) -> np.ndarray:
    """Stack each band with its neighbors along the channel axis.

    Edge bands replicate; output channel ``c * kernel + j`` holds plane c at
    band offset ``j - kernel//2``, so each plane's stencil stays contiguous.
    Each offset is one shifted slice copy plus the replicated edge bands.
    """
    if kernel < 1 or kernel % 2 == 0:
        raise InvalidInputError("sfe kernel must be odd and positive")
    if x.ndim != 4:
        raise InvalidInputError(f"expected [batch, channel, time, freq], got {x.shape}")
    b, c, t, f = x.shape
    out = np.empty((b, c, kernel, t, f), dtype=x.dtype)
    for j in range(kernel):
        s = j - kernel // 2
        lo, hi = min(max(-s, 0), f), max(min(f - s, f), 0)   # bands with a neighbor at s
        dst = out[:, :, j]
        dst[..., lo:hi] = x[..., lo + s:hi + s]
        dst[..., :lo] = x[..., :1]
        dst[..., hi:] = x[..., f - 1:]
    return out.reshape(b, c * kernel, t, f)


# --------------------------------------------------------------------------
# prepared plan


@dataclass(frozen=True, eq=False)
class Plan:
    """A weight set in the form the forward pass runs it, built by
    :func:`prepare` once per weight set and config.

    ``blocks`` holds the table's conv and transposed-conv rows grouped by
    the block that holds them, in table order, each as ``(layer, op,
    (kernel, bias), slopes)``: the batch norm that follows the row folded
    into its kernel and bias, and ``slopes`` the ``alpha`` of the PReLU
    that follows it, or ``None``.  ``paths`` holds, per G-DPRNN
    path, its GRUs stacked in :func:`nn.gru_gate_major`'s layout (each
    bias the last input row of its ``w_x``), per group the forward GRU
    and then any backward one, and its projection kernels
    [groups, directions, 1, hidden, group width] and biases [groups, 1, 1,
    group width].  Every array is read-only, and a plan pickles.
    """
    cfg: ModelConfig
    blocks: tuple
    paths: tuple

    def arrays(self):
        """Every array the plan holds, in plan order."""
        for _, steps in self.blocks:
            for *_, tensors, slopes in steps:
                yield from tensors if slopes is None else (*tensors, slopes)
        for _, weights in self.paths:
            yield from weights


Weights = Union[Dict[str, np.ndarray], Plan]


def _fold(op, kernel, bias, gamma, beta, mean, var):
    """The kernel and bias of the conv or transposed-conv row run by ``op``
    with the batch norm that follows it folded in, computed in float64 and
    rounded once: each output channel's taps and bias are scaled by that
    channel's :func:`nn.batch_norm_affine` scale, and its shift is added to
    the bias.  A conv kernel [out, in / groups, kt, kf] holds the output
    channels on its first axis; a transposed one [in, out / groups, kt, kf]
    holds, group by group, group ``g``'s outputs on its second axis."""
    dtype = np.result_type(kernel, bias, gamma, beta, mean, var)
    scale, shift = nn.batch_norm_affine(*(np.asarray(t, np.float64)
                                          for t in (gamma, beta, mean, var)))
    if getattr(op, "func", op) is nn.conv_transpose2d:
        groups = op.keywords.get("groups", 1)
        in_ch, o_per_g, kt, kf = kernel.shape
        scaled = (kernel.reshape(groups, in_ch // groups, o_per_g, kt, kf)
                  * scale.reshape(groups, 1, o_per_g, 1, 1)).reshape(kernel.shape)
    else:
        scaled = kernel * scale[:, None, None, None]
    return scaled.astype(dtype), (bias * scale + shift).astype(dtype)


def _path_weights(grus, projs, groups: int):
    """One G-DPRNN path's ``(w_x, w_h, kernel, proj_bias)`` from its
    GRU and projection rows' tensors, in table order."""
    directions = len(grus) // groups
    kernels, biases = (np.stack(t) for t in zip(*projs))
    kernels = kernels.reshape(groups, directions, 1, -1, kernels.shape[-1])
    return (*nn.gru_gate_major(*(np.stack(t) for t in zip(*grus))), kernels,
            biases[:, None, None])


def prepare(w: Weights, cfg: ModelConfig) -> Plan:
    """The :class:`Plan` of the weight dict ``w`` for ``cfg``, built by one
    walk of the layer table; a plan comes back as it is, and must be one
    for ``cfg``.  Each tensor is read once, by name, and none is written.

    Every batch norm in the table directly follows a conv or a transposed
    conv and folds into it, and every PReLU directly follows a batch norm
    and runs in place on the conv's output, through :func:`nn.prelu`.
    So the plan's output differs from a pass that runs each batch norm on
    its own only by float32 rounding.  A dict is first checked against the
    config's inventory, like a loaded file (:func:`_check_inventory`).
    """
    if isinstance(w, Plan):
        if w.cfg != cfg:
            raise InvalidInputError(f"a plan prepared for {w.cfg} cannot run {cfg}")
        return w
    _check_inventory(w, cfg)
    steps, grus, projs = [], {}, {}
    for layer, leaves, mac, _, _, op in _layers(cfg):
        tensors = tuple(np.array(w[f"{layer}.{leaf}"]) for leaf in leaves)   # the plan's own
        if op is nn.batch_norm_infer:
            steps[-1][2] = _fold(steps[-1][1], *steps[-1][2], *tensors)
        elif op is nn.prelu:
            steps[-1][3] = tensors[0]
        elif op is not None:
            steps.append([layer, op, tensors, None])
        else:
            (grus if "w_x" in leaves else projs).setdefault(mac, []).append(tensors)
    blocks = tuple((block, tuple(map(tuple, group))) for block, group in
                   itertools.groupby(steps, lambda step: step[0].rpartition(".")[0]))
    paths = tuple((path, _path_weights(grus[path], projs[path], cfg.dprnn_groups))
                  for path in grus)
    plan = Plan(cfg, blocks, paths)
    for array in plan.arrays():
        array.flags.writeable = False
    return plan


# --------------------------------------------------------------------------
# network blocks


def _carry(op, x: np.ndarray, tensors, state: dict, layer: str) -> np.ndarray:
    """Run a depthwise time conv row over one block.  The input frames that
    ``state[layer]`` kept from the blocks before go in front, in place of
    the causal zero padding, and their outputs are dropped; the last
    ``(kt - 1) * d`` input frames are kept for the next block."""
    past = state.get(layer)
    if past is not None:
        x = np.concatenate([past, x], axis=2)
    reach = (tensors[0].shape[2] - 1) * op.keywords["dilation"][0]
    state[layer] = x[:, :, max(x.shape[2] - reach, 0):].copy()
    out = op(x, *tensors)
    return out if past is None else out[:, :, past.shape[2]:]


def _run(x: np.ndarray, plan: Plan, prefix: str, state: Optional[dict] = None) -> np.ndarray:
    """Run the plan's rows under ``prefix`` in table order: each row
    directly under it through its ``op``, then its PReLU in place, and each
    G-T-conv block ``{prefix}.gt{i}`` as one :func:`_gtconv_block`.  With a
    ``state``, the rows whose op binds a dilation (the depthwise time
    convs) run through :func:`_carry`."""
    for block, steps in plan.blocks:
        if block == prefix:
            for layer, op, tensors, slopes in steps:
                if state is not None and "dilation" in getattr(op, "keywords", ()):
                    x = _carry(op, x, tensors, state, layer)
                else:
                    x = op(x, *tensors)
                if slopes is not None:
                    nn.prelu(x, slopes, out=x)
        elif block.startswith(f"{prefix}.gt"):
            x = _gtconv_block(x, plan, block, state)
    return x


def _gtconv_block(x: np.ndarray, plan: Plan, prefix: str,
                  state: Optional[dict] = None) -> np.ndarray:
    """Half-identity grouped temporal conv block: the second channel half
    runs the block's rows (pointwise expand, causal time-dilated depthwise,
    pointwise squeeze, the first two with BN+PReLU), and the halves are
    re-joined shuffled across two groups in one copy: output channel ``2c``
    is kept channel ``c``, ``2c + 1`` transformed channel ``c``."""
    b, ch = x.shape[:2]
    if ch % 2 != 0:
        raise InvalidInputError("gtconv block needs an even channel count")
    half = ch // 2
    t = _run(x[:, half:], plan, prefix, state)
    out = np.empty(x.shape, dtype=np.result_type(x, t))
    pairs = out.reshape(b, half, 2, *x.shape[2:])
    pairs[:, :, 0] = x[:, :half]
    pairs[:, :, 1] = t
    return out


def encode(x: np.ndarray, w: Weights, cfg: ModelConfig,
           state: Optional[dict] = None):
    """Feature tensor [batch, 3P, time, 129] to ``(latent, skip)``, both
    [batch, 16, time, 33]; the skip is the latent itself.  A dual encoder
    fuses the outputs of its noisy-plane and IVA-plane branches."""
    plan = prepare(w, cfg)
    if x.ndim != 4:
        raise InvalidInputError(f"expected [batch, channel, time, freq], got {x.shape}")
    if cfg.encoder == "dual":
        n_main = 4 * cfg.sfe_kernel
        x = np.concatenate([_run(x[:, :n_main], plan, "enc.main", state),
                            _run(x[:, n_main:], plan, "enc.aux", state)], axis=1)
    latent = _run(x, plan, "enc", state)
    return latent, latent


def _dprnn_path(x: np.ndarray, plan: Plan, path: str, perm: Tuple[int, ...],
                state: Optional[dict] = None) -> np.ndarray:
    """One G-DPRNN path: ``x`` plus the channel-shuffled projection of the
    path's GRUs.  ``perm`` lays ``x``, viewed as [batch, groups, gw, time,
    bands], out as [groups, scanned, batch, other, gw].  One
    :func:`nn.gru_scan_gate_major` runs all of the path's GRUs from the
    plan, a backward GRU over the reversed scan axis, and each projection
    sums its directions' halves straight into the shuffled order: output
    channel ``j * groups + g`` is unit ``j`` of group ``g``.  The copy
    into the scan layout (for the intra path, the direction stack) also
    writes the constant-1 last input column that the GRUs' bias row
    reads.  With a ``state``, the scan starts from ``state[path]`` (zeros
    if absent) and leaves its last step there."""
    b, c, t, f = x.shape
    groups = plan.cfg.dprnn_groups
    gw = c // groups
    w_x, w_h, k, proj_bias = dict(plan.paths)[path]
    directions = k.shape[1]
    seq = x.reshape(b, groups, gw, t, f).transpose(perm)
    _, n_scan, _, n_other, _ = seq.shape
    xa = np.empty((groups, directions, n_scan, b, n_other, gw + 1), dtype=x.dtype)
    xa[:, 0, ..., :gw] = seq
    if directions == 2:
        xa[:, 1, ..., :gw] = seq[:, ::-1]
    xa[..., gw] = 1
    h = nn.gru_scan_gate_major(xa.reshape(groups * directions, n_scan, b * n_other, gw + 1),
                               w_x, w_h, h0=None if state is None else state.get(path))
    if state is not None:
        state[path] = h[:, -1].copy()
    h = h.reshape(groups, directions, *h.shape[1:])
    p = np.matmul(h[:, 0], k[:, 0])
    if directions == 2:
        p += np.matmul(h[:, 1], k[:, 1])[:, ::-1]
    p += proj_bias
    p = p.reshape(groups, n_scan, b, n_other, gw)
    shuffled = p.transpose([perm.index(a) for a in (0, 2, 1, 3, 4)])
    return (x.reshape(b, gw, groups, t, f) + shuffled).reshape(b, c, t, f)


def gdprnn(latent: np.ndarray, w: Weights, cfg: ModelConfig,
           state: Optional[dict] = None) -> np.ndarray:
    """Grouped dual-path block: bidirectional GRUs over bands within each
    frame, then causal GRUs over time within each band, each followed by a
    linear projection back to group width, a channel shuffle, and a residual
    add, each path one :func:`_dprnn_path`.  Output shape equals input shape.
    Only the inter path, the one over time, reads and writes ``state``.
    """
    plan = prepare(w, cfg)
    c = latent.shape[1]
    if c % cfg.dprnn_groups != 0:
        raise InvalidInputError(f"{c} channels not divisible by {cfg.dprnn_groups} groups")
    x = _dprnn_path(latent, plan, "dprnn.intra", (1, 4, 0, 3, 2))
    return _dprnn_path(x, plan, "dprnn.inter", (1, 3, 0, 4, 2), state)


def decode(z: np.ndarray, w: Weights, cfg: ModelConfig,
           state: Optional[dict] = None) -> np.ndarray:
    """Latent-plus-skip [batch, 16, time, 33] to a two-plane mask at 129
    bands, squashed to (-1, 1) by the final tanh."""
    out = _run(z, prepare(w, cfg), "dec", state)
    return np.tanh(out, out=out)


# --------------------------------------------------------------------------
# forward pass


def _forward_block(y: np.ndarray, y_iva: np.ndarray, plan: Plan,
                   state: Optional[dict]) -> np.ndarray:
    """The float32 mask [2, frames, 257] of the frames that follow the ones
    ``state`` has seen, which it then carries past these; ``None`` is the
    zero state and keeps nothing."""
    cfg = plan.cfg
    x = sfe(band_merge(build_features(y, y_iva, cfg))[None], cfg.sfe_kernel)
    latent, skip = encode(x, plan, cfg, state)
    del x                  # neither the bands nor their stack is held past encode
    z = gdprnn(latent, plan, cfg, state)
    z += skip
    return band_split(decode(z, plan, cfg, state))[0]


def forward(y: np.ndarray, y_iva: np.ndarray, w: Weights,
            cfg: ModelConfig) -> np.ndarray:
    """Complex ratio mask [2, frames, 257] for the given spectrograms.

    Plane 0 is the real mask, plane 1 the imaginary mask; both lie in
    [-1, 1] (tanh output propagated through the convex band split).
    ``w`` is a weight dict, prepared here once for every block, or a
    :class:`Plan`.

    The network runs over consecutive blocks from one carried state, each
    block's mask written into the output, so the memory it needs beyond its
    input and output does not grow with the frame count.  Each block's
    features are written once into one float32 array, and the band merge,
    the SFE stack and the network all run in float32 from there.  The
    frames are cut into ``ceil(frames / BLOCK_FRAMES)`` blocks whose
    lengths differ by at most one, so no block is shorter than half of
    :data:`BLOCK_FRAMES`: BLAS rounds a product of 18 rows or fewer (the
    band merge's frames) differently from a tall one, and long blocks keep
    the mask byte for byte the one a single block over all frames gives.
    """
    plan = prepare(w, cfg)
    y, y_iva = _spectrograms(y, y_iva)
    frames = y.shape[1]
    n_blocks = max(-(-frames // BLOCK_FRAMES), 1)
    edges = [frames * i // n_blocks for i in range(n_blocks + 1)]
    mask = np.empty((2, frames, N_BINS))
    state: dict = {}
    for a, b in zip(edges, edges[1:]):
        mask[:, a:b] = _forward_block(y[:, a:b], y_iva[:, a:b], plan, state)
    return mask


def apply_mask(mask: np.ndarray, y: np.ndarray, y_iva: np.ndarray,
               mode: str) -> np.ndarray:
    """Multiply the complex mask onto the configured target spectrogram:
    the IVA speech channel (mask1_iva) or the noisy reference (mask2_noisy).
    The mask planes are written into one complex output, which the target
    then multiplies in place."""
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
    out = np.empty(target.shape, dtype=np.result_type(mask, target, 1j))
    out.real = mask[0]
    out.imag = mask[1]
    out *= target
    return out


# --------------------------------------------------------------------------
# analytic cost accounting


def macs_breakdown(cfg: ModelConfig, iva_cfg: Optional[IvaConfig] = None) -> Dict[str, float]:
    """Multiply-accumulates per second of audio, itemized per layer.

    Counting convention: one MAC per kernel tap per output element for
    convolutions (per input element for transposed ones), gate and candidate
    matrix products for GRUs, sparse effective cost for the band filterbank,
    four real MACs per complex multiply in the mask application.  Batch
    norms and activations fold into their neighbors and are not counted.
    The IVA term comes from :func:`iva_macs_per_second`.  The sum of the
    items is the total, which ``hybridse inspect`` prints.
    """
    per_frame: Dict[str, float] = {"band_merge": cfg.feature_planes * N_HIGH}
    for _, leaves, mac, bands, *_ in _layers(cfg):
        if mac is not None:
            taps = sum(math.prod(leaves[k]) for k in ("kernel", "w_x", "w_h") if k in leaves)
            per_frame[mac] = per_frame.get(mac, 0) + bands * taps
    per_frame["band_split"] = 2 * N_HIGH
    per_frame["apply_mask"] = 4 * N_BINS

    out = {name: v * StftConfig.frames_per_second for name, v in per_frame.items()}
    if iva_cfg is not None:
        out["auxiva"] = iva_macs_per_second(iva_cfg)
    return out


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


def enhance(wave: np.ndarray, w: Weights, cfg: ModelConfig,
            iva_cfg: IvaConfig = IvaConfig(),
            use_iva: bool = True) -> EnhanceResult:
    """Enhance a two-channel waveform [2, n] into mono speech of length n.
    Where :func:`auxiva_separate` raises :class:`DegenerateInputError` (all
    zeros, or under 2 frames), the noisy spectrogram stands in for its output
    and a warning carries its message + "; skipping IVA".  A silent
    reference microphone beside a live one is invalid input
    (:func:`check_reference`).  The input is released once :func:`stft`
    has read it."""
    wave = np.asarray(wave, dtype=np.float64)
    if wave.ndim != 2 or wave.shape[0] != 2:
        raise InvalidInputError(f"expected a [2, n] waveform, got shape {wave.shape}")
    if not np.all(np.isfinite(wave)):
        raise InvalidInputError("waveform contains non-finite samples")
    check_reference(wave)
    y, n = stft(wave), wave.shape[1]
    del wave                        # nothing reads the input after stft
    y_iva, used_iva = y, False
    if use_iva:
        try:
            y_iva, used_iva = auxiva_separate(y, iva_cfg)[0], True
        except DegenerateInputError as exc:
            warnings.warn(f"{exc}; skipping IVA", stacklevel=2)
    mask = forward(y, y_iva, w, cfg)
    est = apply_mask(mask, y, y_iva, cfg.masking)
    out = istft(est, length=n)
    return EnhanceResult(wave=out, mask=mask, est_spec=est, noisy_spec=y,
                         iva_spec=y_iva, used_iva=used_iva)

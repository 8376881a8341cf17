"""Band merging and splitting through an ERB-spaced filterbank.

The 257-bin half spectrum is compressed to 129 bands: the lowest 65 bins pass
through untouched and the remaining 192 bins are pooled into 64 bands whose
centers are uniformly spaced on the ERB-rate scale between the first high bin
and Nyquist.  Each high bin belongs to exactly one band (the indicator columns
form a partition of unity), merging averages the member bins, and splitting
copies each band value back to its member bins.  This makes merge(split(v))
the exact identity on band space and split(merge(x)) exact on any spectrum
that is constant within each band, and both directions map constants to
constants and preserve nonnegativity.  The layout is fixed: its counts are
the module constants ``N_BINS``, ``N_LOW`` and ``N_BANDS``, and its weights
are read-only class constants of :class:`ErbFilterbank`.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .dsp import DEFAULT_SAMPLE_RATE, StftConfig
from .errors import InvalidInputError

N_BINS = StftConfig.n_bins
N_LOW = 65
N_HIGH = N_BINS - N_LOW
N_ERB = 64
N_BANDS = N_LOW + N_ERB


def hz_to_erb_rate(freq_hz):
    """ERB-rate scale value for a frequency in Hz."""
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(freq_hz, dtype=np.float64))


def _erb_layout():
    """Read-only ``(merge_weights, split_weights, band_of_bin, center_erb)``:
    band edges are uniform on the ERB-rate scale from the frequency of bin 65
    up to Nyquist, and a bin joins the band whose edge interval contains it,
    so bin 65 lands in band 0 and the Nyquist bin in band 63."""
    bin_hz = np.arange(N_BINS) * DEFAULT_SAMPLE_RATE / StftConfig.fft_size
    erb = hz_to_erb_rate(bin_hz[N_LOW:])
    edges = np.linspace(erb[0], hz_to_erb_rate(DEFAULT_SAMPLE_RATE / 2), N_ERB + 1)
    band_of_bin = np.clip(np.digitize(erb, edges) - 1, 0, N_ERB - 1)
    split = np.eye(N_ERB)[band_of_bin]
    merge = np.ascontiguousarray((split / split.sum(axis=0)).T)
    centers = 0.5 * (edges[:-1] + edges[1:])
    layout = (merge, split, band_of_bin, centers)
    for a in layout:
        a.flags.writeable = False
    return layout


@dataclass(frozen=True)
class ErbFilterbank:
    """The band layout, as class constants: the network is built for its 129
    bands, so nothing is settable and all instances compare equal."""
    merge_weights: ClassVar[np.ndarray]   # [64, 192], rows sum to 1 (in-band averaging)
    split_weights: ClassVar[np.ndarray]   # [192, 64], rows one-hot (band broadcast)
    band_of_bin: ClassVar[np.ndarray]     # [192] ERB band index of each high bin
    center_erb: ClassVar[np.ndarray]      # [64] band centers on the ERB-rate scale
    merge_weights, split_weights, band_of_bin, center_erb = _erb_layout()


def make_erb_filterbank() -> ErbFilterbank:
    """``ErbFilterbank()``; kept because the benchmark's setup probe calls it."""
    return ErbFilterbank()


def band_merge(x: np.ndarray, fb: ErbFilterbank = ErbFilterbank()) -> np.ndarray:
    """Compress the last axis from 257 bins to 129 bands (``fb`` kept for perfbench).

    The low bins are copied and the high bins take one product with the
    merge weights, written into the output: a float32 input stays float32
    and runs against the weights rounded to float32 on the call, any other
    input against the float64 weights.  BLAS rounds a product of 18 rows
    (frames) or fewer differently from a taller one, so a merge of 19
    frames or more equals the same frames of a longer merge byte for byte.
    """
    x = np.asarray(x)
    if x.shape[-1] != N_BINS:
        raise InvalidInputError(f"expected {N_BINS} bins on the last axis, got {x.shape[-1]}")
    weights = fb.merge_weights.astype(np.float32) if x.dtype == np.float32 else fb.merge_weights
    out = np.empty(x.shape[:-1] + (N_BANDS,), dtype=np.result_type(x, weights))
    out[..., :N_LOW] = x[..., :N_LOW]
    np.matmul(x[..., N_LOW:], weights.T, out=out[..., N_LOW:])
    return out


def band_split(x: np.ndarray, fb: ErbFilterbank = ErbFilterbank()) -> np.ndarray:
    """Expand the last axis from 129 bands back to 257 bins (``fb`` kept for perfbench)."""
    x = np.asarray(x)
    if x.shape[-1] != N_BANDS:
        raise InvalidInputError(f"expected {N_BANDS} bands on the last axis, got {x.shape[-1]}")
    return x[..., np.concatenate([np.arange(N_LOW), N_LOW + fb.band_of_bin])]

"""Dual-channel low-SNR speech enhancement toolkit.

An auxiliary-function IVA separator provides a coarse speech estimate; a
small grouped convolutional-recurrent network refines it through a complex
ratio mask.  Ships with an image-method scene simulator, SI-SNR style
metrics, and a CLI (``hybridse``).
"""

from .auxiva import (IvaConfig, auxiva_separate, covariance_stats, demix,
                     iva_macs_per_second, iva_sweep, order_sources,
                     projection_back)
from .bands import ErbFilterbank, band_merge, band_split, make_erb_filterbank
from .dsp import StftConfig, istft, log_power, sqrt_hann, stft
from .errors import (DegenerateInputError, HybridseError, InvalidInputError,
                     NumericalError, SceneInfeasibleError, WeightFormatError)
from .loss import (hybrid_loss, imag_loss, mag_loss, real_loss, si_snr,
                   sisnr_loss, snr)
from .model import (DEFAULT_PRESET, PRESETS, EnhanceResult, ModelConfig, Plan,
                    apply_mask, build_features, count_params, decode, encode,
                    enhance, expected_shapes, forward, gdprnn, init_random,
                    load_weights, macs_breakdown, param_breakdown, prepare,
                    preset_config, save_weights, sfe)
from .simkit import (Rir, SceneConstraints, SceneRender, SceneSpec, apply_rir,
                     early_target, image_rir, mix_at_snr, read_manifest,
                     render_scene, sabine_absorption, sample_scene,
                     schroeder_rt60, write_manifest)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

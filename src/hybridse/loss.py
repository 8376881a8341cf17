"""Training objectives and evaluation metrics, as plain numpy functions.

The time-domain term is scale-invariant SNR against the projection of the
estimate onto the reference (no mean removal).  Spectral terms operate on
power-law compressed spectra, ``|S|^c * S / |S|`` with the fixed exponent
c = 0.3 and ``|S|`` floored at 1e-12, split into magnitude, real and
imaginary parts; all three come from one pass over the spectra.  Losses
return python floats so they can be logged or combined without dtype
surprises.
"""

import numpy as np

from .errors import DegenerateInputError, InvalidInputError

_SNR_CAP_DB = 100.0
_POWER = 0.3        # compression exponent c
_MAG_FLOOR = 1e-12  # |S| is floored here before compressing


def _as_pair(est, ref):
    est = np.asarray(est, dtype=np.float64).ravel()
    ref = np.asarray(ref, dtype=np.float64).ravel()
    if est.shape != ref.shape:
        raise InvalidInputError(f"shape mismatch: {est.shape} vs {ref.shape}")
    if est.size == 0:
        raise InvalidInputError("empty signals")
    return est, ref


def si_snr(est, ref) -> float:
    """Scale-invariant SNR in dB, capped to +-100 dB.

    The target is ``(<est, ref> / ||ref||^2) ref``; whatever of the estimate
    lies outside that line counts as error.  Invariant to rescaling of the
    estimate by any nonzero factor.
    """
    est, ref = _as_pair(est, ref)
    ref_pow = float(np.dot(ref, ref))
    if ref_pow == 0.0:
        raise DegenerateInputError("reference signal is all zeros")
    target = (float(np.dot(est, ref)) / ref_pow) * ref
    err = est - target
    num = float(np.dot(target, target))
    den = float(np.dot(err, err))
    if num == 0.0:
        return -_SNR_CAP_DB
    if den == 0.0:
        return _SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(num / den), -_SNR_CAP_DB, _SNR_CAP_DB))


def sisnr_loss(est, ref) -> float:
    """Negative scale-invariant SNR (dB); lower is better, floor -100."""
    return -si_snr(est, ref)


def _compressed_diffs(est_spec, ref_spec):
    """Estimate-minus-reference differences of the compressed magnitude, real
    and imaginary parts, elementwise."""
    est_spec = np.asarray(est_spec)
    ref_spec = np.asarray(ref_spec)
    if est_spec.shape != ref_spec.shape:
        raise InvalidInputError(f"shape mismatch: {est_spec.shape} vs {ref_spec.shape}")
    est_mag = np.maximum(np.abs(est_spec), _MAG_FLOOR)
    ref_mag = np.maximum(np.abs(ref_spec), _MAG_FLOOR)
    # |S|^c * S/|S| has real part Re(S) / |S|^(1-c), likewise for imaginary
    est_div = est_mag ** (1.0 - _POWER)
    ref_div = ref_mag ** (1.0 - _POWER)
    return (est_mag ** _POWER - ref_mag ** _POWER,
            est_spec.real / est_div - ref_spec.real / ref_div,
            est_spec.imag / est_div - ref_spec.imag / ref_div)


def _mse(diff) -> float:
    return float(np.mean(diff ** 2))


def mag_loss(est_spec, ref_spec) -> float:
    """MSE between power-law compressed magnitude spectra."""
    return _mse(_compressed_diffs(est_spec, ref_spec)[0])


def real_loss(est_spec, ref_spec) -> float:
    """MSE between real parts of power-law compressed complex spectra."""
    return _mse(_compressed_diffs(est_spec, ref_spec)[1])


def imag_loss(est_spec, ref_spec) -> float:
    """MSE between imaginary parts of power-law compressed complex spectra."""
    return _mse(_compressed_diffs(est_spec, ref_spec)[2])


def hybrid_loss(est_wave, ref_wave, est_spec, ref_spec,
                alpha: float = 0.01, beta: float = 0.3) -> float:
    """Weighted blend of the time and compressed-spectrum terms:

        alpha * sisnr_loss + (1 - beta) * magnitude + beta * (real + imag)
    """
    mag, real, imag = (_mse(d) for d in _compressed_diffs(est_spec, ref_spec))
    return (alpha * sisnr_loss(est_wave, ref_wave)
            + (1.0 - beta) * mag + beta * (real + imag))


def snr(est, ref) -> float:
    """Plain SNR in dB of ``ref`` against the residual ``est - ref``."""
    est, ref = _as_pair(est, ref)
    ref_pow = float(np.dot(ref, ref))
    if ref_pow == 0.0:
        raise DegenerateInputError("reference signal is all zeros")
    err = est - ref
    den = float(np.dot(err, err))
    if den == 0.0:
        return _SNR_CAP_DB
    return float(np.clip(10.0 * np.log10(ref_pow / den), -_SNR_CAP_DB, _SNR_CAP_DB))

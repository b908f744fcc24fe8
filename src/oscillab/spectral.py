"""Fourier pseudospectral operations on periodic fields.

Conventions: forward transform is unnormalized, the inverse divides by n
(numpy default).  Mode m of an n-point field carries wavenumber
k_m = 2*pi*m/length with m in {-n/2, ..., n/2 - 1} in fft ordering.

Every dealiased product goes through one pair of functions: to_fine takes
n coefficients to samples on the 3/2-rule grid of m = 3n/2 points, the
product is formed there, and from_fine takes the fine samples back to the
n lowest modes.  Both act on the last axis, so leading axes (harmonic
profiles, ensembles) are transformed in one call.  A product formed this way
has no Nyquist content: padding leaves out the Nyquist mode of its factors
and truncation leaves it empty.  Linear terms keep theirs, -k^2 included.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeError

# Zero-padding ratio used to dealias the cubic product.
PAD_NUM, PAD_DEN = 3, 2


def wavenumbers(n: int, length: float) -> np.ndarray:
    return 2.0 * np.pi * np.fft.fftfreq(n, d=length / n)


def pad_coeffs(coeffs: np.ndarray, m: int, scale=1.0) -> np.ndarray:
    """Embed n unnormalized coefficients, times scale, into m slots; the
    Nyquist mode is dropped."""
    n = coeffs.shape[-1]
    if m < n:
        raise ShapeError("padded size must not be smaller than the original")
    h = n // 2
    out = np.zeros(coeffs.shape[:-1] + (m,), dtype=complex)
    np.multiply(coeffs[..., :h], scale, out=out[..., :h])
    np.multiply(coeffs[..., n - h + 1:], scale, out=out[..., m - h + 1:])
    return out


def truncate_coeffs(coeffs: np.ndarray, n: int, out=None, scale=1.0) -> np.ndarray:
    """The n lowest of m unnormalized coefficients, times scale; the Nyquist
    slot stays empty.  All of out, when given, is written."""
    m = coeffs.shape[-1]
    if n > m:
        raise ShapeError("truncated size must not exceed the original")
    h = n // 2
    if out is None:
        out = np.empty(coeffs.shape[:-1] + (n,), dtype=complex)
    out[..., h:n - h + 1] = 0.0
    np.multiply(coeffs[..., :h], scale, out=out[..., :h])
    np.multiply(coeffs[..., m - h + 1:], scale, out=out[..., n - h + 1:])
    return out


def padded_size(n: int) -> int:
    return (PAD_NUM * n) // PAD_DEN


def to_fine(coeffs: np.ndarray) -> np.ndarray:
    """Samples on the 3/2-rule grid of the field with these n coefficients:
    the padded coefficients over n, summed by an unscaled inverse transform."""
    n = coeffs.shape[-1]
    fine = pad_coeffs(coeffs, padded_size(n), scale=1.0 / n)
    return np.fft.ifft(fine, axis=-1, norm="forward", out=fine)


def from_fine(fine: np.ndarray, n: int, out=None) -> np.ndarray:
    """The n lowest coefficients of fine-grid samples, scaled by n/m as they
    are truncated and written into out when it is given."""
    return truncate_coeffs(np.fft.fft(fine, axis=-1), n, out=out,
                           scale=n / fine.shape[-1])


def parseval_norm(coeffs: np.ndarray) -> float:
    """The solution norm sqrt(2 * mean |u|^2) of a field, from its coefficients;
    finite for every finite field."""
    mags = np.abs(coeffs)
    with np.errstate(over="ignore"):
        total = np.sum(mags**2)
    if np.isinf(total):     # the squares overflow: rescale by the largest
        return float(mags.max() * parseval_norm(mags / mags.max()))
    return float(np.sqrt(2.0 * total) / coeffs.size)

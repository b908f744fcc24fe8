import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oscillab import FcglParams, FcglSteadyProblem
from oscillab.errors import ShapeError
from oscillab.spectral import (
    from_fine,
    pad_coeffs,
    padded_size,
    parseval_norm,
    to_fine,
    truncate_coeffs,
    wavenumbers,
)


def second_derivative_symbol(n, length):
    """The steady problems' linear symbol with unit diffusion and nothing
    else, i.e. their spectral second derivative."""
    p = FcglParams(mu=0.0, nu=0.0, alpha=1.0, beta=0.0,
                   c_re=-1.0, c_im=0.0, gamma=0.0)
    return FcglSteadyProblem(p, n=n, length=length).symbol


def second_derivative(values, length):
    symbol = second_derivative_symbol(values.size, length)
    return np.fft.ifft(symbol * np.fft.fft(values))


def test_wavenumbers():
    k = wavenumbers(8, 4.0)
    assert k[0] == 0.0
    assert k[1] == pytest.approx(2 * math.pi / 4.0, rel=1e-15)
    assert k[-1] == pytest.approx(-2 * math.pi / 4.0, rel=1e-15)


def test_second_derivative_of_mode():
    n, length = 64, 5.0
    k = 3 * (2 * math.pi / length)
    x = np.arange(n) * (length / n)
    values = np.exp(1j * k * x)
    got = second_derivative(values, length)
    assert np.max(np.abs(got + k**2 * values)) < 1e-10


def test_second_derivative_gaussian():
    n, length = 256, 30.0
    x = np.arange(n) * (length / n) - 15.0
    f = np.exp(-(x**2))
    exact = (4 * x**2 - 2) * f
    got = second_derivative(f.astype(complex), length)
    assert np.max(np.abs(got - exact)) < 1e-8


def test_second_derivative_zeroes_nyquist():
    n, length = 16, 2.0
    coeffs = np.zeros(n, dtype=complex)
    coeffs[n // 2] = 1.0  # pure Nyquist content
    assert np.all(second_derivative_symbol(n, length) * coeffs == 0.0)


def test_pad_truncate_roundtrip():
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coeffs[32] = 0.0  # Nyquist is dropped by design
    back = truncate_coeffs(pad_coeffs(coeffs, 96), 64)
    assert np.max(np.abs(back - coeffs)) < 1e-14


def test_pad_truncate_batched():
    # batched leading axes must pad along the last axis only
    rng = np.random.default_rng(4)
    coeffs = rng.standard_normal((4, 64)) + 0j
    out = pad_coeffs(coeffs, 96)
    assert out.shape == (4, 96)
    assert truncate_coeffs(out, 64).shape == (4, 64)


def test_pad_truncate_shape_errors():
    coeffs = np.zeros(64, dtype=complex)
    with pytest.raises(ShapeError):
        pad_coeffs(coeffs, 32)
    with pytest.raises(ShapeError):
        truncate_coeffs(coeffs, 128)


def test_padded_size():
    assert padded_size(64) == 96
    assert padded_size(640) == 960


@given(seed=st.integers(0, 500))
def test_cubic_term_matches_fine_grid(seed):
    """The 3/2-rule product must equal the exact product of the band-limited
    field computed on a twice-finer grid and then truncated."""
    n = 48
    rng = np.random.default_rng(seed)
    hat = np.zeros((2, n), dtype=complex)
    keep = n // 3
    for row in hat:
        row[:keep] = rng.standard_normal(keep) + 1j * rng.standard_normal(keep)
        row[-keep:] = rng.standard_normal(keep) + 1j * rng.standard_normal(keep)

    def cubic(coeffs, grid=False):
        fine = to_fine(coeffs)
        return from_fine((-1.0 - 2.5j) * np.abs(fine) ** 2 * fine, n, grid=grid)

    got = cubic(hat[0])
    fine_vals = np.fft.ifft(pad_coeffs(hat[0], 2 * n)) * 2.0
    w = (-1.0 - 2.5j) * np.abs(fine_vals) ** 2 * fine_vals
    exact = truncate_coeffs(np.fft.fft(w), n) / 2.0
    assert np.max(np.abs(got - exact)) < 1e-10 * max(1.0, np.max(np.abs(exact)))
    assert np.max(np.abs(cubic(hat[0], grid=True) - np.fft.ifft(got))) < 1e-13
    # a batch of rows is transformed exactly as its rows one at a time
    batch = cubic(hat)
    assert np.array_equal(batch[0], got)
    assert np.array_equal(batch[1], cubic(hat[1]))


def test_parseval_norm_matches_grid_norm():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    grid = math.sqrt(2.0 * np.mean(np.abs(values) ** 2))
    assert parseval_norm(np.fft.fft(values)) == pytest.approx(grid, rel=1e-13)

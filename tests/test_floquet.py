import math

import numpy as np
import pytest

from oscillab import ModelParams, ScalingMap, gamma_onset
from oscillab.errors import CriticalForcingNotFoundError
from oscillab.floquet import (
    eval_series,
    floquet_multipliers,
    mathieu_critical,
    monodromy_critical,
)

TWO_PI = 2.0 * math.pi


def weak_onset(mu, nu):
    """The small-damping onset F0 = 4 sqrt(mu^2 + nu^2), nu = omega - 1: the
    amplitude equation's onset mapped at epsilon = 1."""
    return ScalingMap(1.0).to_forcing(gamma_onset(mu, nu))


def test_weak_onset_forcing():
    assert weak_onset(3.0, 4.0) == pytest.approx(20.0, abs=1e-14)
    assert weak_onset(-0.005, 0.02) == pytest.approx(
        0.08246211251235325, abs=1e-15)
    assert weak_onset(0.1, -0.2) == weak_onset(0.1, 0.2)


def test_eval_series_derivative():
    harmonics = np.array([-3, -1, 1, 3])
    coeffs = np.array([0.2, 0.5, 0.5, 0.2], dtype=complex)
    t = np.linspace(0.0, TWO_PI, 17)
    direct = eval_series(coeffs * (1j * harmonics), harmonics, t)
    assert np.max(np.abs(eval_series(coeffs, harmonics, t, derivative=1)
                         - direct)) < 1e-13


def test_weak_onset_frozen(weak_model):
    fp = mathieu_critical(weak_model)
    assert fp.f_c == pytest.approx(0.08207333682165939, rel=1e-9)
    # stated reference interval for these parameters
    assert 0.0815 <= fp.f_c <= 0.0826
    assert fp.mathieu_residual() < 1e-12


def test_strong_onset_frozen(strong_model):
    fp = mathieu_critical(strong_model)
    assert fp.f_c == pytest.approx(2.3332865129003815, rel=1e-9)
    assert fp.mathieu_residual() < 1e-11


# Hill onsets on the harmonics up to 2j + 1, as the scalar Mathieu balance
# gave them; criteria 05 and 06 quote 0.08165391, 0.08207334, 2.3083182 and
# 2.3332865
TRUNCATED_ONSETS = {
    ("weak_model", 0): 0.08165391056839282,
    ("weak_model", 1): 0.08207333292256937,
    ("weak_model", 16): 0.08207333682165939,
    ("strong_model", 0): 1.7201067877056677,
    ("strong_model", 1): 2.3083182042779375,
    ("strong_model", 16): 2.3332865129003815,
}


@pytest.mark.parametrize("model, j", list(TRUNCATED_ONSETS))
def test_truncated_onsets_frozen(model, j, request):
    f_c = mathieu_critical(request.getfixturevalue(model), j).f_c
    assert f_c == pytest.approx(TRUNCATED_ONSETS[model, j], rel=1e-12, abs=0)


@pytest.mark.parametrize("model", ["weak_model", "strong_model"])
def test_adjoint_scale(model, request):
    # eigenfunctions.csv writes p1_adj at unit coefficient norm, signed so
    # that it pairs positively with p1
    pairing = {"weak_model": 0.6933498693781983,
               "strong_model": 0.7591888131755383}[model]
    fp = mathieu_critical(request.getfixturevalue(model))
    norm = np.sum(np.abs(fp.p1_adj_coeffs) ** 2)
    assert norm == pytest.approx(1.0, abs=1e-12)
    assert np.vdot(fp.p1_adj_coeffs, fp.p1_coeffs).real == pytest.approx(
        pairing, rel=1e-10)


def test_two_harmonic_onset_closed_form(weak_model, strong_model):
    # on e^{+-it} alone the Hill balance is |d_1| = omega F / 2
    for p in (weak_model, strong_model):
        closed = 2.0 * abs(p.mu**2 + p.omega**2 - 1.0 - 2j * p.mu) / p.omega
        assert mathieu_critical(p, j_trunc=0).f_c == pytest.approx(
            closed, rel=1e-12)


def test_hill_agrees_with_monodromy(weak_model, strong_model):
    for p in (weak_model, strong_model):
        f_hill = mathieu_critical(p).f_c
        f_mono = monodromy_critical(p)
        assert abs(f_hill - f_mono) / f_hill < 1e-6


def test_unforced_multipliers(weak_model):
    mults = np.sort_complex(floquet_multipliers(0.0, weak_model))
    expected = np.sort_complex(np.array(
        [np.exp((weak_model.mu + 1j * weak_model.omega) * math.pi),
         np.exp((weak_model.mu - 1j * weak_model.omega) * math.pi)]))
    assert np.max(np.abs(mults - expected)) < 1e-10


def test_multiplier_minus_one_at_onset(weak_model, strong_model):
    for p in (weak_model, strong_model):
        f_c = mathieu_critical(p).f_c
        mults = floquet_multipliers(f_c, p)
        assert np.min(np.abs(mults + 1.0)) < 1e-6


def test_eigenfunction_reality_and_normalization(weak_model):
    fp = mathieu_critical(weak_model)
    t = np.linspace(0.0, TWO_PI, 39)
    raw = eval_series(fp.p1_coeffs, fp.harmonics, t)
    assert np.max(np.abs(raw.imag)) < 1e-12
    # conjugate-symmetric coefficients over the symmetric harmonic set
    assert np.max(np.abs(fp.p1_coeffs - np.conj(fp.p1_coeffs[::-1]))) < 1e-12
    assert np.sum(np.abs(fp.u_coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)
    # gauge: positive real part on the e^{it} response coefficient
    assert fp.u_coeffs[fp.harmonics.tolist().index(1)].real > 0


def test_companion_relation(weak_model):
    # (d/dt - mu) p1 = -omega q1 must hold pointwise
    fp = mathieu_critical(weak_model)
    t = np.linspace(0.0, TWO_PI, 33)
    lhs = fp.p1(t, derivative=1) - weak_model.mu * fp.p1(t)
    assert np.max(np.abs(lhs + weak_model.omega * fp.q1(t))) < 1e-12


def test_adjoint_equation_residual(strong_model):
    # adjoint operator flips the sign of the friction term
    fp = mathieu_critical(strong_model)
    t = np.linspace(0.0, TWO_PI, 65)
    res = (fp.p1_adj(t, derivative=2) + 2 * strong_model.mu * fp.p1_adj(t, derivative=1)
           + (strong_model.mu**2 + strong_model.omega**2
              + strong_model.omega * fp.f_c * np.cos(2 * t)) * fp.p1_adj(t))
    assert np.max(np.abs(res)) < 1e-10


def test_adjoint_pairing_identity(strong_model):
    # <adj, L g> == <L_adj adj, g> = 0 for any trigonometric test function
    fp = mathieu_critical(strong_model)
    p = strong_model
    n = 256
    t = TWO_PI * np.arange(n) / n
    rng = np.random.default_rng(11)
    harm = np.arange(-7, 8)
    g_coeffs = rng.standard_normal(harm.size) + 1j * rng.standard_normal(harm.size)
    g = eval_series(g_coeffs, harm, t)
    g2 = eval_series(g_coeffs, harm, t, derivative=2)
    g1 = eval_series(g_coeffs, harm, t, derivative=1)
    lg = g2 - 2 * p.mu * g1 + (p.mu**2 + p.omega**2
                               + p.omega * fp.f_c * np.cos(2 * t)) * g
    # the time average of conj(adj) L g over one period
    assert abs(np.mean(np.conj(fp.p1_adj(t)) * lg)) < 1e-10


def test_adjoint_is_time_reversed_eigenfunction(strong_model):
    fp = mathieu_critical(strong_model)
    t = np.linspace(0.0, TWO_PI, 41)
    a = fp.p1_adj(t)
    b = fp.p1(-t)
    scale = float(np.dot(a, b) / np.dot(b, b))
    assert np.max(np.abs(a - scale * b)) < 1e-9


def test_weak_limit_ratio_decreases():
    # F_c approaches the small-damping formula as epsilon shrinks
    gaps = []
    for eps in (0.2, 0.1, 0.05):
        p = ModelParams(mu=-0.5 * eps**2, omega=1.0 + 2.0 * eps**2,
                        alpha=1.0, beta=-2.0, c_re=-1.0, c_im=-2.5, f=0.0)
        f_c = mathieu_critical(p).f_c
        f_w = weak_onset(p.mu, p.omega - 1.0)
        gaps.append(abs(f_c / f_w - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_monodromy_critical_needs_bracket(weak_model):
    # with bracket growth disabled a too-small f_hi must be reported
    with pytest.raises(CriticalForcingNotFoundError):
        monodromy_critical(weak_model, f_hi=0.01, max_doublings=0)

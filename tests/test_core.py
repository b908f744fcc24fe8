import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from oscillab import (
    ComplexField,
    FcglParams,
    FcglSteadyProblem,
    ModelParams,
    ScalingMap,
    flat_states,
    gamma_onset,
    solution_norm,
)
from oscillab.errors import ParameterError

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def flat_residual(p, root, n, length):
    """Steady residual of the amplitude equation at a uniform locked state."""
    problem = FcglSteadyProblem(p, n=n, length=length)
    z = problem.pack(np.full(n, root.r * np.exp(1j * root.phi)))
    return problem.max_norm(problem.residual(z, p.gamma))


def test_gamma_onset_formula():
    assert gamma_onset(-0.5, 2.0) == pytest.approx(math.sqrt(4.25), abs=1e-15)
    assert gamma_onset(3.0, 4.0) == pytest.approx(5.0, abs=1e-15)


def test_flat_states_frozen_values(fcgl_params):
    fs = flat_states(fcgl_params)
    assert fs.gamma0 == pytest.approx(2.0615528128088303, abs=1e-12)
    assert fs.gamma_d == pytest.approx(1.2070196981508372, abs=1e-12)
    assert len(fs.roots) == 2
    assert fs.roots[0].r == pytest.approx(0.5407873905879798, abs=1e-12)
    assert fs.roots[1].r == pytest.approx(0.9741295132198139, abs=1e-12)
    assert fs.roots[0].phi == pytest.approx(0.50626694558161556, abs=1e-12)
    assert fs.roots[1].phi == pytest.approx(-0.12576056846925074, abs=1e-12)


def test_flat_states_satisfy_rhs(fcgl_params):
    # each locked state must be an equilibrium of the full right-hand side
    for root in flat_states(fcgl_params).roots:
        assert flat_residual(fcgl_params, root, 64, 20 * math.pi) < 1e-10


def test_flat_states_match_numpy_roots(fcgl_params):
    p = fcgl_params
    a = p.c_re**2 + p.c_im**2
    b = 2.0 * (p.mu * p.c_re + p.nu * p.c_im)
    c = p.mu**2 + p.nu**2 - p.gamma**2
    expected = sorted(r.real for r in np.roots([a, b, c])
                      if abs(r.imag) < 1e-12 and r.real >= 0.0)
    got = [root.r_sq for root in flat_states(p).roots]
    assert got == pytest.approx(expected, rel=1e-10)


@given(mu=st.floats(-3.0, -0.05), nu=st.floats(-3.0, 3.0),
       c_re=finite, c_im=finite, gamma=st.floats(0.0, 6.0))
# a discriminant of -5.7e-14, clipped to zero, once gave a phantom r^2 = 1
@example(mu=-1.0, nu=0.0, c_re=1.0, c_im=1.192092896e-07, gamma=0.0)
@example(mu=-1.0, nu=0.0, c_re=1.0, c_im=1.192092896e-07, gamma=1e-9)
def test_flat_state_residual_property(mu, nu, c_re, c_im, gamma):
    if c_re**2 + c_im**2 < 1e-4:
        return
    p = FcglParams(mu=mu, nu=nu, alpha=1.0, beta=-2.0,
                   c_re=c_re, c_im=c_im, gamma=gamma)
    fs = flat_states(p)
    if fs.gamma_d is not None:
        assert fs.gamma_d <= fs.gamma0 + 1e-12
    for root in fs.roots:
        if root.r_sq < 1e-10:
            continue
        scale = max(1.0, root.r + gamma)
        assert flat_residual(p, root, 8, 10.0) < 1e-8 * scale**3


def test_no_phantom_flat_state_when_unforced():
    p = FcglParams(mu=-1.0, nu=0.0, alpha=1.0, beta=-2.0,
                   c_re=1.0, c_im=1.192092896e-07, gamma=0.0)
    assert flat_states(p).roots == []
    # with nu matched to C the root is real and stays
    from dataclasses import replace
    roots = flat_states(replace(p, c_im=0.0)).roots
    assert [root.r_sq for root in roots] == [1.0, 1.0]


def test_flat_states_at_saddle_node(fcgl_params):
    from dataclasses import replace
    gamma_d = flat_states(fcgl_params).gamma_d
    p = replace(fcgl_params, gamma=gamma_d)
    fs = flat_states(p)
    assert fs.gamma_d == gamma_d
    assert len(fs.roots) == 2
    assert fs.roots[0].r_sq == pytest.approx(fs.roots[1].r_sq, rel=1e-6)
    for root in fs.roots:
        assert flat_residual(p, root, 64, 20 * math.pi) < 1e-10


def test_flat_states_above_onset_single_root(fcgl_params):
    from dataclasses import replace
    fs = flat_states(replace(fcgl_params, gamma=2.3))
    assert len(fs.roots) == 1
    assert fs.roots[0].r_sq > 0.9


def test_scaling_map_values(fcgl_params):
    mp = ScalingMap(0.1).fcgl_to_pde(fcgl_params)
    assert mp.mu == pytest.approx(-0.005, abs=1e-15)
    assert mp.omega == pytest.approx(1.02, abs=1e-15)
    assert mp.f == pytest.approx(4 * 0.01 * 1.496, abs=1e-15)
    assert (mp.alpha, mp.beta) == (1.0, -2.0)
    assert (mp.c_re, mp.c_im) == (-1.0, -2.5)


@given(eps=st.floats(0.01, 1.0), mu=st.floats(-3.0, -0.01),
       nu=st.floats(-3.0, 3.0), gamma=st.floats(0.0, 5.0))
def test_scaling_map_roundtrip(eps, mu, nu, gamma):
    p = FcglParams(mu=mu, nu=nu, alpha=1.0, beta=-2.0,
                   c_re=-1.0, c_im=-2.5, gamma=gamma)
    back = ScalingMap(eps).pde_to_fcgl(ScalingMap(eps).fcgl_to_pde(p))
    assert back.mu == pytest.approx(mu, rel=1e-12, abs=1e-12)
    assert back.nu == pytest.approx(nu, rel=1e-9, abs=1e-9)
    assert back.gamma == pytest.approx(gamma, rel=1e-12, abs=1e-12)


def test_scaling_map_identity_at_unit_epsilon(fcgl_params):
    mp = ScalingMap(1.0).fcgl_to_pde(fcgl_params)
    assert mp.mu == fcgl_params.mu
    assert mp.omega == 1.0 + fcgl_params.nu


def test_dispersion(weak_model):
    # the symbol is the linear growth rate sigma(k) of the unforced zero state
    assert weak_model.symbol(np.array(0.0)) == pytest.approx(-0.005 + 1.02j)
    ks = np.linspace(0.0, 3.0, 40)
    re = weak_model.symbol(ks).real
    assert np.all(np.diff(re) < 0)  # alpha > 0 damps high wavenumbers


def test_solution_norm_flat():
    field = ComplexField(10.0, np.full(32, 0.5 * np.exp(0.3j)))
    assert solution_norm(field) == pytest.approx(math.sqrt(2) * 0.5, abs=1e-14)


def test_solution_norm_sech_quadrature():
    # compare the rms-style norm against direct trapezoid quadrature
    n, length = 512, 60.0
    x = np.arange(n) * (length / n)
    vals = 0.7 / np.cosh(0.3 * (x - length / 2))
    field = ComplexField(length, vals.astype(complex))
    direct = math.sqrt(2.0 * np.sum(np.abs(vals) ** 2) * (length / n) / length)
    assert solution_norm(field) == pytest.approx(direct, rel=1e-12)


@given(shift=st.integers(0, 63), phase=st.floats(0.0, 2 * math.pi))
def test_solution_norm_invariances(shift, phase):
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    base = solution_norm(ComplexField(8.0, vals))
    moved = solution_norm(ComplexField(8.0, np.roll(vals, shift)
                                       * np.exp(1j * phase)))
    assert moved == pytest.approx(base, rel=1e-12)


def test_parameter_validation():
    with pytest.raises(ParameterError):
        ModelParams(mu=-0.1, omega=1.0, alpha=0.0, beta=0.0,
                    c_re=-1.0, c_im=0.0, f=0.1)
    with pytest.raises(ParameterError):
        ModelParams(mu=-0.1, omega=1.0, alpha=1.0, beta=0.0,
                    c_re=-1.0, c_im=0.0, f=-0.1)
    with pytest.raises(ParameterError):
        FcglParams(mu=-0.1, nu=1.0, alpha=1.0, beta=0.0,
                   c_re=-1.0, c_im=0.0, gamma=-0.5)
    with pytest.raises(ParameterError):
        ScalingMap(0.0)

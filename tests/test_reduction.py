import math
from dataclasses import replace

import numpy as np
import pytest

from oscillab import FcglParams, ModelParams
from oscillab.errors import (
    DegenerateReductionError,
    ExistenceError,
    SingularReductionError,
)
from oscillab.floquet import FloquetPair, mathieu_critical
from oscillab.reduction import (
    onset_phase,
    strong_ac_coeffs,
    strong_sech_pde,
    weak_ac_coeffs,
    weak_sech_fcgl,
    weak_sech_pde,
)


def test_onset_phase_frozen():
    phi = onset_phase(-0.5, 2.0)
    assert phi == pytest.approx(0.6629088318340163, abs=1e-12)
    # defining relation: exp(-2 i phi) = -(mu + i nu)/sqrt(mu^2 + nu^2)
    lhs = np.exp(-2j * phi)
    rhs = -(-0.5 + 2.0j) / math.sqrt(4.25)
    assert abs(lhs - rhs) < 1e-12


def test_onset_phase_singular():
    with pytest.raises(SingularReductionError):
        onset_phase(0.0, 0.0)


def test_weak_coeffs_closed_form(fcgl_params):
    ac = weak_ac_coeffs(fcgl_params)
    assert ac.lin == pytest.approx(math.sqrt(17.0), abs=1e-12)  # -gamma0/mu
    assert ac.diff == pytest.approx(9.0, abs=1e-12)
    assert ac.cub == pytest.approx(9.0, abs=1e-12)
    assert ac.phi == pytest.approx(0.6629088318340163, abs=1e-12)


def test_weak_coeffs_singular_at_zero_mu(fcgl_params):
    with pytest.raises(SingularReductionError):
        weak_ac_coeffs(replace(fcgl_params, mu=0.0))


def test_weak_sech_frozen(fcgl_params):
    prof = weak_sech_fcgl(fcgl_params, 2.0)
    assert prof.amp == pytest.approx(0.23748157765495037, abs=1e-12)
    assert prof.inv_width == pytest.approx(0.16792483396669508, abs=1e-12)
    assert np.angle(prof.carrier(0.0)) == pytest.approx(0.6629088318340163,
                                                       abs=1e-12)


def test_weak_sech_square_root_scaling(fcgl_params):
    g0 = math.sqrt(4.25)
    gammas = np.array([2.05, 2.0, 1.9, 1.7, 1.5])
    ratios = [weak_sech_fcgl(fcgl_params, g).amp ** 2 / (g0 - g)
              for g in gammas]
    assert np.ptp(ratios) < 1e-10 * max(ratios)
    assert weak_sech_fcgl(fcgl_params, g0).amp == 0.0


def test_weak_sech_existence(fcgl_params):
    with pytest.raises(ExistenceError, match="gamma <= gamma0"):
        weak_sech_fcgl(fcgl_params, 2.2)
    supercrit = replace(fcgl_params, c_re=1.0, c_im=2.5)
    with pytest.raises(ExistenceError, match="cub > 0"):
        weak_sech_fcgl(supercrit, 1.9)


def test_weak_sech_pde_matches_rescaled_fcgl(fcgl_params, weak_model):
    """U = eps * A(eps x) e^{i(t + pi/4)} with A the amplitude-equation pulse
    at gamma = F/(4 eps^2)."""
    eps = 0.1
    hat = weak_sech_fcgl(replace(fcgl_params, gamma=0.058 / (4 * eps**2)),
                         0.058 / (4 * eps**2))
    prof = weak_sech_pde(weak_model)
    assert prof.amp == pytest.approx(eps * hat.amp, rel=1e-12)
    assert prof.inv_width == pytest.approx(eps * hat.inv_width, rel=1e-12)
    # the seed carries the locked direction of the slow envelope itself
    assert np.angle(prof.carrier(0.0)) == pytest.approx(
        np.angle(hat.carrier(0.0)), rel=1e-12)
    x = np.array([0.0, 3.0])
    v0 = prof.values(x, t=0.0)
    v1 = prof.values(x, t=0.7)
    # rigid phase rotation at the subharmonic frequency
    assert np.max(np.abs(v1 - v0 * np.exp(0.7j))) < 1e-14


@pytest.mark.parametrize("model", ["weak_model", "strong_model"])
def test_strong_coeffs_frozen(model, request):
    lin, diff, cub = {
        "weak_model": (0.0849659445710343, 8.958773031950138,
                       8.948979997120846),
        "strong_model": (1.3839246489057908, 9.953480557445477,
                         11.451614915573023),
    }[model]
    p = request.getfixturevalue(model)
    ac = strong_ac_coeffs(mathieu_critical(p), p)
    assert ac.lin == pytest.approx(lin, rel=1e-10)
    assert ac.diff == pytest.approx(diff, rel=1e-10)
    assert ac.cub == pytest.approx(cub, rel=1e-10)


def test_strong_coeffs_approach_weak_limit():
    """lin/(eps^2 lin_w gamma0), diff/diff_w, cub/cub_w all tend to one."""
    hat = FcglParams(mu=-0.5, nu=2.0, alpha=1.0, beta=-2.0,
                     c_re=-1.0, c_im=-2.5, gamma=0.0)
    weak = weak_ac_coeffs(hat)
    g0 = math.sqrt(4.25)
    prev = None
    for eps in (0.2, 0.1):
        p = ModelParams(mu=-0.5 * eps**2, omega=1.0 + 2.0 * eps**2,
                        alpha=1.0, beta=-2.0, c_re=-1.0, c_im=-2.5, f=0.0)
        ac = strong_ac_coeffs(mathieu_critical(p), p)
        dev = max(abs(ac.lin / (eps**2 * weak.lin * g0) - 1.0),
                  abs(ac.diff / weak.diff - 1.0),
                  abs(ac.cub / weak.cub - 1.0))
        if prev is not None:
            assert dev < prev
        prev = dev
    assert prev < 0.02


def test_strong_sech_identities(strong_model):
    fp = mathieu_critical(strong_model)
    ac = strong_ac_coeffs(fp, strong_model)
    prof = strong_sech_pde(ac, fp, 2.30)
    lam = 2.30 / fp.f_c - 1.0
    assert prof.amp**2 * ac.cub == pytest.approx(-2.0 * ac.lin * lam, rel=1e-12)
    assert prof.inv_width**2 * ac.diff == pytest.approx(-ac.lin * lam, rel=1e-12)
    # the profile is subharmonic: one forcing period flips the sign
    v0 = prof.values(np.array([0.5]), t=0.3)
    v_pi = prof.values(np.array([0.5]), t=0.3 + math.pi)
    v_2pi = prof.values(np.array([0.5]), t=0.3 + 2 * math.pi)
    assert abs(v_pi + v0) < 1e-12
    assert abs(v_2pi - v0) < 1e-12


def test_strong_sech_existence(strong_model):
    fp = mathieu_critical(strong_model)
    ac = strong_ac_coeffs(fp, strong_model)
    with pytest.raises(ExistenceError):
        strong_sech_pde(ac, fp, 1.05 * fp.f_c)
    assert strong_sech_pde(ac, fp, fp.f_c).amp == 0.0
    # within the stated 1e-14 above onset the pulse is the onset limit
    assert strong_sech_pde(ac, fp, fp.f_c * (1.0 + 2e-15)).amp == 0.0


def test_strong_reduction_mass_guard():
    # an adjoint orthogonal to 2(d/dt - mu)p1 has no solvability mass
    harmonics = np.array([-1, 1])
    coeffs = np.array([0.5, 0.5], dtype=complex)  # cos t
    fake = FloquetPair(f_c=1.0, mu=0.0, omega=1.0, harmonics=harmonics,
                       p1_coeffs=coeffs, p1_adj_coeffs=coeffs)
    p = ModelParams(mu=-0.1, omega=1.0, alpha=1.0, beta=0.0,
                    c_re=-1.0, c_im=0.0, f=0.0)
    with pytest.raises(DegenerateReductionError):
        strong_ac_coeffs(fake, p)


def test_weak_response_phase(weak_model):
    fp = mathieu_critical(weak_model)
    # the phase of the e^{i t} component of the response p1 + i q1
    phase = float(np.angle(fp.u_coeffs[fp.harmonics == 1][0]))
    assert phase == pytest.approx(1.4476911515870174, abs=1e-9)
    # the locked phase tends to phi1 + pi/4 in the weak limit
    assert abs(phase - (0.6629088318340163 + math.pi / 4)) < 0.01

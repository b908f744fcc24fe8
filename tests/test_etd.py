import math
from dataclasses import replace

import numpy as np
import pytest

from oscillab import FcglParams, flat_states, make_stepper
from oscillab.errors import BlowUpError, ParameterError
from oscillab.etd import Etd2Stepper, etd2_weights, make_scheme, run_to_steady
from oscillab.fields import ComplexField


def test_weights_reduce_to_adams_bashforth():
    # ell -> 0 must recover u_{n+1} = u_n + dt*(3/2 N_n - 1/2 N_{n-1})
    g1, g0, ge = etd2_weights(np.array([0.0]))
    assert g1[0] == pytest.approx(1.5, abs=1e-12)
    assert g0[0] == pytest.approx(-0.5, abs=1e-12)
    assert ge[0] == pytest.approx(1.0, abs=1e-12)


def test_weights_continuous_across_crossover():
    # contour averaging below |z|=0.5 must join the direct formula smoothly
    for z in (0.5 + 0j, 0.5j, -0.35 + 0.357j):
        lo = np.asarray([z * (1 - 1e-9)])
        hi = np.asarray([z * (1 + 1e-9)])
        for a, b in zip(etd2_weights(lo), etd2_weights(hi)):
            assert abs(a[0] - b[0]) < 1e-8


def test_weights_match_series_small_z():
    # g1 = 3/2 + 2z/3 + ..., g0 = -1/2 - z/6 - ... near the origin
    z = np.array([1e-3 + 2e-3j])
    g1, g0, ge = etd2_weights(z)
    assert g1[0] == pytest.approx(1.5 + 2 * z[0] / 3, abs=1e-5)
    assert g0[0] == pytest.approx(-0.5 - z[0] / 6, abs=1e-5)
    assert ge[0] == pytest.approx(1.0 + z[0] / 2, abs=1e-5)


def test_linear_exactness():
    ell = np.array([-1.0 + 0.7j, 0.2 - 2.0j])
    scheme = make_scheme(ell, 0.1)
    stepper = Etd2Stepper(scheme, lambda u, t: np.zeros_like(u),
                          np.array([1.0 + 0j, 2.0 - 1.0j]))
    stepper.run(50)
    exact = np.array([1.0 + 0j, 2.0 - 1.0j]) * np.exp(ell * 5.0)
    assert np.max(np.abs(stepper.u - exact)) < 1e-12


def test_decay_to_e_inverse():
    scheme = make_scheme(np.array([-1.0 + 0j]), 0.25)
    stepper = Etd2Stepper(scheme, lambda u, t: np.zeros_like(u),
                          np.array([1.0 + 0j]))
    stepper.run(4)
    assert stepper.u[0] == pytest.approx(math.exp(-1.0), rel=1e-14)


def test_second_order_on_scalar_cubic():
    # u' = u - u^3 with the linear part treated exactly
    def nonlinear(u, t):
        return -u**3

    def final(dt):
        scheme = make_scheme(np.array([1.0 + 0j]), dt)
        st = Etd2Stepper(scheme, nonlinear, np.array([0.1 + 0j]))
        st.run(int(round(2.0 / dt)))
        return st.u[0]

    ref = final(1e-5)
    dts = np.array([0.02, 0.01, 0.005, 0.0025])
    errs = np.array([abs(final(dt) - ref) for dt in dts])
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 1.9 < slope < 2.1


def test_flat_state_is_fixed_point(fcgl_params):
    # w_new + w_old equals the Euler weight, so equilibria do not drift
    root = flat_states(fcgl_params).roots[-1]
    field = ComplexField(20 * math.pi,
                         np.full(64, root.r * np.exp(1j * root.phi)))
    stepper = make_stepper(field, fcgl_params, dt=1e-3)
    u0 = stepper.u.copy()
    stepper.run(100)
    assert np.max(np.abs(stepper.u - u0)) < 1e-8 * np.max(np.abs(u0))


def test_time_property_and_observer():
    scheme = make_scheme(np.array([-1.0 + 0j]), 0.5)
    stepper = Etd2Stepper(scheme, lambda u, t: np.zeros_like(u),
                          np.array([1.0 + 0j]), t0=2.0)
    seen = []
    stepper.run(10, observer=lambda s: seen.append(s.t), stride=3)
    assert stepper.t == pytest.approx(7.0)
    assert seen == pytest.approx([3.5, 5.0, 6.5])


def test_zero_field_stays_zero_under_forcing(weak_model):
    field = ComplexField(20 * math.pi, np.zeros(64, dtype=complex))
    stepper = make_stepper(field, weak_model, dt=2 * math.pi / 100)
    stepper.run(300)
    assert stepper.norm == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blowup_detected():
    p = FcglParams(mu=1.0, nu=0.0, alpha=1.0, beta=0.0,
                   c_re=1.0, c_im=0.0, gamma=0.0)  # focusing cubic
    field = ComplexField(10.0, np.full(32, 1.0 + 0j))
    stepper = make_stepper(field, p, dt=0.1)
    with pytest.raises(BlowUpError) as err:
        stepper.run(2000)
    # the stepper stays at the last finite state
    assert err.value.rows == [0]
    assert stepper.steps == err.value.step - 1
    assert np.all(np.isfinite(stepper.u))
    assert math.isfinite(stepper.norm)


def test_run_to_steady_converges(fcgl_params):
    root = flat_states(fcgl_params).roots[-1]
    vals = np.full(64, 0.9 * root.r * np.exp(1j * root.phi))
    stepper = make_stepper(ComplexField(20 * math.pi, vals),
                           fcgl_params, dt=0.01)
    converged, periods, diffs = run_to_steady(stepper, 1.0, tol=1e-10,
                                              max_periods=2000)
    assert converged
    assert diffs[-1] < 1e-10
    assert len(diffs) == periods


def test_run_to_steady_rejects_bad_period(fcgl_params):
    field = ComplexField(20 * math.pi, np.zeros(16, dtype=complex))
    stepper = make_stepper(field, fcgl_params, dt=0.3)
    with pytest.raises(ParameterError):
        run_to_steady(stepper, 1.0)


def test_make_scheme_rejects_bad_dt():
    with pytest.raises(ParameterError):
        make_scheme(np.array([1.0 + 0j]), 0.0)


@pytest.mark.parametrize("system", ["fcgl", "model"])
def test_stacked_rows_step_as_alone(fcgl_params, weak_model, system):
    # each row has its own symbol and drive, and must match its lone run
    if system == "fcgl":
        ps = [fcgl_params, replace(fcgl_params, nu=0.5, gamma=1.2)]
        dt = 0.05
    else:
        ps = [weak_model, replace(weak_model, omega=1.05, f=0.09)]
        dt = 2 * math.pi / 100
    x = np.arange(64) * (20 * math.pi / 64)
    fields = [ComplexField(20 * math.pi, a / np.cosh(x - 10 * math.pi) + 0j)
              for a in (0.8, 1.1)]
    stack = make_stepper(fields, ps, dt)
    stack.run(200)
    assert stack.u.shape == (2, 64)
    for row, field, p in zip(stack.u, fields, ps):
        alone = make_stepper(field, p, dt)
        alone.run(200)
        assert np.array_equal(row, alone.u)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_blowup_names_its_rows():
    focusing = FcglParams(mu=1.0, nu=0.0, alpha=1.0, beta=0.0,
                          c_re=1.0, c_im=0.0, gamma=0.0)
    decaying = replace(focusing, mu=-1.0)
    field = ComplexField(10.0, np.full(32, 1.0 + 0j))
    small = ComplexField(10.0, np.full(32, 0.1 + 0j))
    stepper = make_stepper([small, field], [decaying, focusing], dt=0.1)
    with pytest.raises(BlowUpError) as err:
        stepper.run(2000)
    assert err.value.rows == [1]
    assert stepper.steps == err.value.step - 1
    assert np.all(np.isfinite(stepper.u))


def test_stacked_rows_must_share_c(fcgl_params):
    field = ComplexField(10.0, np.zeros(32, dtype=complex))
    with pytest.raises(ParameterError):
        make_stepper([field, field],
                     [fcgl_params, replace(fcgl_params, c_im=0.5)], dt=0.1)

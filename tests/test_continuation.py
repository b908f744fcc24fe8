import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg

from oscillab import FcglParams, flat_states, make_stepper
from oscillab import continuation as ct
from oscillab.errors import (DivergenceError, ParameterError,
                             StalledBranchError)
from oscillab.fields import ComplexField
from oscillab.floquet import mathieu_critical
from oscillab.reduction import weak_sech_fcgl, weak_sech_pde

LENGTH = 20 * math.pi


def flat_field(p, n=128, length=LENGTH, which=-1, scale=1.0):
    root = flat_states(p).roots[which]
    return ComplexField(length,
                        np.full(n, scale * root.r * np.exp(1j * root.phi)))


def test_reflect_is_involution():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 16)) + 1j * rng.standard_normal((3, 16))
    assert np.array_equal(ct.reflect(ct.reflect(a)), a)


def test_reflect_fixes_even_profiles():
    n = 64
    x = np.arange(n) * (LENGTH / n)
    vals = np.exp(-((x - LENGTH / 2) ** 2)) + 0j
    assert np.max(np.abs(ct.reflect(vals) - vals)) < 1e-12


def test_fcgl_residual_vanishes_on_flat_state(fcgl_params):
    prob = ct.FcglSteadyProblem(fcgl_params, n=64, length=LENGTH)
    z = prob.pack(flat_field(fcgl_params, 64).values)
    assert np.max(np.abs(prob.residual(z, fcgl_params.gamma))) < 1e-12


@pytest.mark.parametrize("which", [0, -1])
def test_newton_recovers_flat_roots(fcgl_params, which):
    state = ct.newton_fcgl(flat_field(fcgl_params, 64, which=which,
                                      scale=1.02),
                           fcgl_params.gamma, fcgl_params)
    root = flat_states(fcgl_params).roots[which]
    assert state.residual_norm < 1e-10
    assert np.max(np.abs(state.field.values)) == pytest.approx(root.r,
                                                               rel=1e-8)


def test_newton_zero_to_zero(fcgl_params):
    seed = ComplexField(LENGTH, np.zeros(64, dtype=complex))
    state = ct.newton_fcgl(seed, 1.9, fcgl_params)
    assert np.max(np.abs(state.field.values)) < 1e-12


def test_newton_from_sech_seed(fcgl_params):
    # near-onset seed converges to a symmetric localized state
    p = replace(fcgl_params, gamma=1.95)
    seed = weak_sech_fcgl(p, 1.95, center=LENGTH / 2).as_field(256, LENGTH)
    state = ct.newton_fcgl(seed, 1.95, p)
    assert state.residual_norm < 1e-10
    assert state.iterations <= 8
    mags = np.abs(state.field.values)
    assert mags.max() > 0.05
    edge = max(mags[:32].max(), mags[-32:].max())
    assert edge < 0.05 * mags.max()
    sym_gap = np.abs(state.field.values - ct.reflect(state.field.values))
    assert np.max(sym_gap) < 1e-9


def test_newton_divergence(fcgl_params):
    # a huge seed far from any basin must fail loudly, not silently
    seed = ComplexField(LENGTH, np.full(64, 50.0 + 50.0j))
    with pytest.raises(DivergenceError):
        ct.newton_fcgl(seed, 1.496, fcgl_params, max_iter=4)


def finite_difference_check(problem, z, param, rng):
    dz = rng.standard_normal(z.size)
    dz /= np.linalg.norm(dz)
    h = 1e-6
    fd = (problem.residual(z + h * dz, param)
          - problem.residual(z - h * dz, param)) / (2 * h)
    jd = problem.jacobian(z, param)(dz)
    assert np.linalg.norm(fd - jd) < 1e-5 * max(1.0, np.linalg.norm(jd))
    hp = 1e-7
    fdp = (problem.residual(z, param + hp)
           - problem.residual(z, param - hp)) / (2 * hp)
    assert np.linalg.norm(fdp - problem.dparam(z, param)) < 1e-6


def test_fcgl_jacobian_matches_finite_differences(fcgl_params):
    rng = np.random.default_rng(5)
    prob = ct.FcglSteadyProblem(fcgl_params, n=48, length=LENGTH)
    z = prob.pack(0.3 * (rng.standard_normal(48)
                         + 1j * rng.standard_normal(48)))
    finite_difference_check(prob, z, fcgl_params.gamma, rng)


def test_pde_jacobian_matches_finite_differences(weak_model):
    rng = np.random.default_rng(6)
    prob = ct.PdeHarmonicProblem(weak_model, n=32, length=LENGTH)
    profiles = 0.1 * (rng.standard_normal((4, 32))
                      + 1j * rng.standard_normal((4, 32)))
    finite_difference_check(prob, prob.pack(profiles), weak_model.f, rng)


def test_newton_pde_polishes_on_seven_harmonics(strong_model):
    # +-7 needs more collocation times than the default harmonics do
    fp = mathieu_critical(strong_model)
    harmonics = np.arange(-7, 8, 2)
    f = 0.99 * fp.f_c
    carrier = fp.u_coeffs[np.isin(fp.harmonics, harmonics)]
    seed = ct.HarmonicPdeState(length=LENGTH, harmonics=harmonics,
                               profiles=np.outer(0.04 * carrier, np.ones(8)),
                               f=f)
    state = ct.newton_pde(seed, f, strong_model)
    assert state.residual_norm < 1e-10
    assert list(state.harmonics) == list(harmonics)
    assert state.norm > 0.01


def test_project_snapshots_recovers_harmonics():
    harmonics = (-3, -1, 1, 3)
    n, length = 32, 10.0
    rng = np.random.default_rng(9)
    profiles = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    times = 2 * math.pi * np.arange(16) / 16
    fields = [ComplexField(length,
                           sum(profiles[k] * np.exp(1j * harmonics[k] * t)
                               for k in range(4)))
              for t in times]
    state = ct.project_snapshots(fields, times, harmonics, f=0.5)
    assert np.max(np.abs(state.profiles - profiles)) < 1e-12
    assert state.f == 0.5


def test_timestepper_harmonics_then_newton(weak_model):
    """Projecting a converged simulation and polishing with Newton must agree
    with the simulation itself."""
    n, length = 640, 200 * math.pi
    seed = weak_sech_pde(weak_model, center=length / 2).as_field(
        n, length, t=0.0)
    stepper = make_stepper(seed, weak_model, 2 * math.pi / 208)
    from oscillab.etd import run_to_steady
    run_to_steady(stepper, 2 * math.pi, tol=1e-7, max_periods=400)
    projected = ct.timestepper_harmonics(stepper, weak_model.f)
    state = ct.newton_pde(projected, weak_model.f, weak_model)
    assert state.residual_norm < 1e-10
    assert state.norm == pytest.approx(projected.norm, rel=1e-3)
    # agreement is limited by the truncated harmonic content (|m| <= 3)
    recon = state.reconstruct(stepper.t)
    gap = np.max(np.abs(recon.values - stepper.field.values))
    assert gap < 5e-3 * np.max(np.abs(stepper.field.values))


def test_flat_branch_fold_near_reference(fcgl_params):
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64).values)
    controls = ct.ContinuationControls(param_min=1.15, param_max=1.9,
                                       max_points=120)
    branch = ct.continue_branch(prob, z, 1.6, direction=-1, controls=controls)
    assert branch.folds, "no fold found on the flat branch"
    assert min(branch.folds) == pytest.approx(1.2070196981508372, rel=2e-3)


def test_branch_bookkeeping(fcgl_params):
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64).values)
    controls = ct.ContinuationControls(param_min=1.5, param_max=1.75,
                                       max_points=40)
    back = ct.continue_branch(prob, z, 1.6, -1, controls)
    fwd = ct.continue_branch(prob, z, 1.6, +1, controls)
    merged = ct.merge_branches(back, fwd)
    assert [pt.index for pt in merged.points] == list(range(len(merged.points)))
    arcs = [pt.arclength for pt in merged.points]
    assert all(b > a for a, b in zip(arcs, arcs[1:]))
    assert len(merged.points) == len(back.points) + len(fwd.points) - 1


def test_stalled_branch_carries_partial_result(fcgl_params):
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64).values)
    # no corrector iterations: every step fails and the step size collapses
    controls = ct.ContinuationControls(ds_min=1e-3, max_corrector=0,
                                       max_points=40)
    with pytest.raises(StalledBranchError) as err:
        ct.continue_branch(prob, z, 1.6, -1, controls)
    assert len(err.value.branch.points) >= 1


def test_overlay_of_identical_branches_is_zero(fcgl_params):
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64).values)
    controls = ct.ContinuationControls(param_min=1.4, param_max=1.8,
                                       max_points=40)
    branch = ct.continue_branch(prob, z, 1.6, -1, controls)
    diff = ct.branch_overlay_max_diff(branch, branch)
    assert diff == pytest.approx(0.0, abs=1e-12)
    scaled = ct.branch_overlay_max_diff(
        branch, branch, norm_map=lambda n: 1.03 * n)
    assert scaled == pytest.approx(0.03, rel=0.05)


def test_classify_zero_state_across_onset(fcgl_params):
    prob = ct.FcglSteadyProblem(fcgl_params, n=96, length=LENGTH)
    z = np.zeros(prob.size)
    assert ct.classify_stability_fcgl(prob, z, 1.9) == "stable"
    assert ct.classify_stability_fcgl(prob, z, 2.2) == "unstable"


def test_classify_flat_roots(fcgl_params):
    p = replace(fcgl_params, gamma=1.7)
    prob = ct.FcglSteadyProblem(p, n=96, length=LENGTH)
    for which, expected in [(-1, "stable"), (0, "unstable")]:
        z = prob.pack(flat_field(p, 96, which=which).values)
        z, _, _ = ct.newton_solve(prob, z, 1.7)
        assert ct.classify_stability_fcgl(prob, z, 1.7) == expected


@pytest.mark.parametrize("n", [96, 512])
@pytest.mark.parametrize("gamma", [1.9, 2.1, 2.2])
def test_leading_rate_of_zero_state_closed_form(fcgl_params, n, gamma):
    # About A = 0, mode k couples only to the conjugate of mode -k, so the
    # rates are Re(s_k) +- Re sqrt(gamma^2 - Im(s_k)^2) over the symbol s_k.
    # gamma = nu = 2 is avoided: the k = 0 pair is a Jordan block there.
    prob = ct.FcglSteadyProblem(fcgl_params, n=n, length=LENGTH)
    s = prob.symbol
    root = np.sqrt(gamma**2 - s.imag**2 + 0j).real
    exact = np.sort(np.concatenate([s.real + root, s.real - root]))[::-1]
    rates = ct.leading_rates_fcgl(prob, np.zeros(prob.size), gamma)
    assert rates[0] == pytest.approx(exact[0], abs=1e-10)
    assert np.all(np.abs(rates - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact)))


def test_rates_refuse_asymmetric_state(fcgl_params):
    prob = ct.FcglSteadyProblem(fcgl_params, n=64, length=LENGTH)
    z = np.zeros(prob.size)
    z[3] = 1e-3
    with pytest.raises(ParameterError, match="reflection"):
        ct.leading_rates_fcgl(prob, z, 1.9)


def test_classify_nan_state_is_indeterminate(fcgl_params):
    prob = ct.FcglSteadyProblem(fcgl_params, n=64, length=LENGTH)
    z = np.zeros(prob.size)
    z[0] = np.nan
    label = ct.classify_stability_fcgl(prob, z, 1.9)
    assert label == "indeterminate"
    assert math.isnan(label.rate)


def test_classify_propagates_unexpected_errors(fcgl_params, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not a numerical failure")
    monkeypatch.setattr(ct, "leading_rates_fcgl", broken)
    prob = ct.FcglSteadyProblem(fcgl_params, n=64, length=LENGTH)
    with pytest.raises(RuntimeError, match="not a numerical failure"):
        ct.classify_stability_fcgl(prob, np.zeros(prob.size), 1.9)


def test_stable_localized_state_reports_its_margin(fcgl_params):
    # a pulse on the upper flat state converges to a stable localized state
    p = replace(fcgl_params, gamma=1.46)
    n = 128
    prob = ct.FcglSteadyProblem(p, n=n, length=LENGTH)
    root = flat_states(p).roots[-1]
    x = np.arange(n) * (LENGTH / n)
    seed = root.r * np.exp(1j * root.phi) / np.cosh(0.5 * (x - LENGTH / 2))
    z, _, _ = ct.newton_solve(prob, prob.pack(seed), 1.46)
    rates = ct.leading_rates_fcgl(prob, z, 1.46)
    # the neutral translation mode is still in the full spectrum ...
    assert np.min(np.abs(rates)) < 1e-9
    # ... but the label and its rate come from the least stable other mode
    label = ct.classify_stability_fcgl(prob, z, 1.46)
    assert label == "stable"
    assert label.rate < -1e-3


def test_newton_surfaces_matvec_errors(fcgl_params):
    class BrokenJacobian(ct.FcglSteadyProblem):
        def jacobian(self, z, gamma):
            def matvec(dz):
                raise TypeError("boom")
            return scipy.sparse.linalg.LinearOperator(
                (self.size, self.size), matvec=matvec, dtype=float)

    prob = BrokenJacobian(fcgl_params, n=64, length=LENGTH)
    z = prob.pack(flat_field(fcgl_params, 64, scale=1.1).values)
    with pytest.raises(TypeError, match="boom"):
        ct.newton_solve(prob, z, fcgl_params.gamma)


def test_stepper_and_newton_share_one_system(fcgl_params):
    # the ETD right-hand side, symbol * a_hat + N(a_hat), must vanish at a
    # state the Newton solver converged
    p = replace(fcgl_params, gamma=1.95)
    n = 128
    prob = ct.FcglSteadyProblem(p, n=n, length=LENGTH)
    seed = weak_sech_fcgl(p, 1.95, center=LENGTH / 2).as_field(n, LENGTH)
    z, _, _ = ct.newton_solve(prob, prob.pack(seed.values), 1.95)
    stepper = make_stepper(prob.state_of(z, 1.95), p, 0.01)
    a_hat = stepper.u
    rhs = stepper.scheme.ell * a_hat + stepper.nonlinear(a_hat, 0.0)
    assert np.max(np.abs(np.fft.ifft(rhs))) < 1e-10
    # so the state is a fixed point of the ETD2 map as well
    stepper.run(100)
    assert np.max(np.abs(stepper.u - a_hat)) < 1e-9 * np.max(np.abs(a_hat))


def test_steady_residuals_are_the_stepper_right_hand_side(fcgl_params,
                                                          weak_model):
    # both residuals are the stepper's ell*u + N(u), Nyquist mode included:
    # the FCGL one as it stands, the harmonic one projected onto e^{ijt} over
    # the collocation times and less the time derivative i j U_j
    n, m = 48, 16
    rng = np.random.default_rng(11)

    def rhs(values, p, t):
        st = make_stepper(ComplexField(LENGTH, values), p, 0.01, t0=t)
        return np.fft.ifft(st.scheme.ell * st.u + st.nonlinear(st.u, st.t))

    def assert_close(got, expected):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) < 1e-12 * scale

    a = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    assert abs(np.fft.fft(a)[n // 2]) > 0.1
    prob = ct.FcglSteadyProblem(fcgl_params, n=n, length=LENGTH)
    assert_close(prob.unpack(prob.residual(prob.pack(a), fcgl_params.gamma)),
                 rhs(a, fcgl_params, 0.0))

    prob = ct.PdeHarmonicProblem(weak_model, n=n, length=LENGTH, n_colloc=m)
    j = prob.harmonics[:, None]
    profiles = 0.1 * (rng.standard_normal((j.size, n))
                      + 1j * rng.standard_normal((j.size, n)))
    times = 2 * math.pi * np.arange(m) / m
    stack = np.array([rhs(np.exp(1j * j[:, 0] * t) @ profiles, weak_model, t)
                      for t in times])
    projected = np.exp(-1j * j * times) @ stack / m
    assert_close(prob.unpack(prob.residual(prob.pack(profiles), weak_model.f)),
                 projected - 1j * j * profiles)


# ---- the Krylov kernel ----

def scipy_gmres(matvec, b, psolve, rtol):
    """The oracle: scipy's gmres on the same system, with the kernel's
    restart and cycle count; returns (x, info, matvecs)."""
    def counted(v):
        counted.n += 1
        return matvec(v)
    counted.n = 0

    def op(fn):
        return scipy.sparse.linalg.LinearOperator((b.size, b.size), matvec=fn,
                                                  dtype=float)
    x, info = scipy.sparse.linalg.gmres(op(counted), b, rtol=rtol, atol=0.0,
                                        restart=ct.GMRES_RESTART,
                                        maxiter=ct.GMRES_CYCLES,
                                        M=op(psolve))
    return x, info, counted.n


def preconditioned_system(n, seed, rho):
    """A = D (I + rho Q), Q a random rotation: non-symmetric, and after the
    diagonal preconditioner GMRES shrinks the residual by about rho a step."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    diag = np.linspace(1.0, 40.0, n)
    a = diag[:, None] * (np.eye(n) + rho * q)
    return a, rng.standard_normal(n), lambda v: v / diag


@pytest.mark.parametrize("rho, rtol", [(0.9, 1e-5), (0.95, 1e-5),
                                       (0.95, 1e-8)])
def test_gmres_matches_dense_solve_across_restarts(rho, rtol):
    # 0.95^150 > 1e-5: one cycle of GMRES_RESTART vectors does not converge
    a, b, psolve = preconditioned_system(400, 12, rho)
    x, info, matvecs = ct._gmres(lambda v: a @ v, b, psolve, rtol)
    assert info == 0
    assert (matvecs > ct.GMRES_RESTART + 1) == (rho == 0.95)
    assert np.linalg.norm(b - a @ x) <= rtol * np.linalg.norm(b)
    exact = np.linalg.solve(a, b)
    cond = np.linalg.cond(a)
    assert np.linalg.norm(x - exact) <= cond * rtol * np.linalg.norm(exact)
    # scipy's gmres with the same restart takes the same steps
    x_sp, info_sp, matvecs_sp = scipy_gmres(lambda v: a @ v, b, psolve, rtol)
    assert info_sp == 0
    assert abs(matvecs - matvecs_sp) <= 2
    assert np.linalg.norm(x - x_sp) <= rtol * np.linalg.norm(x_sp)


def test_gmres_breaks_down_exactly_on_an_eigenvector():
    rng = np.random.default_rng(3)
    a = np.triu(rng.standard_normal((50, 50))) + 5.0 * np.eye(50)
    diag = np.diag(a).copy()
    b = np.zeros(50)
    b[0] = 2.0                                  # a e_0 = a[0, 0] e_0
    x, info, matvecs = ct._gmres(lambda v: a @ v, b, lambda v: v / diag, 1e-8)
    assert (info, matvecs) == (0, 2)
    np.testing.assert_allclose(x, b / a[0, 0], rtol=1e-14, atol=0.0)


def test_gmres_zero_rhs_applies_nothing():
    def fail(v):
        raise AssertionError("applied")
    x, info, matvecs = ct._gmres(fail, np.zeros(30), fail, 1e-8)
    assert (info, matvecs) == (0, 0)
    assert not x.any()


def test_gmres_reports_cycles_run_out():
    # a cyclic shift: GMRES makes no progress until the Krylov space is full
    b = np.zeros(2 * ct.GMRES_RESTART)
    b[0] = 1.0
    x, info, matvecs = ct._gmres(lambda v: np.roll(v, 1), b, lambda v: v,
                                 1e-8)
    assert info == ct.GMRES_CYCLES
    assert matvecs == ct.GMRES_CYCLES * (ct.GMRES_RESTART + 1)
    assert not x.any()


def test_gmres_on_a_corrector_system_agrees_with_scipy(fcgl_params):
    p = replace(fcgl_params, gamma=1.95)
    n = 128
    prob = ct.FcglSteadyProblem(p, n=n, length=LENGTH)
    seed = weak_sech_fcgl(p, 1.95, center=LENGTH / 2).as_field(n, LENGTH)
    z, _, _ = ct.newton_solve(prob, prob.pack(seed.values), 1.95)
    precond = prob.preconditioner()
    tau_z, tau_p = ct._initial_tangent(prob, precond, z, 1.95, -1,
                                       ct.SolveStats())
    z_pred, p_pred = z + 0.04 * tau_z, 1.95 + 0.04 * tau_p
    matvec, psolve = ct._bordered(prob, precond, z_pred, p_pred, tau_z, tau_p)
    rhs = -np.concatenate([prob.residual(z_pred, p_pred), [0.0]])
    for rtol in (1e-5, 1e-8):
        x, info, matvecs = ct._gmres(matvec, rhs, psolve, rtol)
        x_sp, info_sp, matvecs_sp = scipy_gmres(matvec, rhs, psolve, rtol)
        assert info == info_sp == 0
        assert matvecs > 10
        assert abs(matvecs - matvecs_sp) <= 2
        assert np.linalg.norm(x - x_sp) <= rtol * np.linalg.norm(x_sp)


def test_unconverged_solve_is_counted(fcgl_params):
    class Stalled(ct.FcglSteadyProblem):
        """A cyclic-shift Jacobian, which GMRES(150) cannot reduce at all."""

        def residual(self, z, gamma):
            r = np.zeros(self.size)
            r[0] = 1.0
            return r

        def jacobian(self, z, gamma):
            return lambda dz: np.roll(dz, 1)

        def preconditioner(self):
            return lambda dz: dz

    prob = Stalled(fcgl_params, n=128, length=LENGTH)
    stats = ct.SolveStats()
    with pytest.raises(DivergenceError):
        ct.newton_solve(prob, np.zeros(prob.size), 1.0, stats=stats)
    cycles = ct.GMRES_CYCLES
    assert stats == ct.SolveStats(gmres_solves=1,
                                  matvecs=cycles * (ct.GMRES_RESTART + 1),
                                  gmres_unconverged=1)


def test_branch_counts_its_solves(fcgl_params):
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64).values)
    controls = ct.ContinuationControls(param_min=1.5, param_max=1.75,
                                       max_points=20)
    back = ct.continue_branch(prob, z, 1.6, -1, controls)
    fwd = ct.continue_branch(prob, z, 1.6, +1, controls)
    for branch in (back, fwd):
        s = branch.stats
        # one solve for the tangent and one per corrector iteration, at
        # least one iteration for each point after the first
        assert s.gmres_solves >= s.corrector_iterations + 1
        assert s.corrector_iterations >= len(branch.points) - 1
        assert s.matvecs > s.gmres_solves
        assert s.gmres_unconverged == 0
    merged = ct.merge_branches(back, fwd)
    assert merged.stats == back.stats + fwd.stats
    assert merged.stats.matvecs == back.stats.matvecs + fwd.stats.matvecs


def test_stalled_branch_counts_rejected_steps(fcgl_params):
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64).values)
    controls = ct.ContinuationControls(ds_min=1e-3, max_corrector=0,
                                       max_points=40)
    with pytest.raises(StalledBranchError) as err:
        ct.continue_branch(prob, z, 1.6, -1, controls)
    stats = err.value.branch.stats
    # ds0 = 0.01 halves four times to fall below 1e-3
    assert stats.step_rejections == 4
    assert stats.corrector_iterations == 0

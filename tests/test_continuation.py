import math
from dataclasses import asdict, astuple, replace

import numpy as np
import pytest
import scipy.sparse.linalg

from oscillab import FcglParams, ScalingMap, flat_states, make_stepper
from oscillab import continuation as ct
from oscillab import etd, spectral
from oscillab.errors import (DivergenceError, ParameterError,
                             StalledBranchError)
from oscillab.fields import ComplexField
from oscillab.floquet import floquet_multipliers, mathieu_critical
from oscillab.reduction import weak_sech_fcgl, weak_sech_pde

LENGTH = 20 * math.pi
TWO_PI = 2 * math.pi


def flat_field(p, n=128, length=LENGTH, which=-1, scale=1.0):
    root = flat_states(p).roots[which]
    return ComplexField(length,
                        np.full(n, scale * root.r * np.exp(1j * root.phi)))


def solve_fcgl(seed, gamma, params, **kwargs):
    """Newton on the steady FCGL problem from a seed field; returns
    (problem, z, residual, iterations)."""
    prob = ct.FcglSteadyProblem(params, n=seed.n, length=seed.length)
    return (prob, *ct.newton_solve(prob, prob.pack(seed.values), gamma,
                                   **kwargs))


def reflect(values):
    """Samples of x -> f(-x) on the periodic grid."""
    return np.roll(values[..., ::-1], 1, axis=-1)


PACKED_PROBLEMS = [
    pytest.param(lambda fcgl, model: ct.FcglSteadyProblem(
        fcgl, n=48, length=LENGTH), id="fcgl"),
    pytest.param(lambda fcgl, model: ct.PdeHarmonicProblem(
        model, n=48, length=LENGTH), id="pde"),
]


def random_profiles(prob, rng):
    shape = prob.symbol.shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("make", PACKED_PROBLEMS)
def test_packing_holds_the_even_part(fcgl_params, weak_model, make):
    prob = make(fcgl_params, weak_model)
    rng = np.random.default_rng(1)
    a, b = random_profiles(prob, rng), random_profiles(prob, rng)
    even_a, even_b = 0.5 * (a + reflect(a)), 0.5 * (b + reflect(b))
    scale = np.max(np.abs(even_a))
    za, zb = prob.pack(a), prob.pack(b)
    # the even Fourier coefficients 0...n/2 of each profile, real and imaginary
    assert za.shape == (prob.size,)
    assert prob.size == 2 * even_a[..., :prob.n // 2 + 1].size
    # an even field round-trips; of any other, pack keeps the even part
    assert np.max(np.abs(prob.unpack(prob.pack(even_a)) - even_a)) <= 1e-15 * scale
    assert np.max(np.abs(za - prob.pack(even_a))) <= 1e-15 * scale
    # packed dot products and Newton's max-norm are the full-grid ones
    terms = even_a.real * even_b.real + even_a.imag * even_b.imag
    assert abs(za @ zb - np.sum(terms)) <= 1e-14 * np.sum(np.abs(terms))
    full_max = max(np.max(np.abs(even_a.real)), np.max(np.abs(even_a.imag)))
    assert prob.max_norm(za) == pytest.approx(full_max, rel=1e-15)


@pytest.mark.parametrize("make", PACKED_PROBLEMS)
def test_packed_vector_is_the_scaled_half_spectrum(fcgl_params, weak_model,
                                                   make):
    # the unknowns are the complex half-spectrum of the even part, scaled,
    # viewed as floats: harmonic by harmonic, (real, imaginary) pairs
    prob = make(fcgl_params, weak_model)
    a = random_profiles(prob, np.random.default_rng(5))
    half = np.fft.fft(0.5 * (a + reflect(a)), axis=-1)[..., :prob.n // 2 + 1]
    expected = (prob.scale * half).view(float).ravel()
    assert np.max(np.abs(prob.pack(a) - expected)) \
        <= 1e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("make", PACKED_PROBLEMS)
def test_krylov_step_transforms_only_the_product(fcgl_params, weak_model,
                                                 make, monkeypatch):
    # a Jacobian matvec makes one batched forward and one batched inverse
    # FFT, the dealiased product's; the zero-state preconditioner makes none
    prob = make(fcgl_params, weak_model)
    rng = np.random.default_rng(2)
    z = prob.pack(0.3 * random_profiles(prob, rng))
    jac, precond = prob.jacobian(z, 1.0), prob.preconditioner(1.0)
    calls = {"fft": 0, "ifft": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    for name in calls:
        monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    jac(rng.standard_normal(prob.size))
    assert calls == {"fft": 1, "ifft": 1}
    precond(rng.standard_normal(prob.size))
    assert calls == {"fft": 1, "ifft": 1}


def dense_jacobian(prob, z, drive):
    """The Jacobian at z as a dense matrix, its columns from unit packed vectors."""
    jac = prob.jacobian(z, drive)
    return np.column_stack([jac(e) for e in np.eye(prob.size)])


@pytest.mark.parametrize("make", PACKED_PROBLEMS)
def test_preconditioner_inverts_the_zero_state_jacobian(fcgl_params,
                                                        weak_model, make):
    prob = make(fcgl_params, weak_model)
    drive = prob.params.drive
    # no singular value of the zero-state blocks is floored at this drive
    b0, b1 = prob.zero_state_blocks
    s = np.linalg.svd(b0 + drive * b1, compute_uv=False)
    assert np.min(s) > prob.PRECOND_FLOOR
    dense = dense_jacobian(prob, np.zeros(prob.size), drive)
    precond = prob.preconditioner(drive)
    product = np.column_stack([precond(col) for col in dense.T])
    assert np.max(np.abs(product - np.eye(prob.size))) <= 1e-12


def test_preconditioner_floors_the_onset_mode(fcgl_params):
    # at gamma0 = |mu + i nu| the uniform mode of the zero state is neutral:
    # its k = 0 block is singular, and only its small singular value is
    # floored, so every other wavenumber is still inverted exactly
    prob = ct.FcglSteadyProblem(fcgl_params, n=48, length=LENGTH)
    gamma0 = math.hypot(fcgl_params.mu, fcgl_params.nu)
    b0, b1 = prob.zero_state_blocks
    s = np.linalg.svd(b0 + gamma0 * b1, compute_uv=False)
    assert s[0, -1] < prob.PRECOND_FLOOR
    assert np.min(s[1:]) > prob.PRECOND_FLOOR
    dense = dense_jacobian(prob, np.zeros(prob.size), gamma0)
    precond = prob.preconditioner(gamma0)
    product = np.column_stack([precond(col) for col in dense.T])
    k = np.arange(prob.size) // 2 % (prob.n // 2 + 1)
    rest = np.ix_(k > 0, k > 0)
    assert np.max(np.abs(product[rest] - np.eye(prob.size)[rest])) <= 1e-12
    assert np.max(np.abs(product[k == 0][:, k > 0])) <= 1e-12


def svd_route_apply(prob, drive, z):
    """The zero-state preconditioner applied to z with every block inverted
    through its SVD, singular values floored at PRECOND_FLOOR."""
    b0, b1 = prob.zero_state_blocks
    u, s, vt = np.linalg.svd(b0 + drive * b1)
    s = np.maximum(s, prob.PRECOND_FLOOR)
    inv = np.swapaxes(vt, 1, 2) @ (np.swapaxes(u, 1, 2) / s[..., None])
    nk, m = b0.shape[:2]
    x = z.reshape(-1, nk, 2).transpose(1, 0, 2).reshape(nk, m, 1)
    return (inv @ x).reshape(nk, -1, 2).transpose(1, 0, 2).ravel()


@pytest.mark.parametrize("make", PACKED_PROBLEMS)
def test_preconditioner_is_the_svd_route_where_the_floor_is_idle(
        fcgl_params, weak_model, make):
    # one batched inv, certified by the Frobenius norm of each inverse,
    # gives the exact inverse that the SVD gives where no value is floored
    prob = make(fcgl_params, weak_model)
    b0, b1 = prob.zero_state_blocks
    z = np.random.default_rng(6).standard_normal(prob.size)
    for drive in (0.0, 0.5 * prob.params.drive, prob.params.drive):
        assert np.min(np.linalg.svd(b0 + drive * b1, compute_uv=False)) \
            > prob.PRECOND_FLOOR
        stats = ct.SolveStats()
        got = prob.preconditioner(drive, stats)(z)
        expected = svd_route_apply(prob, drive, z)
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert stats.precond_floored == 0


@pytest.mark.parametrize("mu, nu, drive", [(-0.5, 2.0, None), (0.0, 0.0, 0.0)],
                         ids=["onset", "singular"])
def test_preconditioner_counts_the_floored_blocks(fcgl_params, mu, nu, drive):
    # at the onset gamma0 = |mu + i nu| the k = 0 block is singular to
    # rounding; unforced with mu = nu = 0 it is exactly zero, which inv
    # cannot invert: either way that block alone goes through the floor
    p = replace(fcgl_params, mu=mu, nu=nu)
    prob = ct.FcglSteadyProblem(p, n=48, length=LENGTH)
    drive = math.hypot(mu, nu) if drive is None else drive
    stats = ct.SolveStats()
    precond = prob.preconditioner(drive, stats)
    assert stats.precond_floored == 1
    z = np.random.default_rng(7).standard_normal(prob.size)
    expected = svd_route_apply(prob, drive, z)
    assert np.max(np.abs(precond(z) - expected)) <= 1e-12 * np.max(np.abs(expected))


def unit_column_block(prob, z, drive, sign):
    """The parity block column by column: the full-grid linearization of
    each unit coefficient vector of that parity, (e_k + sign e_-k), scaled
    to the orthonormal packed basis."""
    lin, n, half = prob.linearization(z, drive), prob.n, prob.n // 2
    idx = np.arange(half + 1) if sign > 0 else np.arange(1, half)
    scale = np.where((idx > 0) & (idx < half), math.sqrt(2.0), 1.0)
    profiles = prob.symbol.size // n
    cols = []
    for j in range(profiles):
        for i, k in enumerate(idx):
            for unit in (1.0, 1.0j):
                d = np.zeros((profiles, n), dtype=complex)
                d[j, -k] = sign * unit
                d[j, k] = unit
                out = lin(d.reshape(prob.symbol.shape)).reshape(profiles, n)
                out = np.ascontiguousarray(out[:, idx] * scale / scale[i])
                cols.append(out.view(float).ravel())
    return np.column_stack(cols)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["even", "odd"])
@pytest.mark.parametrize("make", PACKED_PROBLEMS)
def test_parity_block_is_the_jacobian_on_its_parity(fcgl_params, weak_model,
                                                    make, sign):
    # the stability code and the solver share one basis: the block written
    # from the multipliers is the Jacobian on unit vectors of its parity,
    # and the even block is the dense matrix of the packed Jacobian
    prob = make(fcgl_params, weak_model)
    drive = prob.params.drive
    z = prob.pack(0.3 * random_profiles(prob, np.random.default_rng(4)))
    block = prob.parity_block(z, drive, sign)
    columns = unit_column_block(prob, z, drive, sign)
    assert np.max(np.abs(block - columns)) <= 1e-14 * np.max(np.abs(columns))
    if sign < 0:    # the packed unknowns and the zero-state blocks are even
        tiny = type(prob)(prob.params, n=2, length=LENGTH)      # no odd fields
        assert tiny.parity_block(np.zeros(tiny.size), drive, sign).shape == (0, 0)
        return
    dense = dense_jacobian(prob, z, drive)
    assert np.max(np.abs(block - dense)) <= 1e-14 * np.max(np.abs(dense))
    # about the zero state each k's diagonal sub-block, over the harmonics'
    # (real, imaginary) pairs, is that k's zero-state block
    b0, b1 = prob.zero_state_blocks
    nk = prob.n // 2 + 1
    profiles = prob.size // (2 * nk)
    block = prob.parity_block(np.zeros(prob.size), drive, sign)
    block = block.reshape(profiles, nk, 2, profiles, nk, 2)
    for k in range(nk):
        sub = block[:, k, :, :, k, :].reshape(b0.shape[1:])
        assert np.max(np.abs(sub - (b0[k] + drive * b1[k]))) \
            <= 1e-14 * np.max(np.abs(b0[k] + drive * b1[k]))


@pytest.mark.parametrize("make", [
    pytest.param(lambda fcgl, model: ct.FcglSteadyProblem(
        fcgl, n=32, length=LENGTH), id="fcgl"),
    pytest.param(lambda fcgl, model: ct.PdeHarmonicProblem(
        model, n=16, length=LENGTH), id="pde"),
])
def test_zero_state_blocks_are_the_lag_zero_parity_blocks(fcgl_params,
                                                          weak_model, make):
    # about the zero state, constant in x, the forcing's block is one block
    # at every wavenumber the dealiased product reaches, and none at the
    # Nyquist mode; B0 + drive B1 is each k's diagonal sub-block of the even
    # parity block, both written from the multipliers
    prob = make(fcgl_params, weak_model)
    b0, b1 = prob.zero_state_blocks
    nk = prob.n // 2 + 1
    profiles = prob.size // (2 * nk)
    assert b0.shape == b1.shape == (nk, 2 * profiles, 2 * profiles)
    assert np.array_equal(b1[:-1], np.broadcast_to(b1[0], b1[:-1].shape))
    assert np.any(b1[0]) and not np.any(b1[-1])
    for drive in (0.0, 1.0):
        block = prob.parity_block(np.zeros(prob.size), drive, 1.0)
        block = block.reshape(profiles, nk, 2, profiles, nk, 2)
        for k in range(nk):
            sub = block[:, k, :, :, k, :].reshape(b0.shape[1:])
            assert np.max(np.abs(sub - (b0[k] + drive * b1[k]))) \
                <= 1e-15 * np.max(np.abs(sub))


def test_model_block_has_the_floquet_exponents(weak_model):
    # About U = 0 the forced model's even block holds one Hill matrix per
    # wavenumber k, that of the flat linearization at (mu - alpha k^2,
    # omega - beta k^2), so its rightmost eigenvalue is the largest Floquet
    # exponent ln|lambda|/pi over one forcing period.  Harmonics +-1 and +-3
    # alone leave a truncation gap of 4e-5.
    mp = replace(weak_model, f=0.06)
    n, harmonics = 32, np.arange(-5, 6, 2)
    prob = ct.PdeHarmonicProblem(mp, n=n, length=LENGTH, harmonics=harmonics)
    nk, m = n // 2 + 1, 2 * harmonics.size
    block = prob.parity_block(np.zeros(prob.size), mp.f, 1.0)
    block = block.reshape(harmonics.size, nk, 2, harmonics.size, nk, 2)
    for k in range(n // 2):
        q2 = (TWO_PI * k / LENGTH) ** 2
        flat = replace(mp, mu=mp.mu - mp.alpha * q2,
                       omega=mp.omega - mp.beta * q2)
        exponent = np.max(np.log(np.abs(floquet_multipliers(mp.f, flat))))
        sub = block[:, k, :, :, k, :].reshape(m, m)
        assert np.max(np.linalg.eigvals(sub).real) == pytest.approx(
            exponent / math.pi, abs=1e-8)


def test_fcgl_residual_vanishes_on_flat_state(fcgl_params):
    prob = ct.FcglSteadyProblem(fcgl_params, n=64, length=LENGTH)
    z = prob.pack(flat_field(fcgl_params, 64).values)
    assert np.max(np.abs(prob.residual(z, fcgl_params.gamma))) < 1e-12


@pytest.mark.parametrize("which", [0, -1])
def test_newton_recovers_flat_roots(fcgl_params, which):
    seed = flat_field(fcgl_params, 64, which=which, scale=1.02)
    prob, z, rn, _ = solve_fcgl(seed, fcgl_params.gamma, fcgl_params)
    root = flat_states(fcgl_params).roots[which]
    assert rn < 1e-10
    assert np.max(np.abs(prob.unpack(z))) == pytest.approx(root.r, rel=1e-8)


def test_newton_zero_to_zero(fcgl_params):
    seed = ComplexField(LENGTH, np.zeros(64, dtype=complex))
    prob, z, _, _ = solve_fcgl(seed, 1.9, fcgl_params)
    assert np.max(np.abs(prob.unpack(z))) < 1e-12


def test_newton_from_sech_seed(fcgl_params):
    # near-onset seed converges to a symmetric localized state
    p = replace(fcgl_params, gamma=1.95)
    seed = weak_sech_fcgl(p, 1.95, center=LENGTH / 2).as_field(256, LENGTH)
    prob, z, rn, iterations = solve_fcgl(seed, 1.95, p)
    assert rn < 1e-10
    assert iterations <= 8
    values = prob.state_of(z).values
    mags = np.abs(values)
    assert mags.max() > 0.05
    edge = max(mags[:32].max(), mags[-32:].max())
    assert edge < 0.05 * mags.max()
    sym_gap = np.abs(values - reflect(values))
    assert np.max(sym_gap) < 1e-9


def test_newton_divergence(fcgl_params):
    # a huge seed far from any basin must fail loudly, not silently
    seed = ComplexField(LENGTH, np.full(64, 50.0 + 50.0j))
    with pytest.raises(DivergenceError):
        solve_fcgl(seed, 1.496, fcgl_params, max_iter=4)


def test_newton_solve_holds_the_parameter(fcgl_params):
    # the polish runs the corrector's loop with the row tau = (0, 1): every
    # residual, Jacobian and parameter column is taken at gamma bit for bit,
    # and iters is the loop's count of corrections
    class Recorded(ct.FcglSteadyProblem):
        def residual(self, z, gamma):
            seen.append(gamma)
            return super().residual(z, gamma)

        def jacobian(self, z, gamma):
            seen.append(gamma)
            return super().jacobian(z, gamma)

        def dparam(self, z, gamma):
            seen.append(gamma)
            return super().dparam(z, gamma)

    seen, gamma = [], 1.95 + 2.0**-30
    p = replace(fcgl_params, gamma=gamma)
    prob = Recorded(p, n=128, length=LENGTH)
    seed = weak_sech_fcgl(p, gamma, center=LENGTH / 2).as_field(128, LENGTH)
    stats = ct.SolveStats()
    z, rn, iters = ct.newton_solve(prob, prob.pack(seed.values), gamma,
                                   stats=stats)
    assert rn < 1e-10 and iters >= 2
    assert iters == stats.corrector_iterations == stats.gmres_solves
    assert len(seen) == 3 * iters + 1
    assert all(q == gamma for q in seen)


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


def test_newton_polishes_on_seven_harmonics(strong_model):
    # +-7 needs more collocation times than the default harmonics do
    fp = mathieu_critical(strong_model)
    harmonics = np.arange(-7, 8, 2)
    f = 0.99 * fp.f_c
    carrier = fp.u_coeffs[np.isin(fp.harmonics, harmonics)]
    problem = ct.PdeHarmonicProblem(strong_model, n=8, length=LENGTH,
                                    harmonics=harmonics)
    assert problem.times.size == 32
    seed = problem.pack(np.outer(0.04 * carrier, np.ones(8)))
    z, residual, _ = ct.newton_solve(problem, seed, f)
    assert residual < 1e-10
    state = problem.state_of(z)
    assert list(state.harmonics) == list(harmonics)
    assert state.norm > 0.01


class CycleStepper(etd.Etd2Stepper):
    """A stepper whose field is the exact cycle U(t) = sum_j U_j e^{i j t}:
    its steps only advance the clock."""

    def __init__(self, profiles, harmonics, dt, t0):
        super().__init__(0.0, dt, lambda u, t, out: out.fill(0.0), 0.0, t0)
        self.profiles, self.harmonics = profiles, np.asarray(harmonics)

    @property
    def field(self):
        phases = np.exp(1j * self.harmonics * self.t)
        return ComplexField(LENGTH, phases @ self.profiles)


def test_pack_cycle_recovers_harmonics(weak_model):
    n, t0 = 32, 0.7
    problem = ct.PdeHarmonicProblem(weak_model, n=n, length=LENGTH)
    rng = np.random.default_rng(9)
    profiles = rng.standard_normal((4, n)) + 1j * rng.standard_normal((4, n))
    profiles += profiles[:, -np.arange(n) % n]      # even, as packed
    stepper = CycleStepper(profiles, problem.harmonics, 2 * math.pi / 48, t0)
    z = problem.pack_cycle(stepper)
    assert np.max(np.abs(problem.unpack(z) - profiles)) < 1e-12
    assert stepper.steps == 48
    # 40 steps a period do not divide the 16 collocation intervals
    with pytest.raises(ParameterError):
        problem.pack_cycle(CycleStepper(profiles, problem.harmonics,
                                        2 * math.pi / 40, t0))


def test_pack_cycle_then_newton(weak_model):
    """Projecting a converged simulation and polishing with Newton must agree
    with the simulation itself."""
    n, length = 640, 200 * math.pi
    seed = weak_sech_pde(weak_model, center=length / 2).as_field(
        n, length, t=0.0)
    stepper = make_stepper(seed, weak_model, 2 * math.pi / 208)
    etd.run_to_steady(stepper, 208, tol=1e-7, max_periods=400)
    problem = ct.PdeHarmonicProblem(weak_model, n=n, length=length)
    projected = problem.pack_cycle(stepper)
    z, residual, _ = ct.newton_solve(problem, projected, weak_model.f)
    assert residual < 1e-10
    state = problem.state_of(z)
    assert state.norm == pytest.approx(problem.norm_of(projected), rel=1e-3)
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
    branch = ct.trace_branch(prob, z, 1.6, controls)
    assert branch.folds, "no fold found on the flat branch"
    assert min(branch.folds) == pytest.approx(1.2070196981508372, rel=2e-3)


def traced_halves(monkeypatch, stall=()):
    """Record the halves that trace_branch walks through continue_branch as
    (direction, branch, work, start): direction the sign of tau_p, work the
    half's share of the shared counters, start its (z, tau_z, tau_p).  The
    directions in stall raise StalledBranchError with their half."""
    halves, real = [], ct.continue_branch

    def spy(problem, z, param, tau_z, tau_p, controls, stats):
        before = astuple(stats)
        branch = real(problem, z, param, tau_z, tau_p, controls, stats)
        work = ct.SolveStats(*(a - b for a, b in zip(astuple(stats), before)))
        direction = int(math.copysign(1.0, tau_p))
        halves.append((direction, branch, work, (z, tau_z, tau_p)))
        if direction in stall:
            raise StalledBranchError(branch)
        return branch

    monkeypatch.setattr(ct, "continue_branch", spy)
    return halves


def flat_trace_setup(fcgl_params, max_points):
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64, scale=0.99).values)
    controls = ct.ContinuationControls(param_min=1.5, param_max=1.75,
                                       max_points=max_points)
    polish, tangent = ct.SolveStats(), ct.SolveStats()
    z_polished, _, _ = ct.newton_solve(prob, z, 1.6, tol=controls.newton_tol,
                                       stats=polish)
    ct._initial_tangent(prob, z_polished, 1.6, tangent)
    assert polish.gmres_solves > 0 and tangent.gmres_solves == 1
    return prob, z, controls, (polish, tangent)


def assert_counts_add_up(total, start, halves):
    """Every counter of the branch is the polish's plus one tangent solve's
    plus the halves' walks', exactly: gmres_solves is polish + 1 + walks."""
    parts = [*start, *(work for _, _, work, _ in halves)]
    for name, value in asdict(total).items():
        assert value == sum(getattr(part, name) for part in parts), name


def test_branch_bookkeeping(fcgl_params, monkeypatch):
    prob, z, controls, _ = flat_trace_setup(fcgl_params, 40)
    halves = traced_halves(monkeypatch)
    merged = ct.trace_branch(prob, z, 1.6, controls)
    (d_back, back, _, _), (d_fwd, fwd, _, _) = halves
    assert (d_back, d_fwd) == (-1, +1)
    assert [pt.index for pt in merged.points] == list(range(len(merged.points)))
    arcs = [pt.arclength for pt in merged.points]
    assert all(b > a for a, b in zip(arcs, arcs[1:]))
    assert len(merged.points) == len(back.points) + len(fwd.points) - 1
    assert merged.params[0] == back.params[-1]
    assert merged.params[-1] == fwd.params[-1]
    assert sum(pt.fold for pt in merged.points) == len(merged.folds)


def test_halves_start_from_one_point_and_tangent(fcgl_params, monkeypatch):
    prob, z, controls, _ = flat_trace_setup(fcgl_params, 3)
    halves = traced_halves(monkeypatch)
    ct.trace_branch(prob, z, 1.6, controls)
    (z_back, tz_back, tp_back), (z_fwd, tz_fwd, tp_fwd) = [
        start for *_, start in halves]
    assert np.array_equal(z_back, z_fwd)
    assert tp_back < 0.0 and tp_fwd == -tp_back
    assert np.array_equal(tz_fwd, -tz_back)


def stall_every_step(monkeypatch, fcgl_params):
    """A flat-state seed with no corrector iterations allowed: every step
    fails and the step size collapses."""
    monkeypatch.setattr(ct, "MAX_CORRECTOR", 0)
    p = replace(fcgl_params, gamma=1.6)
    prob = ct.FcglSteadyProblem(p, n=64, length=LENGTH)
    z = prob.pack(flat_field(p, 64).values)
    return prob, z, ct.ContinuationControls(ds_min=1e-3, max_points=40)


def test_stalled_branch_carries_partial_result(fcgl_params, monkeypatch):
    prob, z, controls = stall_every_step(monkeypatch, fcgl_params)
    with pytest.raises(StalledBranchError) as err:
        ct.trace_branch(prob, z, 1.6, controls)
    assert len(err.value.branch.points) >= 1


S = np.linspace(-1.5, 1.5, 61)
S_GAMMA = 1.5 + 0.1 * (S**3 - S)      # folds at s = -+1/sqrt(3)
S_NORM = 1.0 + 0.2 * S


def synthetic_branch(params, norms):
    pts = [ct.BranchPoint(index=i, param=float(q), norm=float(m),
                          z=np.zeros(1), arclength=float(i))
           for i, (q, m) in enumerate(zip(params, norms))]
    return ct._folded_branch(pts, ct.SolveStats())


def test_overlay_of_mapped_copies():
    scaling = ScalingMap(0.1)
    fcgl = synthetic_branch(S_GAMMA, S_NORM)
    assert len(fcgl.folds) == 2
    pde = synthetic_branch(scaling.to_forcing(S_GAMMA), 0.1 * S_NORM)
    worst, lo, hi = ct.overlay_mismatch(fcgl, pde, scaling)
    assert worst == pytest.approx(0.0, abs=1e-12)
    flagged = [pt.param for pt in fcgl.points if pt.fold]
    assert min(flagged) < lo < hi < max(flagged)
    raised = synthetic_branch(scaling.to_forcing(S_GAMMA), 0.103 * S_NORM)
    worst, _, _ = ct.overlay_mismatch(fcgl, raised, scaling)
    assert worst == pytest.approx(0.03, rel=1e-9)


def test_overlay_needs_two_folds_and_a_shared_window():
    scaling = ScalingMap(0.1)
    fcgl = synthetic_branch(S_GAMMA, S_NORM)
    half = S >= 0.0
    one_fold = synthetic_branch(scaling.to_forcing(S_GAMMA[half]),
                                0.1 * S_NORM[half])
    assert len(one_fold.folds) == 1
    with pytest.raises(ParameterError, match="needs two"):
        ct.overlay_mismatch(fcgl, one_fold, scaling)
    apart = synthetic_branch(scaling.to_forcing(S_GAMMA + 1.0), 0.1 * S_NORM)
    with pytest.raises(ParameterError, match="do not overlap"):
        ct.overlay_mismatch(fcgl, apart, scaling)


def test_classify_zero_state_across_onset(fcgl_params):
    prob = ct.FcglSteadyProblem(fcgl_params, n=96, length=LENGTH)
    z = np.zeros(prob.size)
    assert ct.classify_stability_fcgl(prob, z, 1.9)[0] == "stable"
    assert ct.classify_stability_fcgl(prob, z, 2.2)[0] == "unstable"


def test_classify_flat_roots(fcgl_params):
    p = replace(fcgl_params, gamma=1.7)
    prob = ct.FcglSteadyProblem(p, n=96, length=LENGTH)
    for which, expected in [(-1, "stable"), (0, "unstable")]:
        z = prob.pack(flat_field(p, 96, which=which).values)
        z, _, _ = ct.newton_solve(prob, z, 1.7)
        assert ct.classify_stability_fcgl(prob, z, 1.7)[0] == expected


@pytest.mark.parametrize("n", [96, 512])
@pytest.mark.parametrize("gamma, beta", [
    pytest.param(1.9, -2.0, id="1.9"),
    pytest.param(2.1, -2.0, id="2.1"),
    pytest.param(2.2, -2.0, id="2.2"),
    # beta > 0 moves the rightmost mode off k = 0, toward k^2 = nu/beta
    pytest.param(1.9, 2.0, id="1.9-beta2"),
])
def test_leading_rate_of_zero_state_closed_form(fcgl_params, n, gamma, beta):
    # About A = 0, mode k couples only to the conjugate of mode -k, so the
    # rates are Re(s_k) +- Re sqrt(gamma^2 - Im(s_k)^2) over the symbol s_k.
    # gamma = nu = 2 is avoided: the k = 0 pair is a Jordan block there.
    prob = ct.FcglSteadyProblem(replace(fcgl_params, beta=beta), n=n,
                                length=LENGTH)
    s = prob.symbol
    root = np.sqrt(gamma**2 - s.imag**2 + 0j).real
    exact = np.sort(np.concatenate([s.real + root, s.real - root]))[::-1]
    rates = ct.leading_rates_fcgl(prob, np.zeros(prob.size), gamma)
    assert rates[-1] < ct.LABEL_CUT
    exact = exact[:rates.size]
    assert rates[0] == pytest.approx(exact[0], abs=1e-10)
    assert np.all(np.abs(rates - exact) <= 1e-10 * np.maximum(1.0, np.abs(exact)))


def pulse_state(p, n):
    """(problem, z): a pulse on the upper flat state at p.gamma, converged."""
    prob = ct.FcglSteadyProblem(p, n=n, length=LENGTH)
    root = flat_states(p).roots[-1]
    x = np.arange(n) * (LENGTH / n)
    seed = root.r * np.exp(1j * root.phi) / np.cosh(0.5 * (x - LENGTH / 2))
    z, rn, _ = ct.newton_solve(prob, prob.pack(seed), p.gamma)
    assert rn < 1e-10
    return prob, z


def test_rates_are_the_full_jacobian_spectrum(fcgl_params):
    # the oracle: the dense 2n x 2n Jacobian on the full grid, column by
    # column from unit-vector matvecs, with no use of the state's parity;
    # an unstable sech state at gamma = 1.95 and a stable pulse at 1.46
    n = 64
    p = replace(fcgl_params, gamma=1.95)
    seed = weak_sech_fcgl(p, 1.95, center=LENGTH / 2).as_field(n, LENGTH)
    prob, z, rn, _ = solve_fcgl(seed, 1.95, p)
    assert rn < 1e-10
    states = [(prob, z, 1.95), (*pulse_state(replace(p, gamma=1.46), n), 1.46)]
    for prob, z, gamma in states:
        assert np.ptp(np.abs(prob.unpack(z))) > 0.05
        lin = prob.linearization(z, gamma)
        full = np.empty((2 * n, 2 * n))
        for col, e in enumerate(np.concatenate([np.eye(n), 1j * np.eye(n)])):
            out = np.fft.ifft(lin(np.fft.fft(e)))
            full[:, col] = np.concatenate([out.real, out.imag])
        exact = np.sort(np.linalg.eigvals(full).real)[::-1]
        rates = ct.leading_rates_fcgl(prob, z, gamma)
        assert 2 <= rates.size < exact.size and rates[-1] < ct.LABEL_CUT
        exact = exact[:rates.size]
        assert np.all(np.abs(rates - exact)
                      <= 1e-10 * np.maximum(1.0, np.abs(exact)))


def cycle_state(mp, n, length):
    """(problem, z): the forced model's cycle from the weak sech seed,
    stepped to steady, sampled at the collocation times and polished."""
    prob = ct.PdeHarmonicProblem(mp, n=n, length=length)
    seed = weak_sech_pde(mp, center=length / 2).as_field(n, length)
    stepper = make_stepper(seed, mp, 2 * math.pi / 208)
    etd.run_to_steady(stepper, 208, tol=1e-4, max_periods=400)
    z, rn, _ = ct.newton_solve(prob, prob.pack_cycle(stepper), mp.f)
    assert rn < 1e-10
    return prob, z


def test_label_bound_certifies_both_parity_blocks(fcgl_params, weak_model,
                                                  monkeypatch):
    # The shift bound read off the multipliers is at least the numerical
    # abscissa, the largest eigenvalue of the symmetric part, of either
    # parity block of either system.  It is also within 0.1 of it on these
    # states, where max Re(symbol) + |gamma| + 3|C| max|u|^2 lies 10.4 above
    # on the flat state and 8.8 above on the pulse.
    bounds, real = [], ct.rightmost_eigenvalues

    def record(block, bound):
        bounds.append(bound)
        return real(block, bound)

    monkeypatch.setattr(ct, "rightmost_eigenvalues", record)
    n, p = 64, replace(fcgl_params, gamma=1.7)
    flat = ct.FcglSteadyProblem(p, n=n, length=LENGTH)
    z_flat, _, _ = ct.newton_solve(flat, flat.pack(flat_field(p, n).values), 1.7)
    states = [(flat, np.zeros(flat.size), 1.9), (flat, z_flat, 1.7),
              (*pulse_state(replace(p, gamma=1.46), n), 1.46),
              (*cycle_state(weak_model, n, 200 * math.pi), weak_model.f)]
    for prob, z, drive in states:
        bounds.clear()
        ct.leading_rates_fcgl(prob, z, drive)
        assert len(bounds) == 2 and bounds[0] == bounds[1]
        for sign in (1.0, -1.0):
            block = prob.parity_block(z, drive, sign)
            abscissa = np.linalg.eigvalsh(0.5 * (block + block.T))[-1]
            assert bounds[0] >= abscissa - 1e-12 * max(1.0, abs(abscissa))
            assert bounds[0] - abscissa < 0.1


def test_rightmost_eigenvalues_of_a_dense_matrix():
    # a nonnormal matrix with its numerical abscissa as the bound, beside
    # the empty block and a bound far to the right
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 40)) - 2.0 * np.eye(40)
    a[np.triu_indices(40, 1)] *= 3.0
    exact = np.linalg.eigvals(a)
    exact = exact[np.argsort(-exact.real)]
    for bound in (np.linalg.eigvalsh(0.5 * (a + a.T))[-1], 100.0):
        values, dim = ct.rightmost_eigenvalues(a.copy(), bound)
        assert 0 < dim <= 40 and values.size >= 2
        assert values[-1].real < ct.LABEL_CUT <= values[-2].real
        assert np.allclose(values.real, exact[:values.size].real,
                           rtol=0.0, atol=1e-10)
    values, dim = ct.rightmost_eigenvalues(np.empty((0, 0)), 0.0)
    assert values.size == 0 and dim == 0


def test_rightmost_eigenvalues_stop_on_an_invariant_subspace():
    # three distinct eigenvalues span a Krylov space of dimension 3, where
    # Arnoldi breaks down below LABEL_KRYLOV and its Ritz values are exact
    block = np.diag([0.5] * 10 + [-0.002] * 10 + [-2.0] * 20)
    values, dim = ct.rightmost_eigenvalues(block, 0.5)
    assert dim == 3 and values.size == 2
    assert np.all(values.imag == 0.0)
    assert np.max(np.abs(values.real - [0.5, -0.002])) <= 1e-14


def test_one_blas_thread_restores_the_count():
    calls = ct.blas_thread_calls()
    if calls is None:
        pytest.skip("numpy's OpenBLAS thread control is not found")
    get, _ = calls
    before = get()
    with ct._one_blas_thread():
        assert get() == 1
    assert get() == before


def test_classify_nan_state_is_indeterminate(fcgl_params):
    prob = ct.FcglSteadyProblem(fcgl_params, n=64, length=LENGTH)
    z = np.zeros(prob.size)
    z[0] = np.nan
    label, rate = ct.classify_stability_fcgl(prob, z, 1.9)
    assert label == "indeterminate"
    assert math.isnan(rate)


def test_classify_propagates_unexpected_errors(fcgl_params, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("not a numerical failure")
    monkeypatch.setattr(ct, "leading_rates_fcgl", broken)
    prob = ct.FcglSteadyProblem(fcgl_params, n=64, length=LENGTH)
    with pytest.raises(RuntimeError, match="not a numerical failure"):
        ct.classify_stability_fcgl(prob, np.zeros(prob.size), 1.9)


def test_stable_localized_state_reports_its_margin(fcgl_params):
    # a pulse on the upper flat state converges to a stable localized state
    prob, z = pulse_state(replace(fcgl_params, gamma=1.46), 128)
    rates = ct.leading_rates_fcgl(prob, z, 1.46)
    # the neutral translation mode is still among the rightmost rates ...
    assert np.min(np.abs(rates)) < 1e-9
    # ... but the label and its rate come from the least stable other mode
    label, rate = ct.classify_stability_fcgl(prob, z, 1.46)
    assert label == "stable"
    assert rate < -1e-3


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
    stepper = make_stepper(prob.state_of(z), p, 0.01)
    a_hat, n_hat = stepper.u.copy(), np.empty_like(stepper.u)
    stepper.nonlinear(a_hat, 0.0, n_hat)
    rhs = p.symbol(spectral.wavenumbers(n, LENGTH)) * a_hat + n_hat
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
        n_hat = np.empty_like(st.u)
        st.nonlinear(st.u, st.t, n_hat)
        ell = p.symbol(spectral.wavenumbers(values.size, LENGTH))
        return np.fft.ifft(ell * st.u + n_hat)

    def assert_close(got, expected):
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(got - expected)) < 1e-12 * scale

    # even profiles: the packed unknowns hold no odd part
    a = 0.3 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    a = 0.5 * (a + reflect(a))
    assert abs(np.fft.fft(a)[n // 2]) > 0.1
    prob = ct.FcglSteadyProblem(fcgl_params, n=n, length=LENGTH)
    assert_close(prob.unpack(prob.residual(prob.pack(a), fcgl_params.gamma)),
                 rhs(a, fcgl_params, 0.0))

    prob = ct.PdeHarmonicProblem(weak_model, n=n, length=LENGTH)
    assert prob.times.size == m
    j = prob.harmonics[:, None]
    profiles = 0.1 * (rng.standard_normal((j.size, n))
                      + 1j * rng.standard_normal((j.size, n)))
    profiles = 0.5 * (profiles + reflect(profiles))
    times = 2 * math.pi * np.arange(m) / m
    stack = np.array([rhs(np.exp(1j * j[:, 0] * t) @ profiles, weak_model, t)
                      for t in times])
    projected = np.exp(-1j * j * times) @ stack / m
    assert_close(prob.unpack(prob.residual(prob.pack(profiles), weak_model.f)),
                 projected - 1j * j * profiles)


# ---- the Krylov kernel ----

def scipy_gmres(matvec, b, psolve, rtol):
    """The oracle: scipy's unpreconditioned gmres, with the kernel's restart
    and cycle count, on the right-preconditioned operator v -> A psolve(v),
    whose solution y gives x = psolve(y); returns (x, info, matvecs)."""
    def counted(v):
        counted.n += 1
        return matvec(psolve(v))
    counted.n = 0
    op = scipy.sparse.linalg.LinearOperator((b.size, b.size), matvec=counted,
                                            dtype=float)
    y, info = scipy.sparse.linalg.gmres(op, b, rtol=rtol, atol=0.0,
                                        restart=ct.GMRES_RESTART,
                                        maxiter=ct.GMRES_CYCLES)
    return psolve(y), info, counted.n


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
    # scipy's gmres on the right-preconditioned operator takes the same steps
    x_sp, info_sp, matvecs_sp = scipy_gmres(lambda v: a @ v, b, psolve, rtol)
    assert info_sp == 0
    assert abs(matvecs - matvecs_sp) <= 2
    assert np.linalg.norm(x - x_sp) <= rtol * np.linalg.norm(x_sp)


def test_gmres_preconditions_once_per_matvec():
    # each Arnoldi step preconditions its vector once, and each cycle's
    # update once, for the residual check that ends the cycle
    a, b, psolve = preconditioned_system(400, 12, 0.95)

    def counted(v):
        counted.n += 1
        return psolve(v)
    counted.n = 0
    x, info, matvecs = ct._gmres(lambda v: a @ v, b, counted, 1e-5)
    assert info == 0
    assert ct.GMRES_RESTART + 1 < matvecs <= 2 * (ct.GMRES_RESTART + 1)
    assert counted.n == matvecs


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


def test_localized_branch_matvecs_per_solve(fcgl_params):
    # the first 50 points of the acceptance branch (criterion 03) at n = 128,
    # through both outer folds: the zero-state preconditioner leaves GMRES
    # the localized core, 9.6 matvecs a solve (23.8 with the symbol alone)
    p = replace(fcgl_params, gamma=1.95)
    n = 128
    prob = ct.FcglSteadyProblem(p, n=n, length=LENGTH)
    seed = weak_sech_fcgl(p, 1.95, center=LENGTH / 2).as_field(n, LENGTH)
    controls = ct.ContinuationControls(ds0=0.01, ds_max=0.04, param_min=1.35,
                                       param_max=2.05, max_points=40)
    branch = ct.trace_branch(prob, prob.pack(seed.values), 1.95, controls)
    stats = branch.stats
    assert len(branch.points) == 50
    assert stats.gmres_unconverged == 0
    assert stats.matvecs / stats.gmres_solves <= 16


def localized_start(fcgl_params):
    """(problem, z, tau_z, tau_p): a converged localized FCGL state at
    gamma = 1.95, n = 128, and the unit tangent of its branch."""
    p = replace(fcgl_params, gamma=1.95)
    prob = ct.FcglSteadyProblem(p, n=128, length=LENGTH)
    seed = weak_sech_fcgl(p, 1.95, center=LENGTH / 2).as_field(128, LENGTH)
    z, _, _ = ct.newton_solve(prob, prob.pack(seed.values), 1.95)
    return (prob, z, *ct._initial_tangent(prob, z, 1.95, ct.SolveStats()))


def corrector_system(fcgl_params):
    """(matvec, psolve, precond, rhs): the corrector's first bordered system
    a step of 0.04 from localized_start, psolve its block elimination and
    precond the zero-state preconditioner of its z-block."""
    prob, z, tau_z, tau_p = localized_start(fcgl_params)
    z_pred, p_pred = z + 0.04 * tau_z, 1.95 + 0.04 * tau_p
    precond = prob.preconditioner(p_pred)
    count = 2 * prob.symbol.size
    row = math.sqrt(float(tau_z @ tau_z) / count**2 + tau_p**2)
    matvec, psolve = ct._bordered(prob, precond, z_pred, p_pred, tau_z,
                                  tau_p, count, row)
    rhs = -np.concatenate([prob.residual(z_pred, p_pred), [0.0]])
    return matvec, psolve, precond, rhs


def test_gmres_on_a_corrector_system_agrees_with_scipy(fcgl_params):
    # the corrector's bordered matvec with the zero-state preconditioner on
    # its z-block alone, so that GMRES runs long enough to be compared
    matvec, _, precond, rhs = corrector_system(fcgl_params)

    def psolve(dy):
        return np.append(precond(dy[:-1]), dy[-1])
    for rtol in (1e-8, 1e-10):
        x, info, matvecs = ct._gmres(matvec, rhs, psolve, rtol)
        x_sp, info_sp, matvecs_sp = scipy_gmres(matvec, rhs, psolve, rtol)
        assert info == info_sp == 0
        assert matvecs > 10
        assert abs(matvecs - matvecs_sp) <= 2
        assert np.linalg.norm(x - x_sp) <= rtol * np.linalg.norm(x_sp)


def test_gmres_converges_in_one_cycle_when_its_estimate_does(fcgl_params,
                                                            monkeypatch):
    # the Arnoldi estimate is the true residual, so a cycle that meets rtol
    # by it passes the residual check that ends it: on a test system and on
    # a corrector system with its own block-elimination psolve
    monkeypatch.setattr(ct, "GMRES_CYCLES", 1)
    a, b, psolve = preconditioned_system(400, 12, 0.9)
    assert ct._gmres(lambda v: a @ v, b, psolve, 1e-5)[1] == 0
    matvec, psolve, _, rhs = corrector_system(fcgl_params)
    assert ct._gmres(matvec, rhs, psolve, 1e-8)[1] == 0


def bordered_at(prob, precond, z, tau_z, tau_p):
    """_bordered at (z, drive) along (tau_z, tau_p), with its row scale."""
    count = 2 * prob.symbol.size
    row = math.sqrt(float(tau_z @ tau_z) / count**2 + tau_p**2)
    return ct._bordered(prob, precond, z, prob.params.drive, tau_z, tau_p,
                        count, row)


@pytest.mark.parametrize("make", PACKED_PROBLEMS)
def test_bordered_psolve_inverts_with_an_exact_z_block(fcgl_params,
                                                       weak_model, make):
    # with the exact inverse of the Jacobian as M, block elimination is the
    # exact inverse of the bordered matrix: GMRES stops after one Arnoldi
    # step and the residual check
    prob = make(fcgl_params, weak_model)
    rng = np.random.default_rng(8)
    z = prob.pack(0.3 * random_profiles(prob, rng))
    inverse = np.linalg.inv(prob.parity_block(z, prob.params.drive, 1.0))
    tau_z, tau_p = rng.standard_normal(prob.size), -0.5
    matvec, psolve = bordered_at(prob, lambda f: inverse @ f, z, tau_z, tau_p)
    eye = np.eye(prob.size + 1)
    product = np.column_stack([psolve(matvec(e)) for e in eye])
    assert np.max(np.abs(product - eye)) <= 1e-10
    rhs = rng.standard_normal(prob.size + 1)
    x, info, matvecs = ct._gmres(matvec, rhs, psolve, 1e-8)
    assert (info, matvecs) == (0, 2)
    assert np.linalg.norm(matvec(x) - rhs) <= 1e-8 * np.linalg.norm(rhs)


@pytest.mark.parametrize("tau_p", [0.0, math.nan], ids=["zero", "nan"])
def test_bordered_psolve_never_divides_by_a_bad_schur_scalar(fcgl_params,
                                                             tau_p):
    # a Schur scalar s = d - c M r that is zero or not finite leaves the
    # elimination out: the z-block is preconditioned alone and the row
    # passed through, so GMRES never sees a division by it.  tau_z is on
    # the Nyquist mode, where the parameter column r, and so M r, is empty:
    # with tau_p = 0, s is exactly zero
    prob = ct.FcglSteadyProblem(fcgl_params, n=48, length=LENGTH)
    rng = np.random.default_rng(9)
    z = prob.pack(0.3 * random_profiles(prob, rng))
    precond = prob.preconditioner(prob.params.drive)
    tau_z = np.zeros(prob.size)
    tau_z[prob.n] = 1.0
    assert precond(prob.dparam(z, prob.params.drive))[prob.n] == 0.0
    _, psolve = bordered_at(prob, precond, z, tau_z, tau_p)
    dy = rng.standard_normal(prob.size + 1)
    out = psolve(dy)
    assert np.array_equal(out, np.append(precond(dy[:-1]), dy[-1]))


def test_unconverged_solve_is_counted(fcgl_params):
    class Stalled(ct.FcglSteadyProblem):
        """A cyclic-shift Jacobian, which GMRES(150) cannot reduce at all."""

        def residual(self, z, gamma):
            r = np.zeros(self.size)
            r[0] = 1.0
            return r

        def jacobian(self, z, gamma):
            return lambda dz: np.roll(dz, 1)

        def preconditioner(self, drive, stats=None):
            return lambda dz: dz

    # n + 2 = 322 packed unknowns, more than one cycle of GMRES_RESTART;
    # the first correction is taken, and the second, from the same residual,
    # is rejected: both stalled solves are counted
    prob = Stalled(fcgl_params, n=320, length=LENGTH)
    stats = ct.SolveStats()
    with pytest.raises(DivergenceError):
        ct.newton_solve(prob, np.zeros(prob.size), 1.0, stats=stats)
    cycles = ct.GMRES_CYCLES
    assert stats == ct.SolveStats(gmres_solves=2,
                                  matvecs=2 * cycles * (ct.GMRES_RESTART + 1),
                                  gmres_unconverged=2, corrector_iterations=2)


def test_branch_counts_its_solves(fcgl_params, monkeypatch):
    prob, z, controls, start = flat_trace_setup(fcgl_params, 20)
    halves = traced_halves(monkeypatch)
    merged = ct.trace_branch(prob, z, 1.6, controls)
    for _, branch, work, _ in halves:
        # one solve per corrector iteration, at least one iteration for
        # each point after the first
        assert work.gmres_solves == work.corrector_iterations
        assert work.corrector_iterations >= len(branch.points) - 1
        assert work.matvecs > work.gmres_solves
        assert work.gmres_unconverged == 0
    assert_counts_add_up(merged.stats, start, halves)


def test_trace_branch_keeps_a_stalled_half(fcgl_params, monkeypatch):
    prob, z, controls, start = flat_trace_setup(fcgl_params, 20)
    halves = traced_halves(monkeypatch, stall=(-1,))
    with pytest.raises(StalledBranchError) as err:
        ct.trace_branch(prob, z, 1.6, controls)
    (d_back, back, _, _), (d_fwd, fwd, _, _) = halves
    assert (d_back, d_fwd) == (-1, +1)
    assert fwd.params[-1] > 1.6
    joined = err.value.branch
    assert len(joined.points) == len(back.points) + len(fwd.points) - 1
    assert joined.params[0] == back.params[-1]
    assert joined.params[-1] == fwd.params[-1]
    assert_counts_add_up(joined.stats, start, halves)


def test_stalled_branch_counts_rejected_steps(fcgl_params, monkeypatch):
    prob, z, controls = stall_every_step(monkeypatch, fcgl_params)
    with pytest.raises(StalledBranchError) as err:
        ct.trace_branch(prob, z, 1.6, controls)
    stats = err.value.branch.stats
    # in each direction ds0 = 0.01 halves four times to fall below 1e-3
    assert stats.step_rejections == 8
    assert stats.corrector_iterations == 0


def capped_corrector(problem, z_pred, p_pred, tau_z, tau_p, controls, stats):
    """_corrector with the cap of eight corrections as its only rejection
    test: no contraction test and no finiteness test."""
    z, pm = z_pred.copy(), p_pred
    precond = problem.preconditioner(p_pred)
    nz, count = z.size, 2 * problem.symbol.size
    row = math.sqrt(float(tau_z @ tau_z) / count**2 + tau_p**2)
    for it in range(1, 8 + 2):
        r = problem.residual(z, pm)
        cons = (float(tau_z @ (z - z_pred)) / count + tau_p * (pm - p_pred)) / row
        rn = problem.max_norm(r)
        if max(rn, abs(cons)) < controls.newton_tol:
            return z, pm, min(it, 8)
        if it > 8:
            break
        inner_rtol = 1e-5 if rn > 1e-5 else 1e-8
        matvec, psolve = ct._bordered(problem, precond, z, pm, tau_z, tau_p,
                                      count, row)
        dy = stats.solve(matvec, -np.concatenate([r, [cons]]), psolve,
                         inner_rtol)
        z = z + dy[:nz]
        pm += float(dy[nz])
    raise ct._CorrectorFailed


def corrections(prob, stats):
    """The arclength-metric sizes of the corrections stats solves from now
    on, a list that grows with each solve."""
    sizes, solve = [], stats.solve

    def recorded(*args):
        dy = solve(*args)
        sizes.append(ct._wnorm(prob, dy[:-1], dy[-1]))
        return dy

    stats.solve = recorded
    return sizes


def predicted(start, ds):
    """The corrector's arguments for a step ds along the tangent of start,
    less the stats."""
    prob, z, tau_z, tau_p = start
    return (prob, z + ds * tau_z, 1.95 + ds * tau_p, tau_z, tau_p,
            ct.ContinuationControls())


def test_corrector_rejects_a_step_that_stops_contracting(fcgl_params):
    start = localized_start(fcgl_params)
    stats = ct.SolveStats()
    sizes = corrections(start[0], stats)
    with pytest.raises(ct._CorrectorFailed):
        ct._corrector(*predicted(start, 0.5), stats)
    assert 2 <= stats.gmres_solves == len(sizes) < ct.MAX_CORRECTOR
    assert all(b < a for a, b in zip(sizes[:-2], sizes[1:-1]))
    assert sizes[-1] >= sizes[-2]
    # the cap alone spends all its corrections on this step, and fails
    capped = ct.SolveStats()
    with pytest.raises(ct._CorrectorFailed):
        capped_corrector(*predicted(start, 0.5), capped)
    assert capped.gmres_solves == 8


@pytest.mark.parametrize("cap", [1, 2])
def test_corrector_cap_rejects_a_contracting_step(fcgl_params, monkeypatch,
                                                  cap):
    start = localized_start(fcgl_params)
    stats = ct.SolveStats()
    sizes = corrections(start[0], stats)
    ct._corrector(*predicted(start, 0.04), stats)
    assert len(sizes) == 3 and sizes[0] > sizes[1] > sizes[2]
    monkeypatch.setattr(ct, "MAX_CORRECTOR", cap)
    capped = ct.SolveStats()
    with pytest.raises(ct._CorrectorFailed):
        ct._corrector(*predicted(start, 0.04), capped)
    assert capped.gmres_solves == cap


def rejected_steps(monkeypatch, start, controls):
    """The counters of the branch through the state of start, and the
    corrector arguments (less the stats) and matvecs of each step it
    rejected."""
    prob, z, _, _ = start
    rejected, corrector = [], ct._corrector

    def spy(*args):
        stats = args[-1]
        before = stats.matvecs
        try:
            return corrector(*args)
        except ct._CorrectorFailed:
            rejected.append((args[:-1], stats.matvecs - before))
            raise

    monkeypatch.setattr(ct, "_corrector", spy)
    return ct.trace_branch(prob, z, 1.95, controls).stats, rejected


def fails_under_the_cap_alone(args):
    try:
        capped_corrector(*args, ct.SolveStats())
    except ct._CorrectorFailed:
        return True
    return False


def test_rejected_steps_fail_under_the_cap_alone(fcgl_params, monkeypatch):
    # the first 50 points of the acceptance branch (criterion 03) at n = 128
    controls = ct.ContinuationControls(ds0=0.01, ds_max=0.04, param_min=1.35,
                                       param_max=2.05, max_points=40)
    stats, rejected = rejected_steps(monkeypatch,
                                     localized_start(fcgl_params), controls)
    assert len(rejected) == stats.step_rejections > 0
    assert stats.rejected_matvecs == sum(m for _, m in rejected) > 0
    assert all(fails_under_the_cap_alone(args) for args, _ in rejected)


@pytest.mark.parametrize("ds0, ds_max, max_points", [(0.02, 0.08, 30),
                                                    (0.1, 0.5, 8)])
def test_wide_steps_trace_the_branch_of_the_cap_alone(fcgl_params,
                                                      monkeypatch, ds0,
                                                      ds_max, max_points):
    # steps this long carry the branch toward onset, where some steps
    # converge within the cap after a correction larger than the one before
    # it; a test of the corrections alone rejects them and retries them
    # shorter, so its branch has other points than the cap's
    controls = ct.ContinuationControls(ds0=ds0, ds_max=ds_max,
                                       max_points=max_points)
    prob, z, _, _ = localized_start(fcgl_params)
    branch = ct.trace_branch(prob, z, 1.95, controls)
    grown = []

    def capped(*args):
        sizes = corrections(prob, args[-1])
        out = capped_corrector(*args)
        grown.append(any(b >= a for a, b in zip(sizes, sizes[1:])))
        return out

    monkeypatch.setattr(ct, "_corrector", capped)
    alone = ct.trace_branch(prob, z, 1.95, controls)
    assert any(grown)
    assert np.array_equal(branch.params, alone.params)
    assert np.array_equal(branch.norms, alone.norms)
    assert branch.folds == alone.folds
    assert branch.stats.step_rejections == alone.stats.step_rejections
    assert branch.stats.matvecs <= alone.stats.matvecs


def test_non_finite_residual_is_never_solved(fcgl_params):
    class Poisoned(ct.FcglSteadyProblem):
        def residual(self, z, gamma):
            return np.full(self.size, np.nan)

    prob = Poisoned(fcgl_params, n=64, length=LENGTH)
    z, tau_z = np.zeros(prob.size), np.zeros(prob.size)
    stats = ct.SolveStats()
    with pytest.raises(DivergenceError):
        ct.newton_solve(prob, z, 1.5, stats=stats)
    with pytest.raises(ct._CorrectorFailed):
        ct._corrector(prob, z, 1.5, tau_z, -1.0, ct.ContinuationControls(),
                      stats)
    # in one direction ds0 = 0.01 halves four times to fall below 1e-3
    with pytest.raises(StalledBranchError):
        ct.continue_branch(prob, z, 1.5, tau_z, -1.0,
                           ct.ContinuationControls(ds_min=1e-3), stats)
    assert stats == ct.SolveStats(step_rejections=4)

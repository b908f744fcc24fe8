"""Steady states, pseudo-arclength continuation, and stability flags.

Steady solutions of the amplitude equation, and time-periodic solutions of
the forced model written as a truncated harmonic expansion
U(x, t) = sum_j U_j(x) e^{i j t} over j in {-3, -1, 1, 3}, are found by
Newton iteration on the periodic pseudospectral collocation residual.  The
conjugate couplings make the systems only real-linear, so Newton runs on the
stacked real and imaginary parts with a matrix-free Krylov solver
preconditioned by the inverse diagonal symbol of the linear part.
Reflection symmetry about the domain centre is imposed on every iterate,
which quotients out translations.  Branches are traced with secant
pseudo-arclength steps; folds are flagged at sign changes of the parameter
increment and refined with a local quadratic fit.
"""
from __future__ import annotations

import math
from dataclasses import asdict, astuple, dataclass, field, replace

import numpy as np

from . import etd, spectral
from .core import FcglParams, ModelParams, ScalingMap
from .errors import (DivergenceError, InvalidFieldError, OscillabError,
                     ParameterError, StalledBranchError)
from .fields import ComplexField, solution_norm

TWO_PI = 2.0 * math.pi


def reflect(values: np.ndarray) -> np.ndarray:
    """Samples of x -> f(-x) on the periodic grid (reflection through x = 0)."""
    return np.roll(values[..., ::-1], 1, axis=-1)


GMRES_RESTART = 150     # Krylov vectors per cycle
GMRES_CYCLES = 4        # restart cycles before a solve counts as unconverged
_EPS = float(np.finfo(float).eps)


def _givens(f: float, g: float) -> tuple[float, float, float]:
    """(c, s, r) with c f + s g = r and c g - s f = 0, signed as LAPACK's lartg."""
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, math.copysign(1.0, g), abs(g)
    d = math.hypot(f, g)
    r = math.copysign(d, f)
    return abs(f) / d, g / r, r


def _gmres(matvec, b: np.ndarray, psolve, rtol: float):
    """Restarted GMRES (Saad & Schultz 1986) for A x = b from x = 0, left-
    preconditioned by psolve ~ A^-1; returns (x, info, matvecs), info 0 when
    ||b - A x|| <= rtol ||b|| within GMRES_CYCLES cycles, else GMRES_CYCLES.

    The stopping rule is scipy's: each cycle stops once the preconditioned
    residual estimate meets a tolerance that is adapted between cycles as in
    scipy gh-8400, or on breakdown, and convergence is judged on the true
    residual at the end of each cycle.  The Krylov basis is preallocated and
    orthogonalised by classical Gram-Schmidt applied twice (CGS2, as stable
    as modified Gram-Schmidt), one BLAS product per pass; the Givens
    rotations act on Python floats and the triangular solve runs once per
    cycle.
    """
    b = np.asarray(b, dtype=float)
    x = np.zeros(b.size)
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, 0, 0
    atol = rtol * bnorm
    m = min(GMRES_RESTART, b.size)
    basis = np.empty((m + 1, b.size))
    upper = np.zeros((m, m))    # R of the rotated Hessenberg matrix
    ptol_factor = 1.0
    ptol = float(np.linalg.norm(psolve(b))) * min(1.0, atol / bnorm)
    r, matvecs, presid = b, 0, 0.0
    for _ in range(GMRES_CYCLES):
        v = psolve(r)
        beta = float(np.linalg.norm(v))
        basis[0] = v * (1.0 / beta)
        g = [beta]
        rotations = []
        breakdown = False
        for j in range(m):
            w = psolve(matvec(basis[j]))
            matvecs += 1
            h0 = float(np.linalg.norm(w))
            vj = basis[:j + 1]
            h = vj @ w
            w -= h @ vj
            h2 = vj @ w
            w -= h2 @ vj
            h += h2
            h1 = float(np.linalg.norm(w))
            if h1 <= _EPS * h0:
                h1, breakdown = 0.0, True
            else:
                np.multiply(w, 1.0 / h1, out=basis[j + 1])
            col = h.tolist()
            for k, (c, s) in enumerate(rotations):
                lo, hi = col[k], col[k + 1]
                col[k], col[k + 1] = c * lo + s * hi, c * hi - s * lo
            c, s, col[j] = _givens(col[j], h1)
            rotations.append((c, s))
            upper[:j + 1, j] = col
            g.append(-s * g[j])
            g[j] *= c
            presid = abs(g[j + 1])
            if presid <= ptol or breakdown:
                break
        k = j + 1
        y = np.array(g[:k])
        if upper[j, j] == 0.0:
            y[j] = 0.0
        for i in range(j, -1, -1):       # back-substitution, zeros skipped
            if y[i] != 0.0:
                y[i] /= upper[i, i]
                y[:i] -= y[i] * upper[:i, i]
        x += y @ basis[:k]
        r = b - matvec(x)
        matvecs += 1
        rnorm = float(np.linalg.norm(r))
        if rnorm <= atol or breakdown:
            break
        if presid <= ptol:
            ptol_factor = max(_EPS, 0.25 * ptol_factor)
        else:
            ptol_factor = min(1.0, 1.5 * ptol_factor)
        ptol = presid * min(ptol_factor, atol / rnorm)
    return x, (0 if rnorm <= atol else GMRES_CYCLES), matvecs


class _SteadyProblem:
    """Steady states of u' = symbol u + N(u, t), the right-hand side of the
    ETD stepper for the same parameters: the residual

        ifft(symbol * a_hat + coeffs(N(samples(a_hat), times))),

    its Jacobian as a plain callable and its derivative in the drive, all
    generic over the two hooks samples and coeffs.  Also shared: packing of
    the complex profiles into real unknowns, reflection symmetry, the
    solution norm and the preconditioner, which divides by the symbol
    floored at PRECOND_FLOOR in modulus."""

    PRECOND_FLOOR = 1e-2
    times = 0.0                 # the forcing's time at the samples

    def __init__(self, params, n: int, length: float, harmonics=0):
        self.params = params
        self.n = n
        self.length = length
        self.symbol = params.symbol(spectral.wavenumbers(n, length)) - 1j * harmonics
        self.size = 2 * self.symbol.size

    def samples(self, a_hat: np.ndarray) -> np.ndarray:
        """Samples on the dealiasing grid of the profiles with coefficients a_hat."""
        return spectral.to_fine(a_hat)

    def coeffs(self, w: np.ndarray) -> np.ndarray:
        """Profile coefficients of the samples w, the inverse of samples."""
        return spectral.from_fine(w, self.n)

    def _spectrum(self, z: np.ndarray) -> np.ndarray:
        return np.fft.fft(self.unpack(z), axis=-1)

    def _grid(self, a_hat: np.ndarray) -> np.ndarray:
        return self.pack(np.fft.ifft(a_hat, axis=-1))

    def residual(self, z: np.ndarray, drive: float) -> np.ndarray:
        a_hat = self._spectrum(z)
        w = self.params.nonlinear(self.samples(a_hat), self.times, drive)
        return self._grid(self.symbol * a_hat + self.coeffs(w))

    def jacobian(self, z: np.ndarray, drive: float):
        dn = self.params.linearization(self.samples(self._spectrum(z)),
                                       self.times, drive)

        def matvec(dz):
            d_hat = self._spectrum(dz)
            return self._grid(self.symbol * d_hat + self.coeffs(dn(self.samples(d_hat))))

        return matvec

    def dparam(self, z: np.ndarray, drive: float) -> np.ndarray:
        u = self.samples(self._spectrum(z))
        return self._grid(self.coeffs(self.params.forcing(u, self.times, 1.0)))

    def unpack(self, z: np.ndarray) -> np.ndarray:
        half = self.size // 2
        return (z[:half] + 1j * z[half:]).reshape(self.symbol.shape)

    def pack(self, a: np.ndarray) -> np.ndarray:
        return np.concatenate([a.real.ravel(), a.imag.ravel()])

    def symmetrize(self, z: np.ndarray) -> np.ndarray:
        a = self.unpack(z)
        return self.pack(0.5 * (a + reflect(a)))

    def norm_of(self, z: np.ndarray) -> float:
        return solution_norm(self.unpack(z))

    def preconditioner(self):
        floor = self.PRECOND_FLOOR
        sym = self.symbol.copy()
        small = np.abs(sym) < floor
        sym[small] = floor * np.exp(1j * np.angle(sym[small]))
        return lambda z: self._grid(self._spectrum(z) / sym)


# ---- steady amplitude-equation problem ----

class FcglSteadyProblem(_SteadyProblem):
    """Steady states of the forced amplitude equation; the continuation
    parameter is gamma."""

    def __init__(self, params: FcglParams, n: int = 512, length: float = 20.0 * math.pi):
        super().__init__(params, n, length)

    def state_of(self, z: np.ndarray, gamma: float) -> ComplexField:
        return ComplexField(self.length, self.unpack(z))


# ---- harmonic collocation problem for the forced model ----

DEFAULT_PDE_HARMONICS = (-3, -1, 1, 3)


class PdeHarmonicProblem(_SteadyProblem):
    """Time-periodic states of the forced model as coupled harmonic profiles.

    The residual of harmonic j is

        (mu + i(omega - j)) U_j + (alpha + i beta) U_j'' + N_j = 0

    with N_j the projection of N(U, t) onto e^{i j t}, evaluated by
    collocation at n_colloc equispaced times (alias-free for the retained odd
    harmonics).  By default n_colloc is the smallest power of two above
    4 max|j|, which is 16 for the default harmonics.  The continuation
    parameter is F.
    """

    PRECOND_FLOOR = 2e-2

    def __init__(self, params: ModelParams, n: int = 1280,
                 length: float = 200.0 * math.pi,
                 harmonics=DEFAULT_PDE_HARMONICS, n_colloc: int | None = None):
        self.harmonics = np.asarray(harmonics, dtype=int)
        top = 4 * int(np.max(np.abs(self.harmonics)))
        if n_colloc is None:
            n_colloc = 1 << top.bit_length()
        if n_colloc <= top:
            raise ParameterError("n_colloc too small to dealias the cubic in time")
        super().__init__(params, n, length, self.harmonics[:, None])
        t = TWO_PI * np.arange(n_colloc) / n_colloc
        self.times = t[:, None]
        self.carrier = np.exp(1j * np.outer(t, self.harmonics))        # (M, nh)
        self.project = np.exp(-1j * np.outer(self.harmonics, t)) / n_colloc

    def samples(self, a_hat: np.ndarray) -> np.ndarray:
        """U(x, t_i) at the collocation times on the dealiasing grid, (M, pad)."""
        return self.carrier @ spectral.to_fine(a_hat)

    def coeffs(self, w: np.ndarray) -> np.ndarray:
        return spectral.from_fine(self.project @ w, self.n)

    def state_of(self, z: np.ndarray, f: float) -> HarmonicPdeState:
        return HarmonicPdeState(length=self.length, harmonics=self.harmonics,
                                profiles=self.unpack(z), f=f)


# ---- converged state containers ----

@dataclass
class SteadyFcglState:
    field: ComplexField
    gamma: float
    residual_norm: float
    iterations: int


@dataclass
class HarmonicPdeState:
    length: float
    harmonics: np.ndarray
    profiles: np.ndarray          # (n_harmonics, n) complex
    f: float
    residual_norm: float = math.nan

    @property
    def n(self) -> int:
        return self.profiles.shape[-1]

    def reconstruct(self, t: float = 0.0) -> ComplexField:
        phases = np.exp(1j * self.harmonics * t)
        return ComplexField(self.length, phases @ self.profiles)

    @property
    def norm(self) -> float:
        return solution_norm(self.profiles)


# ---- Newton solver ----

@dataclass
class SolveStats:
    """Solver work counters of a Newton solve or a branch.  They are
    deterministic, so they belong in the output files."""
    gmres_solves: int = 0
    matvecs: int = 0
    gmres_unconverged: int = 0
    corrector_iterations: int = 0
    step_rejections: int = 0

    def solve(self, matvec, b, psolve, rtol: float) -> np.ndarray:
        """_gmres(matvec, b, psolve, rtol), counted; returns the solution."""
        x, info, matvecs = _gmres(matvec, b, psolve, rtol)
        self.gmres_solves += 1
        self.matvecs += matvecs
        self.gmres_unconverged += int(info != 0)
        return x

    def __add__(self, other: SolveStats) -> SolveStats:
        pairs = zip(astuple(self), astuple(other))
        return SolveStats(*(a + b for a, b in pairs))

    def items(self) -> list[tuple[str, int]]:
        return list(asdict(self).items())


def newton_solve(problem, z0: np.ndarray, param: float, tol: float = 1e-10,
                 max_iter: int = 25, stats: SolveStats | None = None):
    """Damped inexact Newton on the packed real system; returns (z, res, iters).
    Its Krylov solves are counted in stats, when given."""
    stats = stats if stats is not None else SolveStats()
    precond = problem.preconditioner()
    z = problem.symmetrize(np.asarray(z0, dtype=float))
    r = problem.residual(z, param)
    rn = float(np.max(np.abs(r)))
    for it in range(max_iter):
        if rn < tol:
            return z, rn, it
        inner_rtol = 1e-4 if rn > 1e-4 else 1e-8
        dz = stats.solve(problem.jacobian(z, param), -r, precond, inner_rtol)
        accepted = False
        for scale in (1.0, 0.5, 0.25, 0.125):
            z_try = problem.symmetrize(z + scale * dz)
            r_try = problem.residual(z_try, param)
            rn_try = float(np.max(np.abs(r_try)))
            if rn_try < rn or rn_try < tol:
                z, r, rn = z_try, r_try, rn_try
                accepted = True
                break
        if not accepted:
            raise DivergenceError(rn)
    if rn < tol:
        return z, rn, max_iter
    raise DivergenceError(rn)


def newton_fcgl(seed: ComplexField, gamma: float, params: FcglParams,
                tol: float = 1e-10, max_iter: int = 25) -> SteadyFcglState:
    """Converge a steady amplitude-equation state from a seed field."""
    problem = FcglSteadyProblem(replace(params, gamma=gamma), n=seed.n,
                                length=seed.length)
    z, rn, it = newton_solve(problem, problem.pack(seed.values), gamma,
                             tol=tol, max_iter=max_iter)
    return SteadyFcglState(field=problem.state_of(z, gamma), gamma=gamma,
                           residual_norm=rn, iterations=it)


def newton_pde(seed: HarmonicPdeState, f: float, params: ModelParams,
               tol: float = 1e-10, max_iter: int = 25) -> HarmonicPdeState:
    """Converge a harmonic time-periodic state of the forced model."""
    problem = PdeHarmonicProblem(params, n=seed.n, length=seed.length,
                                 harmonics=tuple(seed.harmonics))
    z, rn, _ = newton_solve(problem, problem.pack(seed.profiles), f,
                            tol=tol, max_iter=max_iter)
    return replace(problem.state_of(z, f), residual_norm=rn)


# ---- snapshot projection ----

def project_snapshots(fields: list[ComplexField], times: np.ndarray,
                      harmonics=DEFAULT_PDE_HARMONICS, f: float = math.nan
                      ) -> HarmonicPdeState:
    """Least-squares fit of harmonic profiles to stroboscopically offset
    snapshots; for equispaced times this is the discrete Fourier projection
    P_j = (1/M) sum_s U(x, t_s) e^{-i j t_s}."""
    harmonics = np.asarray(harmonics, dtype=int)
    stack = np.stack([fld.values for fld in fields])          # (M, n)
    design = np.exp(1j * np.outer(np.asarray(times), harmonics))
    profiles, *_ = np.linalg.lstsq(design, stack, rcond=None)
    return HarmonicPdeState(length=fields[0].length, harmonics=harmonics,
                            profiles=profiles, f=f)


def timestepper_harmonics(stepper: etd.SpectralStepper, f: float,
                          harmonics=DEFAULT_PDE_HARMONICS,
                          n_snapshots: int = 16) -> HarmonicPdeState:
    """Collect n_snapshots over one response period and project; the stepper
    dt must divide the snapshot spacing 2*pi/n_snapshots."""
    spacing = TWO_PI / n_snapshots
    sub = int(round(spacing / stepper.scheme.dt))
    if abs(sub * stepper.scheme.dt - spacing) > 1e-9 * spacing:
        raise ParameterError("dt must divide the snapshot spacing")
    fields, times = [], []
    for _ in range(n_snapshots):
        fields.append(stepper.field)
        times.append(stepper.t)
        stepper.run(sub)
    return project_snapshots(fields, np.asarray(times), harmonics, f=f)


# ---- branches ----

STEP_GROWTH = 1.3   # step-size factor after a fast corrector
FAST_ITERS = 3      # corrector iterations that count as fast


@dataclass
class ContinuationControls:
    ds0: float = 0.01
    ds_min: float = 1e-5
    ds_max: float = 0.05
    max_points: int = 300
    param_min: float = -math.inf
    param_max: float = math.inf
    tol: float = 1e-10
    max_corrector: int = 8


@dataclass
class BranchPoint:
    index: int
    param: float
    norm: float
    z: np.ndarray = field(repr=False)
    arclength: float = 0.0
    stability: str = "unclassified"
    fold: bool = False
    leading_rate: float = math.nan


@dataclass
class Branch:
    points: list[BranchPoint]
    folds: list[float]
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def params(self) -> np.ndarray:
        return np.array([pt.param for pt in self.points])

    @property
    def norms(self) -> np.ndarray:
        return np.array([pt.norm for pt in self.points])


class _CorrectorFailed(Exception):
    pass


def _wnorm(dz: np.ndarray, dp: float) -> float:
    return math.sqrt(float(dz @ dz) / dz.size + dp * dp)


def _bordered(problem, precond, z, pm, tau_z, tau_p):
    """Matvec and preconditioner of the arclength-bordered Jacobian at
    (z, pm): the residual's Jacobian with its parameter column, closed by the
    arclength row along the tangent (tau_z, tau_p) normalised to unit size.
    The preconditioner acts on the z-block only."""
    nz = z.size
    row = math.sqrt(float(tau_z @ tau_z) / nz**2 + tau_p**2)
    jac = problem.jacobian(z, pm)
    rp = problem.dparam(z, pm)

    def matvec(dy):
        dz, dp = dy[:nz], dy[nz]
        out = np.empty(nz + 1)
        out[:nz] = jac(dz)
        out[:nz] += rp * dp
        out[nz] = (float(tau_z @ dz) / nz + tau_p * dp) / row
        return out

    def psolve(dy):
        out = np.empty(nz + 1)
        out[:nz] = precond(dy[:nz])
        out[nz] = dy[nz]
        return out

    return matvec, psolve


def _corrector(problem, precond, z_pred, p_pred, tau_z, tau_p, controls,
               stats: SolveStats):
    z, pm = z_pred.copy(), p_pred
    nz = z.size
    row = math.sqrt(float(tau_z @ tau_z) / nz**2 + tau_p**2)
    # the last pass only checks whether the final update converged
    for it in range(1, controls.max_corrector + 2):
        r = problem.residual(z, pm)
        cons = (float(tau_z @ (z - z_pred)) / nz + tau_p * (pm - p_pred)) / row
        rn = float(np.max(np.abs(r)))
        if max(rn, abs(cons)) < controls.tol:
            return z, pm, min(it, controls.max_corrector)
        if it > controls.max_corrector:
            break
        inner_rtol = 1e-5 if rn > 1e-5 else 1e-8
        matvec, psolve = _bordered(problem, precond, z, pm, tau_z, tau_p)
        stats.corrector_iterations += 1
        dy = stats.solve(matvec, -np.concatenate([r, [cons]]), psolve,
                         inner_rtol)
        z = problem.symmetrize(z + dy[:nz])
        pm += float(dy[nz])
    raise _CorrectorFailed


def _initial_tangent(problem, precond, z, param, direction, stats: SolveStats):
    rp = problem.dparam(z, param)
    b = stats.solve(problem.jacobian(z, param), -rp, precond, 1e-8)
    scale = _wnorm(b, 1.0)
    tz, tp = b / scale, 1.0 / scale
    if math.copysign(1.0, tp) != math.copysign(1.0, direction):
        tz, tp = -tz, -tp
    return tz, tp


def continue_branch(problem, z0: np.ndarray, param0: float, direction: int = -1,
                    controls: ContinuationControls | None = None) -> Branch:
    """Trace a solution branch from a converged starting point.

    direction sets the initial parameter direction (+1 or -1).  Steps adapt
    between ds_min and ds_max: halve on corrector failure, grow after fast
    convergence.  Raises StalledBranchError (carrying the partial branch)
    when the step size underflows.
    """
    controls = controls or ContinuationControls()
    stats = SolveStats()
    precond = problem.preconditioner()
    z, rn, _ = newton_solve(problem, z0, param0, tol=controls.tol, stats=stats)
    points = [BranchPoint(index=0, param=param0, norm=problem.norm_of(z), z=z)]
    tau_z, tau_p = _initial_tangent(problem, precond, z, param0, direction,
                                    stats)
    param = param0
    ds = controls.ds0
    arclength = 0.0
    while len(points) < controls.max_points:
        z_pred = z + ds * tau_z
        p_pred = param + ds * tau_p
        try:
            z_new, p_new, iters = _corrector(problem, precond, z_pred, p_pred,
                                             tau_z, tau_p, controls, stats)
        except _CorrectorFailed:
            stats.step_rejections += 1
            ds *= 0.5
            if ds < controls.ds_min:
                raise StalledBranchError(_folded_branch(points, stats))
            continue
        dz, dp = z_new - z, p_new - param
        step = _wnorm(dz, dp)
        tau_z, tau_p = dz / step, dp / step
        z, param = z_new, p_new
        arclength += step
        points.append(BranchPoint(index=len(points), param=param,
                                  norm=problem.norm_of(z), z=z,
                                  arclength=arclength))
        if iters <= FAST_ITERS:
            ds = min(ds * STEP_GROWTH, controls.ds_max)
        if not (controls.param_min <= param <= controls.param_max):
            break
    return _folded_branch(points, stats)


def _folded_branch(pts: list[BranchPoint], stats: SolveStats) -> Branch:
    """Branch through pts with its turning points flagged, each fold
    parameter refined by a quadratic fit of param against arclength through
    the three bracketing points."""
    folds = []
    for i in range(len(pts) - 2):
        d1 = pts[i + 1].param - pts[i].param
        d2 = pts[i + 2].param - pts[i + 1].param
        if d1 == 0.0 or d2 == 0.0 or math.copysign(1.0, d1) == math.copysign(1.0, d2):
            continue
        s = np.array([pts[i].arclength, pts[i + 1].arclength, pts[i + 2].arclength])
        p = np.array([pts[i].param, pts[i + 1].param, pts[i + 2].param])
        coeff = np.polyfit(s - s[1], p, 2)
        if coeff[0] != 0.0:
            s_star = -coeff[1] / (2.0 * coeff[0])
            s_star = min(max(s_star, s[0] - s[1]), s[2] - s[1])
            p_star = float(np.polyval(coeff, s_star))
        else:
            p_star = pts[i + 1].param
        pts[i + 1].fold = True
        folds.append(p_star)
    return Branch(points=pts, folds=folds, stats=stats)


def _merge_branches(back: Branch, forward: Branch) -> Branch:
    """Join two branches traced in opposite directions from one seed point;
    the solver counters of the two add up."""
    pts = list(reversed(back.points[1:])) + forward.points
    merged, arc, prev = [], 0.0, None
    for i, pt in enumerate(pts):
        if prev is not None:
            arc += _wnorm(pt.z - prev.z, pt.param - prev.param)
        merged.append(replace(pt, index=i, arclength=arc, fold=False))
        prev = pt
    return _folded_branch(merged, back.stats + forward.stats)


def trace_branch(problem, z0: np.ndarray, param0: float,
                 controls: ContinuationControls | None = None) -> Branch:
    """Newton-polish z0 at param0, continue from it in both directions and
    join the halves, counting all the solver work.  A stalled half is kept
    and the other still traced; StalledBranchError then carries the join."""
    controls = controls or ContinuationControls()
    polish = SolveStats()
    z, _, _ = newton_solve(problem, z0, param0, tol=controls.tol, stats=polish)
    halves, stalled = [], False
    for direction in (-1, +1):
        try:
            halves.append(continue_branch(problem, z, param0, direction,
                                          controls))
        except StalledBranchError as exc:
            halves.append(exc.branch)
            stalled = True
    branch = _merge_branches(*halves)
    branch.stats += polish
    if stalled:
        raise StalledBranchError(branch)
    return branch


# ---- stability ----

def leading_rates_fcgl(problem: FcglSteadyProblem, z: np.ndarray,
                       gamma: float) -> np.ndarray:
    """Eigenvalue real parts of the discrete Jacobian about a reflection-
    symmetric steady state, largest first.  The Jacobian maps even fields to
    even and odd to odd; each block is assembled on half the grid, column i
    being the Jacobian of e_i +- e_mirror(i), and solved densely on its own."""
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise InvalidFieldError("steady state has non-finite samples")
    a = problem.unpack(z)
    if np.max(np.abs(a - reflect(a))) > 1e-12 * max(1.0, np.max(np.abs(a))):
        raise ParameterError("steady state is not reflection-symmetric")
    jac = problem.jacobian(z, gamma)
    n, half = problem.n, problem.n // 2
    e = np.zeros(problem.size)
    rates = []
    for sign, idx in ((1.0, np.arange(half + 1)), (-1.0, np.arange(1, half))):
        rows = np.concatenate([idx, n + idx])
        mirrors = np.concatenate([(n - idx) % n, n + (n - idx) % n])
        block = np.empty((rows.size, rows.size), order="F")
        for col, (i, m) in enumerate(zip(rows, mirrors)):
            e[m], e[i] = sign, 1.0
            block[:, col] = jac(e)[rows]
            e[m] = e[i] = 0.0
        rates.append(np.linalg.eigvals(block).real)
        del block
    return np.sort(np.concatenate(rates))[::-1]


class Label(str):
    """A stability label that also carries the leading rate behind it."""

    def __new__(cls, label: str, rate: float = math.nan):
        obj = super().__new__(cls, label)
        obj.rate = rate
        return obj


def classify_stability_fcgl(problem: FcglSteadyProblem, z: np.ndarray,
                            gamma: float, threshold: float = 1e-8) -> Label:
    """Label by the largest eigenvalue real part.  A non-uniform state has a
    neutral translation mode, the rate nearest zero, which is left out so
    that the rate shows the stability margin."""
    try:
        rates = leading_rates_fcgl(problem, z, gamma)
    except (np.linalg.LinAlgError, OscillabError):
        return Label("indeterminate")
    a = problem.unpack(np.asarray(z, dtype=float))
    if np.max(np.abs(a - a[0])) > 1e-10 * max(1.0, float(np.max(np.abs(a)))):
        rates = np.delete(rates, np.argmin(np.abs(rates)))
    rate = float(rates[0])
    return Label("stable" if rate < threshold else "unstable", rate)


PDE_LABEL_PERIODS = 40         # stroboscopic samples of the deviation
PDE_LABEL_STEPS = 200          # ETD steps per forcing period
PDE_LABEL_NOISE = 1e-6         # perturbation, relative to the state's rms
PDE_LABEL_RNG_SEED = 0
PDE_LABEL_THRESHOLD = 1e-4     # fitted rates below this are stable


def classify_stability_pde(state: HarmonicPdeState, params: ModelParams):
    """Time-stepping stability flag: perturb the reconstruction by relative
    noise, evolve it beside the unperturbed one as two rows of one stepper,
    and fit the exponential growth of the stroboscopic deviation.  Returns
    (label, fitted_rate)."""
    p = replace(params, f=state.f)
    base = state.reconstruct(0.0)
    rng = np.random.default_rng(PDE_LABEL_RNG_SEED)
    rms = math.sqrt(float(np.mean(np.abs(base.values) ** 2)))
    bump = rng.standard_normal(base.n) + 1j * rng.standard_normal(base.n)
    pert = ComplexField(base.length, base.values
                        + PDE_LABEL_NOISE * rms * bump / math.sqrt(2.0))
    stepper = etd.make_stepper([base, pert], [p, p], TWO_PI / PDE_LABEL_STEPS)
    times, devs = [], []
    for _ in range(PDE_LABEL_PERIODS):
        stepper.run(PDE_LABEL_STEPS)
        times.append(stepper.t)
        devs.append(spectral.parseval_norm(stepper.u[1] - stepper.u[0]))
    times, devs = np.asarray(times), np.asarray(devs)
    ok = (devs > 1e-13) & (devs < 1e-2 * state.norm)
    if np.count_nonzero(ok) < 5:
        return "indeterminate", math.nan
    rate = float(np.polyfit(times[ok], np.log(devs[ok]), 1)[0])
    return ("stable" if rate < PDE_LABEL_THRESHOLD else "unstable"), rate


def classify_branch(branch: Branch, classify, stride: int = 1) -> None:
    """Set (label, rate) = classify(z, param) on every stride-th point."""
    for pt in branch.points:
        if stride > 0 and pt.index % stride == 0:
            pt.stability, pt.leading_rate = classify(pt.z, pt.param)


# ---- branch comparison ----

OVERLAY_SAMPLES = 60    # parameters at which the branches are compared
OVERLAY_TRIM = 0.02     # share of the window cut at each end, next to the
                        # folds, where the norm is vertical in the parameter


def overlay_mismatch(fcgl_branch: Branch, pde_branch: Branch,
                     scaling: ScalingMap) -> tuple[float, float, float]:
    """(worst, lo, hi): the largest gap between the two branches' norms,
    relative to the amplitude equation's, at OVERLAY_SAMPLES parameters
    spanning [lo, hi], the overlap of the pieces between each branch's outer
    folds less OVERLAY_TRIM of it at each end.  The forced-model branch is
    first mapped to the amplitude-equation frame: parameter through
    scaling.to_gamma, norm divided by epsilon."""
    pieces = []
    for branch in (fcgl_branch, pde_branch):
        q = branch.params
        folds = [k for k, pt in enumerate(branch.points) if pt.fold]
        if len(folds) < 2:
            raise ParameterError(f"a branch has {len(folds)} fold point(s); "
                                 "the overlay needs two")
        i, j = sorted((min(folds, key=q.__getitem__),
                       max(folds, key=q.__getitem__)))
        pieces.append((q[i:j + 1], branch.norms[i:j + 1]))
    (qa, na), (qb, nb) = pieces
    qb, nb = scaling.to_gamma(qb), nb / scaling.epsilon
    lo, hi = max(qa.min(), qb.min()), min(qa.max(), qb.max())
    if hi <= lo:
        raise ParameterError("the branches' fold windows do not overlap")
    pad = OVERLAY_TRIM * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, OVERLAY_SAMPLES)
    ia, ib = np.argsort(qa), np.argsort(qb)
    va = np.interp(grid, qa[ia], na[ia])
    vb = np.interp(grid, qb[ib], nb[ib])
    worst = float(np.max(np.abs(va - vb) / np.abs(va)))
    return worst, float(grid[0]), float(grid[-1])

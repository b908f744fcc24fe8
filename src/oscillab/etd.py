"""Second-order exponential time differencing (ETD2) integrators.

The linear, diagonal part of the semilinear system u' = ell*u + N(u, t) is
integrated exactly; the remainder is extrapolated with the two-step ETD2
rule

    u_{n+1} = e^z u_n + dt*g1(z) N_n + dt*g0(z) N_{n-1},       z = ell*dt,
    g1(z) = ((1+z) e^z - 1 - 2z) / z^2,   g0(z) = (1 + z - e^z) / z^2.

The first step falls back to exponential Euler, dt*ge(z) = dt*(e^z - 1)/z.
For small |z| the weight functions are evaluated by averaging over a unit
circle of quadrature nodes around z, which avoids the cancellation in the
direct formulas.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral
from .errors import BlowUpError, ParameterError
from .fields import ComplexField

CONTOUR_POINTS = 32
SMALL_Z = 0.5


def _etd_weight_funcs(z: np.ndarray):
    ez = np.exp(z)
    g1 = ((1.0 + z) * ez - 1.0 - 2.0 * z) / z**2
    g0 = (1.0 + z - ez) / z**2
    ge = (ez - 1.0) / z
    return g1, g0, ge


def etd2_weights(z: np.ndarray):
    """Weight functions (g1, g0, ge) evaluated stably for complex z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 1:      # row by row, which keeps the contour temporaries small
        return tuple(np.stack(w) for w in zip(*map(etd2_weights, z)))
    g1, g0, ge = (np.empty_like(z) for _ in range(3))
    small = np.abs(z) < SMALL_Z
    g1[~small], g0[~small], ge[~small] = _etd_weight_funcs(z[~small])
    # mean over a circle of radius 1 centred at z (mean value property)
    theta = 2.0 * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS
    ring = z[small][:, None] + np.exp(1j * theta)[None, :]
    g1[small], g0[small], ge[small] = (w.mean(axis=1)
                                       for w in _etd_weight_funcs(ring))
    return g1, g0, ge


@dataclass
class EtdScheme:
    """Precomputed per-mode propagator and quadrature weights."""

    dt: float
    ell: np.ndarray
    exp_dt: np.ndarray
    w_new: np.ndarray
    w_old: np.ndarray
    w_euler: np.ndarray


def make_scheme(ell, dt: float) -> EtdScheme:
    if dt <= 0:
        raise ParameterError("time step dt must be positive")
    ell = np.atleast_1d(np.asarray(ell, dtype=complex))
    z = ell * dt
    g1, g0, ge = etd2_weights(z)
    return EtdScheme(dt=dt, ell=ell, exp_dt=np.exp(z),
                     w_new=dt * g1, w_old=dt * g0, w_euler=dt * ge)


class Etd2Stepper:
    """Advance coefficient vectors with ETD2; representation-agnostic.

    nonlinear(u, t) must return the non-stiff part in the same representation
    as u.  The previous evaluation is cached; the first step uses exponential
    Euler.
    """

    def __init__(self, scheme: EtdScheme, nonlinear: Callable, u0, t0: float = 0.0):
        self.scheme = scheme
        self.nonlinear = nonlinear
        self.u = np.asarray(u0, dtype=complex).copy()
        self.t0 = float(t0)
        self.steps = 0
        self._n_prev = None

    @property
    def t(self) -> float:
        return self.t0 + self.steps * self.scheme.dt

    def step(self) -> None:
        """One step, committed only when the new state is finite: a blow-up
        raises BlowUpError, naming the non-finite rows, and leaves u, t and
        steps at the last finite state."""
        s = self.scheme
        # overflow on the way to a blow-up is expected and caught below
        with np.errstate(over="ignore", invalid="ignore"):
            n_cur = self.nonlinear(self.u, self.t)
            if self._n_prev is None:
                u_new = s.exp_dt * self.u + s.w_euler * n_cur
            else:
                u_new = s.exp_dt * self.u + s.w_new * n_cur + s.w_old * self._n_prev
        finite = np.isfinite(u_new)
        if not finite.all():
            raise BlowUpError(self.steps + 1,
                              np.flatnonzero(~finite.all(axis=-1)).tolist())
        self._n_prev = n_cur
        self.u = u_new
        self.steps += 1

    def run(self, n_steps: int, observer: Callable | None = None, stride: int = 1):
        """Take n_steps; call observer(stepper) every stride steps."""
        for i in range(n_steps):
            self.step()
            if observer is not None and (i + 1) % stride == 0:
                observer(self)


class SpectralStepper(Etd2Stepper):
    """ETD2 stepper whose state is the Fourier coefficients of a periodic
    field, or of a stack of fields, one per row (field and norm need one)."""

    def __init__(self, scheme, nonlinear, length: float, values, t0: float = 0.0):
        super().__init__(scheme, nonlinear, np.fft.fft(values), t0)
        self.length = length

    @property
    def field(self) -> ComplexField:
        return ComplexField(self.length, np.fft.ifft(self.u))

    @property
    def norm(self) -> float:
        return spectral.parseval_norm(self.u)


def make_stepper(field, p, dt: float, t0: float = 0.0) -> SpectralStepper:
    """ETD2 for u' = p.symbol(k) u + p.nonlinear(u, t, p.drive), for either
    system, with N evaluated on the dealiasing grid.  A state converged by
    FcglSteadyProblem, whose residual is this right-hand side, is a fixed
    point of every step, as dt (g1 + g0) ell = dt ge ell = e^{ell dt} - 1.

    field and p may also be equal-length lists: row r of the stepper's
    (P, n) state is then field[r] under p[r], stepped bit for bit as
    make_stepper(field[r], p[r], dt) steps it.  The rows share the grid, the
    system and C; each has its own symbol and drive."""
    stack = not isinstance(field, ComplexField)
    fields, ps = (field, p) if stack else ([field], [p])
    first, n, length = ps[0], fields[0].n, fields[0].length
    if any((f.n, f.length, type(q), q.c) != (n, length, type(first), first.c)
           for f, q in zip(fields, ps, strict=True)):
        raise ParameterError("stacked rows need one grid, system and C")
    ell = np.stack([q.symbol(spectral.wavenumbers(n, length)) for q in ps])
    values = np.stack([f.values for f in fields])
    drive = np.array([[q.drive] for q in ps])
    if not stack:
        ell, values, drive = ell[0], values[0], first.drive
    scheme = make_scheme(ell, dt)

    def nonlinear(u_hat, t):
        return spectral.from_fine(
            first.nonlinear(spectral.to_fine(u_hat), t, drive), n)

    return SpectralStepper(scheme, nonlinear, length, values, t0)


def run_to_steady(stepper: Etd2Stepper, period: float, tol: float = 1e-9,
                  max_periods: int = 10000):
    """Advance whole periods until consecutive stroboscopic snapshots differ
    by less than tol in the solution norm.  Returns (converged, periods, diffs).
    """
    steps = int(round(period / stepper.scheme.dt))
    if abs(steps * stepper.scheme.dt - period) > 1e-9 * period:
        raise ParameterError("dt must divide the stroboscopic period")
    diffs = []
    prev = stepper.u.copy()
    for k in range(max_periods):
        stepper.run(steps)
        diff = spectral.parseval_norm(stepper.u - prev)
        diffs.append(diff)
        if diff < tol:
            return True, k + 1, diffs
        prev = stepper.u.copy()
    return False, max_periods, diffs

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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral
from .core import FcglParams, ModelParams
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
    g1 = np.empty_like(z)
    g0 = np.empty_like(z)
    ge = np.empty_like(z)
    small = np.abs(z) < SMALL_Z
    if np.any(~small):
        g1[~small], g0[~small], ge[~small] = _etd_weight_funcs(z[~small])
    if np.any(small):
        # mean over a circle of radius 1 centred at z (mean value property)
        theta = 2.0 * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS
        ring = z[small][:, None] + np.exp(1j * theta)[None, :]
        a, b, c = _etd_weight_funcs(ring)
        g1[small] = a.mean(axis=1)
        g0[small] = b.mean(axis=1)
        ge[small] = c.mean(axis=1)
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
    return EtdScheme(
        dt=dt, ell=ell, exp_dt=np.exp(z),
        w_new=dt * g1, w_old=dt * g0, w_euler=dt * ge,
    )


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
        s = self.scheme
        n_cur = self.nonlinear(self.u, self.t)
        if self._n_prev is None:
            u_new = s.exp_dt * self.u + s.w_euler * n_cur
        else:
            u_new = s.exp_dt * self.u + s.w_new * n_cur + s.w_old * self._n_prev
        self._n_prev = n_cur
        self.u = u_new
        self.steps += 1
        if not np.all(np.isfinite(u_new)):
            raise BlowUpError(self.steps)

    def run(self, n_steps: int, observer: Callable | None = None, stride: int = 1):
        """Take n_steps; call observer(stepper) every stride steps."""
        for i in range(n_steps):
            self.step()
            if observer is not None and (i + 1) % stride == 0:
                observer(self)


class SpectralStepper(Etd2Stepper):
    """ETD2 stepper whose state is the Fourier coefficients of a periodic field."""

    def __init__(self, scheme, nonlinear, field: ComplexField, t0: float = 0.0):
        super().__init__(scheme, nonlinear, np.fft.fft(field.values), t0)
        self.length = field.length

    @property
    def field(self) -> ComplexField:
        return ComplexField(self.length, np.fft.ifft(self.u))

    @property
    def norm(self) -> float:
        return spectral.parseval_norm(self.u)


# ---- model bindings ----

def _cubic_stepper(field: ComplexField, p, shift: complex, forcing: Callable,
                   dt: float, t0: float) -> SpectralStepper:
    """ETD2 for u' = (shift - (alpha + i beta) k^2) u + C|u|^2 u + forcing(u, t),
    the cubic and the forcing both evaluated on the dealiasing grid."""
    k = spectral.wavenumbers(field.n, field.length)
    scheme = make_scheme(shift - (p.alpha + 1j * p.beta) * k**2, dt)
    c = p.c

    def nonlinear(u_hat, t):
        fine = spectral.to_fine(u_hat)
        # overflow is tolerated here; the stepper raises BlowUpError on it
        with np.errstate(over="ignore", invalid="ignore"):
            w = c * (np.abs(fine) ** 2) * fine + forcing(fine, t)
        return spectral.from_fine(w, u_hat.shape[-1])

    return SpectralStepper(scheme, nonlinear, field, t0)


def make_pde_stepper(field: ComplexField, p: ModelParams, dt: float,
                     t0: float = 0.0) -> SpectralStepper:
    """Forced model: parametric forcing i Re(U) F cos(2t)."""
    f = p.f
    return _cubic_stepper(
        field, p, p.mu + 1j * p.omega,
        lambda u, t: (1j * f * math.cos(2.0 * t)) * u.real, dt, t0)


def make_fcgl_stepper(field: ComplexField, p: FcglParams, dt: float,
                      t0: float = 0.0) -> SpectralStepper:
    """Amplitude equation: conjugate forcing Gamma conj(A)."""
    g = p.gamma
    return _cubic_stepper(field, p, p.mu + 1j * p.nu,
                          lambda a, t: g * np.conj(a), dt, t0)


def run_to_steady(stepper: Etd2Stepper, period: float, tol: float = 1e-9,
                  max_periods: int = 10000, observer=None):
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
        if observer is not None:
            observer(stepper, diff)
        if diff < tol:
            return True, k + 1, diffs
        prev = stepper.u.copy()
    return False, max_periods, diffs

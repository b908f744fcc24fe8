"""Real Allen-Cahn reductions near onset and the sech profiles they predict.

Close to the subharmonic onset the locked response is slaved to a single
real amplitude B(X, T) obeying

    B_T = lin * lam * B + diff * B_XX + cub * B^3,

where lam measures the forcing offset from threshold.  Two routes compute
(lin, diff, cub): a closed form valid in the weak-damping limit of the
amplitude equation, and, valid at order-one damping, solvability products
against the left null vector of the Hill matrix, the forced model's harmonic
Jacobian at the zero state, whose right null vector is the critical Floquet
eigenfunction.  Stationary sech solutions of the reduction provide localized
seeds and overlay checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import FcglParams, ModelParams, ScalingMap, gamma_onset
from .errors import (DegenerateReductionError, ExistenceError,
                     SingularReductionError)
from .fields import ComplexField
from .floquet import FloquetPair, hill_problem

__all__ = [
    "AllenCahnCoeffs",
    "SechProfile",
    "onset_phase",
    "weak_ac_coeffs",
    "weak_sech_fcgl",
    "weak_sech_pde",
    "strong_ac_coeffs",
    "strong_sech_pde",
]


def onset_phase(mu: float, nu: float) -> float:
    """Locked phase of the onset eigenvector, exp(-2 i phi) = -(mu + i nu)/|mu + i nu|."""
    r = math.hypot(mu, nu)
    if r == 0.0:
        raise SingularReductionError("onset phase undefined at mu = nu = 0")
    w = -(mu + 1j * nu) / r
    return -0.5 * math.atan2(w.imag, w.real)


@dataclass
class AllenCahnCoeffs:
    """Coefficients of the reduced equation B_T = lin*lam*B + diff*B_XX + cub*B^3."""

    lin: float
    diff: float
    cub: float
    regime: str  # "weak" or "strong"
    phi: float | None = None
    pair: FloquetPair | None = field(default=None, repr=False)


def weak_ac_coeffs(p: FcglParams) -> AllenCahnCoeffs:
    """Closed-form reduction of the amplitude equation about its onset.

    With lam = (gamma - gamma0) the coefficients are
    lin = -sqrt(mu^2 + nu^2)/mu, diff = (alpha mu + beta nu)/mu,
    cub = (mu c_re + nu c_im)/mu; the locked direction is exp(i*phi).
    """
    if p.mu == 0.0:
        raise SingularReductionError("weak reduction divides by mu")
    g0 = gamma_onset(p.mu, p.nu)
    return AllenCahnCoeffs(
        lin=-g0 / p.mu,
        diff=(p.alpha * p.mu + p.beta * p.nu) / p.mu,
        cub=(p.mu * p.c_re + p.nu * p.c_im) / p.mu,
        regime="weak",
        phi=onset_phase(p.mu, p.nu),
    )


@dataclass
class SechProfile:
    """Stationary localized envelope amp * sech(inv_width * (x - center)).

    kind selects the carrier: "fcgl" multiplies by the constant exp(i*phi),
    "pde-weak" by exp(i*(t + phi)), and "pde-strong" by the periodic
    eigenfunction p1(t) + i q1(t).
    """

    amp: float
    inv_width: float
    center: float
    kind: str
    phi: float = 0.0
    pair: FloquetPair | None = field(default=None, repr=False)

    def envelope(self, x) -> np.ndarray:
        y = self.inv_width * (np.asarray(x, dtype=float) - self.center)
        out = np.zeros_like(y)
        ok = np.abs(y) < 350.0  # sech underflows to zero beyond this
        out[ok] = 1.0 / np.cosh(y[ok])
        return self.amp * out

    def values(self, x, t: float = 0.0) -> np.ndarray:
        env = self.envelope(x)
        if self.kind == "fcgl":
            return env * np.exp(1j * self.phi)
        if self.kind == "pde-weak":
            return env * np.exp(1j * (t + self.phi))
        if self.kind == "pde-strong":
            carrier = complex(self.pair.u(t)[0])
            return env * carrier
        raise ValueError(f"unknown profile kind {self.kind!r}")

    def as_field(self, n: int, length: float, t: float = 0.0) -> ComplexField:
        x = np.arange(n) * (length / n)
        return ComplexField(length, self.values(x, t))


def _check(conditions) -> None:
    for name, ok in conditions:
        if not ok:
            raise ExistenceError(name)


def weak_sech_fcgl(p: FcglParams, gamma: float, center: float = 0.0) -> SechProfile:
    """Exact localized solution of the amplitude equation below onset,

        A = amp * sech(inv_width * X) * exp(i*phi),
        amp^2 = 2 (gamma - gamma0) gamma0 / (mu c_re + nu c_im),
        inv_width^2 = (gamma - gamma0) gamma0 / (alpha mu + beta nu).
    """
    g0 = gamma_onset(p.mu, p.nu)
    subcrit = p.mu * p.c_re + p.nu * p.c_im
    diffus = p.alpha * p.mu + p.beta * p.nu
    _check([
        ("gamma <= gamma0", gamma <= g0 + 1e-14 * g0),
        ("mu < 0", p.mu < 0.0),
        ("mu*c_re + nu*c_im < 0", subcrit < 0.0),
        ("alpha*mu + beta*nu < 0", diffus < 0.0),
    ])
    drop = min(gamma - g0, 0.0)  # clamp the gamma = gamma0 limit to zero
    amp = math.sqrt(2.0 * drop * g0 / subcrit)
    inv_width = math.sqrt(drop * g0 / diffus)
    return SechProfile(amp=amp, inv_width=inv_width, center=center,
                       kind="fcgl", phi=onset_phase(p.mu, p.nu))


def weak_sech_pde(p: ModelParams, center: float = 0.0) -> SechProfile:
    """Fast-frame localized seed below the weak-limit onset F0 = 4*sqrt(mu^2+nu^2),

        U = amp * sech(inv_width * x) * exp(i*(t + phi)),  nu = omega - 1.

    The amplitude-equation pulse is invariant under the scaling map, so this
    is weak_sech_fcgl at the image of p under the map with epsilon = 1.
    """
    hat = ScalingMap(1.0).pde_to_fcgl(p)
    return replace(weak_sech_fcgl(hat, hat.gamma, center), kind="pde-weak")


# ---- order-one damping route ----

def strong_ac_coeffs(fp: FloquetPair, p: ModelParams) -> AllenCahnCoeffs:
    """Solvability products against the adjoint null vector at F_c.

    U = p1 + i q1 and Y = y1 + i p1_adj, y1 = (mu + d/dt) p1_adj / omega, are
    the right and left null vectors of the Hill matrix B0 + F_c B1 of
    hill_problem.  With lam = F/F_c - 1, projecting the slow-amplitude
    hierarchy onto Y yields

        mass * B_T = f_c <Y, B1 U> lam B + <Y, (alpha + i beta) U> B_XX
                     + <Y, C |U|^2 U> B^3,

    where mass = <Y, U> and <., .> is the dot product of the harmonic
    coefficients viewed as floats, the blocks' component order.  alpha + i
    beta is B0[k=0] - B0[k=1], and C |U|^2 U the problem's residual at the
    flat state U at F_c, where the linear part vanishes.
    """
    u = fp.u_coeffs.view(float)
    y = (((fp.mu + 1j * fp.harmonics) / fp.omega + 1j)
         * fp.p1_adj_coeffs).view(float)
    mass = float(y @ u)
    if abs(mass) < 1e-10:
        raise DegenerateReductionError("solvability mass inner product vanishes")

    problem = hill_problem(p, fp.harmonics)
    b0, b1 = problem.zero_state_blocks
    flat = problem.pack(np.repeat(fp.u_coeffs[:, None], problem.n, axis=1))
    cubic = np.ascontiguousarray(
        problem.unpack(problem.residual(flat, fp.f_c))[:, 0]).view(float)
    return AllenCahnCoeffs(lin=fp.f_c * float(y @ b1[0] @ u) / mass,
                           diff=float(y @ (b0[0] - b0[1]) @ u) / mass,
                           cub=float(y @ cubic) / mass,
                           regime="strong", pair=fp)


def strong_sech_pde(coeffs: AllenCahnCoeffs, fp: FloquetPair, f: float,
                    center: float = 0.0) -> SechProfile:
    """Localized seed below the Floquet onset, carried by the eigenfunction:

        U = amp * sech(inv_width * x) * (p1(t) + i q1(t)),
        amp^2 = -2 lin lam / cub,  inv_width^2 = -lin lam / diff,
        lam = f/f_c - 1.
    """
    lam = f / fp.f_c - 1.0
    _check([
        ("f <= f_c", lam <= 1e-14),
        ("lin * lam <= 0", coeffs.lin * lam <= 0.0),
        ("cub > 0", coeffs.cub > 0.0),
        ("diff > 0", coeffs.diff > 0.0),
    ])
    lam = min(lam, 0.0)
    amp = math.sqrt(-2.0 * coeffs.lin * lam / coeffs.cub)
    inv_width = math.sqrt(-coeffs.lin * lam / coeffs.diff)
    return SechProfile(amp=amp, inv_width=inv_width, center=center,
                       kind="pde-strong", pair=fp)

"""Model parameters, the scaling map, and spatially uniform locked states.

Two systems live here.  The full model is a complex field U(x, t) driven
through Re(U) by a parametric forcing F*cos(2t),

    U_t = (mu + i*omega) U + (alpha + i*beta) U_xx + C |U|^2 U
          + i Re(U) F cos(2t),

and its rotating-frame amplitude equation is a forced complex
Ginzburg-Landau equation for A(X, T),

    A_T = (mu + i*nu) A + (alpha + i*beta) A_XX + C |A|^2 A + Gamma conj(A).

The two parameter sets are linked by the scaling map with detuning
omega = 1 + eps^2 nu, forcing F = 4 eps^2 Gamma and growth mu -> eps^2 mu.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ParameterError
from .fields import solution_norm  # noqa: F401

__all__ = [
    "ModelParams",
    "FcglParams",
    "ScalingMap",
    "FlatState",
    "FlatStateSet",
    "flat_states",
    "solution_norm",
    "gamma_onset",
    "dispersion",
]


class _System:
    """The equation both systems share,

        u_t = shift u + (alpha + i beta) u_xx + N(u, t),
        N(u, t) = C |u|^2 u + forcing(u, t, drive),

    the forcing being real-linear in u and linear in the drive.  The ETD
    stepper and the steady solvers evaluate N and its derivative from here
    alone, on whatever samples they hold."""

    def __post_init__(self):
        if self.alpha <= 0:
            raise ParameterError("alpha must be positive (well-posed diffusion)")
        if self.drive < 0:
            raise ParameterError(
                f"forcing amplitude {self.DRIVE} must be non-negative")

    @property
    def c(self) -> complex:
        return complex(self.c_re, self.c_im)

    @property
    def drive(self) -> float:
        return getattr(self, self.DRIVE)

    def symbol(self, k):
        """The linear part shift - (alpha + i beta) k^2 at wavenumbers k."""
        return self.shift - (self.alpha + 1j * self.beta) * k**2

    def nonlinear(self, u, t, drive):
        """N(u, t) at samples u."""
        return self.c * (np.abs(u) ** 2) * u + self.forcing(u, t, drive)

    def linearization(self, u, t, drive):
        """The real-linear map d -> dN(u)[d], the derivative of N at samples u."""
        c, two_abs2, sq = self.c, 2.0 * np.abs(u) ** 2, u**2
        return lambda d: (c * (two_abs2 * d + sq * np.conj(d))
                          + self.forcing(d, t, drive))


@dataclass(frozen=True)
class ModelParams(_System):
    """Parameters of the forced model equation in the fast frame."""

    mu: float
    omega: float
    alpha: float
    beta: float
    c_re: float
    c_im: float
    f: float

    DRIVE = "f"

    @property
    def shift(self) -> complex:
        return complex(self.mu, self.omega)

    @staticmethod
    def forcing(u, t, drive):
        """Parametric forcing i F cos(2t) Re(u)."""
        return (1j * drive * np.cos(2.0 * t)) * u.real


@dataclass(frozen=True)
class FcglParams(_System):
    """Parameters of the forced amplitude equation in the slow frame."""

    mu: float
    nu: float
    alpha: float
    beta: float
    c_re: float
    c_im: float
    gamma: float

    DRIVE = "gamma"

    @property
    def shift(self) -> complex:
        return complex(self.mu, self.nu)

    @staticmethod
    def forcing(u, t, drive):
        """Conjugate forcing Gamma conj(u), the same at every t."""
        return drive * np.conj(u)


@dataclass(frozen=True)
class ScalingMap:
    """Two-way parameter map between the slow and fast frames."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ParameterError("epsilon must be positive")

    def to_forcing(self, gamma):
        """Fast-frame forcing F = 4 eps^2 Gamma."""
        return 4.0 * self.epsilon**2 * gamma

    def to_gamma(self, f):
        """Slow-frame forcing Gamma = F / (4 eps^2)."""
        return f / (4.0 * self.epsilon**2)

    def fcgl_to_pde(self, p: FcglParams) -> ModelParams:
        e2 = self.epsilon**2
        return ModelParams(
            mu=e2 * p.mu,
            omega=1.0 + e2 * p.nu,
            alpha=p.alpha,
            beta=p.beta,
            c_re=p.c_re,
            c_im=p.c_im,
            f=self.to_forcing(p.gamma),
        )

    def pde_to_fcgl(self, p: ModelParams) -> FcglParams:
        e2 = self.epsilon**2
        return FcglParams(
            mu=p.mu / e2,
            nu=(p.omega - 1.0) / e2,
            alpha=p.alpha,
            beta=p.beta,
            c_re=p.c_re,
            c_im=p.c_im,
            gamma=self.to_gamma(p.f),
        )


def dispersion(k, p: ModelParams):
    """Linear growth rate sigma(k) of the unforced zero state."""
    out = p.symbol(np.asarray(k, dtype=float))
    return out if np.ndim(out) else complex(out)


class FlatState(NamedTuple):
    """One spatially uniform locked state A = R * exp(i*phi)."""

    r_sq: float
    r: float
    phi: float


@dataclass
class FlatStateSet:
    """Uniform locked states plus the onset and saddle-node forcing levels."""

    roots: list[FlatState]
    gamma0: float
    gamma_d: float | None


def gamma_onset(mu: float, nu: float) -> float:
    """Forcing at which the zero state loses stability, Gamma_0 = sqrt(mu^2 + nu^2)."""
    return math.hypot(mu, nu)


def _stable_quadratic_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*y^2 + b*y + c with the cancellation-safe sign trick."""
    disc = b * b - 4.0 * a * c
    scale = max(b * b, abs(4.0 * a * c), 1e-300)
    if disc < 0.0:
        if disc > -1e-12 * scale:
            disc = 0.0
        else:
            return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b))
    if q == 0.0:
        # b = 0 and disc = 0, double root at the origin
        return [0.0, 0.0]
    return [q / a, c / q]


def flat_states(p: FcglParams) -> FlatStateSet:
    """Solve the uniform-state amplitude condition

        |C|^2 R^4 + 2 (mu c_re + nu c_im) R^2 + mu^2 + nu^2 - Gamma^2 = 0

    as a quadratic in R^2 and recover the locked phase of each root from
    exp(-2 i phi) = -(mu + i nu + C R^2) / Gamma.
    """
    a = p.c_re**2 + p.c_im**2
    if a == 0.0:
        raise ParameterError("flat states need a non-zero cubic coefficient")
    b = 2.0 * (p.mu * p.c_re + p.nu * p.c_im)
    c = p.mu**2 + p.nu**2 - p.gamma**2

    roots: list[FlatState] = []
    for r_sq in sorted(_stable_quadratic_roots(a, b, c)):
        if r_sq < -1e-12 * max(1.0, abs(c) / a):
            continue
        r_sq = max(r_sq, 0.0)
        lin = p.mu + 1j * p.nu + p.c * r_sq
        # a discriminant clipped to zero leaves |lin| - gamma of order
        # |disc| / gamma, or sqrt|disc| at gamma = 0: that root is no state
        scale = abs(p.mu + 1j * p.nu) + abs(p.c) * r_sq + p.gamma
        if r_sq > 0.0 and abs(abs(lin) - p.gamma) > 1e-10 * scale:
            continue
        if p.gamma > 0.0:
            w = -lin / p.gamma
            phi = -0.5 * math.atan2(w.imag, w.real)
        else:
            phi = 0.0  # unforced: phase is free, report zero
        roots.append(FlatState(r_sq=r_sq, r=math.sqrt(r_sq), phi=phi))

    gamma0 = gamma_onset(p.mu, p.nu)
    gamma_d = None
    if b < 0.0:
        # saddle-node of the uniform branch, exists when mu c_re + nu c_im < 0
        radicand = p.mu**2 + p.nu**2 - (0.5 * b) ** 2 / a
        gamma_d = math.sqrt(max(radicand, 0.0))
    return FlatStateSet(roots=roots, gamma0=gamma0, gamma_d=gamma_d)

"""Floquet analysis of the flat (k = 0) subharmonic response.

Writing U = u + i*v and linearizing the forced model about U = 0 at zero
wavenumber gives the real system

    (d/dt - mu) u = -omega v,
    (d/dt - mu) v =  omega u + F cos(2t) u,

equivalent to the damped Mathieu equation

    L u = u'' - 2 mu u' + (mu^2 + omega^2 + omega F cos(2t)) u = 0.

The 2:1 subharmonic onset F_c is the smallest forcing with a non-trivial
2*pi-periodic solution built from odd harmonics.  Two independent routes are
provided.  Hill's method truncates the harmonics: the Hill matrix is the k = 0
block of the forced model's harmonic Jacobian at the zero state
(hill_problem), the operator the steady solver preconditions with, and F_c is
the first positive forcing at which it is singular.  The monodromy route
bisects on the Floquet multipliers over one forcing period pi, integrating
the Mathieu equation with no code shared with the harmonic problem.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# scipy is imported where used: the import costs more than a short FCGL run.

from .continuation import PdeHarmonicProblem
from .core import ModelParams, ScalingMap, gamma_onset
from .errors import CriticalForcingNotFoundError, ParameterError

DEFAULT_HARMONICS = 16  # J: odd harmonics up to |2J + 1|


def eval_series(coeffs: np.ndarray, harmonics: np.ndarray, t, derivative: int = 0):
    """Evaluate sum_m c_m (i m)^d e^{i m t} at times t."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    factors = coeffs * (1j * harmonics) ** derivative
    return np.exp(1j * np.outer(t, harmonics)) @ factors


@dataclass
class FloquetPair:
    """Critical eigenfunction p1 (and adjoint) of the damped Mathieu operator.

    Coefficients are stored over the odd harmonics m; both functions are real
    (conjugate-symmetric coefficients).  The companion component is
    q1 = -(p1' - mu p1)/omega, and the complex response p1 + i q1 is
    normalized to unit time-averaged modulus, with the e^{i t} coefficient
    gauge-fixed to positive real part.
    """

    f_c: float
    mu: float
    omega: float
    harmonics: np.ndarray
    p1_coeffs: np.ndarray
    p1_adj_coeffs: np.ndarray

    @property
    def q1_coeffs(self) -> np.ndarray:
        return (self.mu - 1j * self.harmonics) * self.p1_coeffs / self.omega

    @property
    def u_coeffs(self) -> np.ndarray:
        """Coefficients of the complex response p1 + i q1."""
        return self.p1_coeffs + 1j * self.q1_coeffs

    def p1(self, t, derivative: int = 0):
        return eval_series(self.p1_coeffs, self.harmonics, t, derivative).real

    def q1(self, t, derivative: int = 0):
        return eval_series(self.q1_coeffs, self.harmonics, t, derivative).real

    def p1_adj(self, t, derivative: int = 0):
        return eval_series(self.p1_adj_coeffs, self.harmonics, t, derivative).real

    def u(self, t):
        return eval_series(self.u_coeffs, self.harmonics, t)

    def mathieu_residual(self) -> float:
        """Max modulus of L p1 coefficients on the extended harmonic set."""
        m_ext = np.arange(self.harmonics.min() - 2, self.harmonics.max() + 3, 2)
        a_ext = np.zeros(m_ext.size, dtype=complex)
        a_ext[np.isin(m_ext, self.harmonics)] = self.p1_coeffs
        d = self.mu**2 + self.omega**2 - m_ext**2 - 2j * self.mu * m_ext
        res = d * a_ext
        coupling = 0.5 * self.omega * self.f_c
        res[1:] += coupling * a_ext[:-1]
        res[:-1] += coupling * a_ext[1:]
        return float(np.max(np.abs(res)))


def hill_problem(p: ModelParams, harmonics) -> PdeHarmonicProblem:
    """The forced model's harmonic problem on flat profiles over harmonics.

    Its zero-state blocks at k = 0, B0 + F B1 on the coefficients U_m as
    (real, imaginary) part pairs, are the Hill matrix of the flat
    linearization (Deconinck & Kutz, J. Comput. Phys. 219, 2006); on length
    2*pi, B0[0] - B0[1] is the diffusion alpha + i beta.
    """
    return PdeHarmonicProblem(p, n=4, length=2.0 * math.pi, harmonics=harmonics)


def mathieu_critical(p: ModelParams, j_trunc: int = DEFAULT_HARMONICS) -> FloquetPair:
    """Smallest positive forcing with a 2*pi-periodic Mathieu solution.

    F_c is the first positive real generalized eigenvalue of the Hill matrix
    B0 + F B1 on the odd harmonics up to 2 j_trunc + 1.  At F_c its right null
    vector is U = p1 + i q1, and its left null vector Y has Im Y = p1_adj: the
    adjoint of the first-order system reduces to the Mathieu adjoint (the
    sign of the damping reversed) on its second component.
    """
    import scipy.linalg
    if p.mu >= 0:
        raise ParameterError("subharmonic onset needs damping mu < 0")
    harmonics = np.arange(-(2 * j_trunc + 1), 2 * j_trunc + 2, 2)
    b0, b1 = (b[0] for b in hill_problem(p, harmonics).zero_state_blocks)
    vals = -scipy.linalg.eigvals(b0, b1)
    vals = vals[np.isfinite(vals)]
    real = vals[np.abs(vals.imag) <= 1e-8 * (1.0 + np.abs(vals.real))].real
    positive = np.sort(real[real > 1e-12])
    if positive.size == 0:
        raise CriticalForcingNotFoundError(0.0, float("inf"),
                                           "no real positive Hill eigenvalue")
    f_c = float(positive[0])

    left, s, right = np.linalg.svd(b0 + f_c * b1)
    if s[-1] > 1e-6 * s[0]:
        raise CriticalForcingNotFoundError(0.0, 0.0,
                                           "harmonic system is not singular at F_c")
    u = np.ascontiguousarray(right[-1]).view(complex)
    y = np.ascontiguousarray(left[:, -1]).view(complex)
    a = 0.5 * (u + np.conj(u[::-1]))            # Re U, harmonics symmetric
    adj = -0.5j * (y - np.conj(y[::-1]))        # Im Y

    # normalize <p1 + i q1, p1 + i q1> = 1 and fix the sign gauge
    u_coeffs = a * (p.omega + harmonics + 1j * p.mu) / p.omega
    a = a / math.sqrt(float(np.sum(np.abs(u_coeffs) ** 2)))
    i_one = int(np.nonzero(harmonics == 1)[0][0])
    if (a[i_one] * (p.omega + 1.0 + 1j * p.mu)).real < 0:
        a = -a
    # adjoint: unit coefficient norm and <p1_adj, p1> positive
    adj = adj / np.linalg.norm(adj)
    if float(np.real(np.vdot(adj, a))) < 0:
        adj = -adj
    return FloquetPair(f_c=f_c, mu=p.mu, omega=p.omega, harmonics=harmonics,
                       p1_coeffs=a, p1_adj_coeffs=adj)


# ---- monodromy route ----

def _monodromy(f: float, mu: float, omega: float) -> np.ndarray:
    """Fundamental matrix of the damped Mathieu equation over one forcing
    period pi, integrated as u' = v, v' = 2 mu v - (mu^2 + omega^2
    + omega f cos 2t) u."""
    import scipy.integrate
    w0_sq = mu**2 + omega**2

    def rhs(t, y):
        coeff = w0_sq + omega * f * math.cos(2.0 * t)
        u1, v1, u2, v2 = y
        return [v1, 2.0 * mu * v1 - coeff * u1,
                v2, 2.0 * mu * v2 - coeff * u2]

    sol = scipy.integrate.solve_ivp(rhs, (0.0, math.pi), [1.0, 0.0, 0.0, 1.0],
                                    method="DOP853", rtol=1e-12, atol=1e-14)
    y = sol.y[:, -1]
    return np.array([[y[0], y[2]], [y[1], y[3]]])


def floquet_multipliers(f: float, p: ModelParams) -> np.ndarray:
    """Multipliers of the flat-state linearization over one forcing period."""
    return np.linalg.eigvals(_monodromy(f, p.mu, p.omega))


def monodromy_critical(p: ModelParams, f_hi: float | None = None,
                       max_doublings: int = 8) -> float:
    """Critical forcing located by bisection on the subharmonic criterion
    trace(Phi) + 1 + e^{2 mu pi} = 0 (a multiplier crossing -1)."""
    import scipy.optimize
    if p.mu >= 0:
        raise ParameterError("subharmonic onset needs damping mu < 0")
    offset = 1.0 + math.exp(2.0 * math.pi * p.mu)

    def crit(f):
        phi = _monodromy(f, p.mu, p.omega)
        return phi[0, 0] + phi[1, 1] + offset

    f_lo = 0.0
    if f_hi is None:
        weak = ScalingMap(1.0).to_forcing(gamma_onset(p.mu, p.omega - 1.0))
        f_hi = max(2.0 * weak, 8.0 * abs(p.mu))
    for _ in range(max_doublings):
        if crit(f_hi) < 0.0:
            break
        f_hi *= 2.0
    else:
        raise CriticalForcingNotFoundError(f_lo, f_hi)
    return float(scipy.optimize.brentq(crit, f_lo, f_hi, xtol=1e-12, rtol=1e-14))

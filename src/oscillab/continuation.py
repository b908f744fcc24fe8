"""Steady states, pseudo-arclength continuation, and stability labels.

Steady solutions of the amplitude equation, and time-periodic solutions of
the forced model as a truncated harmonic expansion U(x, t) = sum_j U_j(x)
e^{i j t} over j in {-3, -1, 1, 3}, are found by Newton iteration on the
periodic pseudospectral collocation residual, real-linear through its
conjugate couplings, with a matrix-free Krylov solver.  The unknowns are the
even Fourier coefficients of the profiles, which quotients out translations,
as a float view of the complex half-spectrum.  The Jacobian at the zero
state is block-diagonal in them, one small real block per wavenumber, and
its exact inverse preconditions every Krylov solve, the corrector's
arclength-bordered one by block elimination.  Branches are traced with
secant pseudo-arclength steps; folds are flagged at sign changes of the
parameter increment and refined with a local quadratic fit.  FCGL states are
labelled by the rightmost eigenvalues of the Jacobian's even and odd blocks,
written from the linearization's multipliers; forced-model states are not.
"""
from __future__ import annotations

import ctypes
import glob
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import etd, spectral
from .core import TWO_PI, ModelParams, ScalingMap
from .errors import (DivergenceError, InvalidFieldError, OscillabError,
                     ParameterError, StalledBranchError)
from .fields import ComplexField, solution_norm


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


def _arnoldi_step(apply, basis: np.ndarray, j: int):
    """One Arnoldi step: w = apply(basis[j]) made orthogonal to the
    orthonormal rows basis[:j + 1] by classical Gram-Schmidt applied twice
    (CGS2, as stable as modified Gram-Schmidt), one BLAS product per pass,
    and stored normalised in basis[j + 1].  Returns (h, h1), the
    coefficients and the norm of the remainder; on breakdown, a remainder
    within rounding of zero, h1 is 0.0 and basis[j + 1] is left as it was."""
    w = apply(basis[j])
    h0 = float(np.linalg.norm(w))
    q = basis[:j + 1]
    h = q @ w
    w -= h @ q
    h2 = q @ w
    w -= h2 @ q
    h1 = float(np.linalg.norm(w))
    if h1 <= _EPS * h0:
        return h + h2, 0.0
    np.multiply(w, 1.0 / h1, out=basis[j + 1])
    return h + h2, h1


def _gmres(matvec, b: np.ndarray, psolve, rtol: float):
    """Restarted GMRES (Saad & Schultz 1986) for A x = b from x = 0, right-
    preconditioned by psolve ~ A^-1; returns (x, info, matvecs), info 0 when
    ||b - A x|| <= rtol ||b|| within GMRES_CYCLES cycles, else GMRES_CYCLES.

    Each cycle runs Arnoldi on v -> A psolve(v) from the residual, so its
    estimate is the true residual's (Saad 2003, sec. 9.3): it stops once the
    estimate is within rtol ||b||, or on breakdown, and convergence is
    judged on the true residual at its end.  The Krylov basis is
    preallocated and orthogonalised by CGS2; the Givens rotations act on
    Python floats and the triangular solve runs once per cycle.
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
    r, rnorm, matvecs = b, bnorm, 0

    def apply(v):
        return matvec(psolve(v))
    for _ in range(GMRES_CYCLES):
        basis[0] = r * (1.0 / rnorm)
        g = [rnorm]
        rotations = []
        for j in range(m):
            h, h1 = _arnoldi_step(apply, basis, j)
            matvecs += 1
            breakdown = h1 == 0.0
            col = h.tolist()
            for k, (c, s) in enumerate(rotations):
                lo, hi = col[k], col[k + 1]
                col[k], col[k + 1] = c * lo + s * hi, c * hi - s * lo
            c, s, col[j] = _givens(col[j], h1)
            rotations.append((c, s))
            upper[:j + 1, j] = col
            g.append(-s * g[j])
            g[j] *= c
            if abs(g[j + 1]) <= atol or breakdown:
                break
        k = j + 1
        y = np.array(g[:k])
        if upper[j, j] == 0.0:
            y[j] = 0.0
        for i in range(j, -1, -1):       # back-substitution, zeros skipped
            if y[i] != 0.0:
                y[i] /= upper[i, i]
                y[:i] -= y[i] * upper[:i, i]
        x += psolve(y @ basis[:k])
        r = b - matvec(x)
        matvecs += 1
        rnorm = float(np.linalg.norm(r))
        if rnorm <= atol or breakdown:
            break
    return x, (0 if rnorm <= atol else GMRES_CYCLES), matvecs


def _real_form(p, q) -> np.ndarray:
    """The real matrices [[Re(p + q), Im(q - p)], [Im(p + q), Re(p - q)]] of
    u -> p u + q conj(u) on (real, imaginary) pairs, on two leading axes."""
    return np.stack([np.stack([(p + q).real, (q - p).imag]),
                     np.stack([(p + q).imag, (p - q).real])])


class _SteadyProblem:
    """Steady states of u' = symbol u + N(u, t), the right-hand side of the
    ETD stepper for the same parameters: the residual

        symbol * a_hat + coeffs(N(samples(a_hat), times)),

    its Jacobian as a plain callable and its derivative in the drive, all
    generic over the two hooks samples and coeffs.  The Jacobian is the
    symbol plus the multipliers of params.multipliers at the samples.  The
    unknowns are even Fourier coefficients (pack), so only the dealiased
    product transforms.  The preconditioner is the inverse of the Jacobian
    at the zero state, one block per wavenumber written from the
    multipliers as parity_block is, with singular values floored at
    PRECOND_FLOOR; it makes no transform."""

    PRECOND_FLOOR = 1e-3
    times = 0.0                 # the forcing's time at the samples
    harmonics = np.zeros(1, dtype=int)      # time harmonics of the profiles

    def __init__(self, params, n: int, length: float, harmonics=0):
        self.params = params
        self.n = n
        self.length = length
        self.symbol = params.symbol(spectral.wavenumbers(n, length)) - 1j * harmonics
        # Parseval: coefficients over sqrt(n), interior ones (for k, -k) times sqrt(2)
        self.scale = np.full(n // 2 + 1, math.sqrt(2.0 / n))
        self.scale[[0, -1]] = 1.0 / math.sqrt(n)
        self.size = 2 * self.scale.size * (self.symbol.size // n)

    def samples(self, a_hat: np.ndarray) -> np.ndarray:
        """Samples on the dealiasing grid of the profiles with coefficients a_hat."""
        return spectral.to_fine(a_hat)

    def coeffs(self, w: np.ndarray) -> np.ndarray:
        """Profile coefficients of the samples w, the inverse of samples."""
        return spectral.from_fine(w, self.n)

    def _spectrum(self, z: np.ndarray) -> np.ndarray:
        half = np.ascontiguousarray(z, dtype=float).view(complex)
        half = half.reshape(self.symbol.shape[:-1] + (-1,)) / self.scale
        return np.concatenate([half, half[..., -2:0:-1]], axis=-1)

    def _packed(self, a_hat: np.ndarray) -> np.ndarray:
        return (a_hat[..., :self.scale.size] * self.scale).view(float).ravel()

    def residual(self, z: np.ndarray, drive: float) -> np.ndarray:
        a_hat = self._spectrum(z)
        w = self.params.nonlinear(self.samples(a_hat), self.times, drive)
        return self._packed(self.symbol * a_hat + self.coeffs(w))

    def _multipliers(self, z: np.ndarray, drive: float):
        """(A, B) of params.multipliers at the samples of z, on their shape."""
        return self.params.multipliers(self.samples(self._spectrum(z)),
                                       self.times, drive)

    def linearization(self, z: np.ndarray, drive: float):
        """The Jacobian at z as a map of full-grid coefficients, any parity:
        d -> symbol d + the dealiased product A d + B conj(d)."""
        a, b = self._multipliers(z, drive)

        def apply(d_hat):
            d = self.samples(d_hat)
            w = np.conj(d)
            w *= b
            w += np.multiply(a, d, out=d)
            return self.symbol * d_hat + self.coeffs(w)
        return apply

    def jacobian(self, z: np.ndarray, drive: float):
        lin = self.linearization(z, drive)
        return lambda dz: self._packed(lin(self._spectrum(dz)))

    def dparam(self, z: np.ndarray, drive: float) -> np.ndarray:
        u = self.samples(self._spectrum(z))
        return self._packed(self.coeffs(self.params.forcing(u, self.times, 1.0)))

    def pack(self, a: np.ndarray) -> np.ndarray:
        """Unknowns of the even part of the profiles a: their even Fourier
        coefficients 0...n/2 times scale, so that by Parseval dot products of
        packed vectors are the full-grid ones, as a float view of the complex
        array: harmonic by harmonic, (real, imaginary) part pairs."""
        a_hat = np.fft.fft(a, axis=-1)
        return self._packed(0.5 * (a_hat + a_hat[..., -np.arange(self.n) % self.n]))

    def unpack(self, z: np.ndarray) -> np.ndarray:
        return np.fft.ifft(self._spectrum(z), axis=-1)

    def max_norm(self, z: np.ndarray) -> float:
        """The largest full-grid real or imaginary part of z in modulus."""
        return float(np.max(np.abs(self.unpack(z).view(float))))

    def norm_of(self, z: np.ndarray) -> float:
        return solution_norm(self.unpack(z))

    @cached_property
    def zero_state_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """(B0, B1), (n/2 + 1, m, m) each: the Jacobian at the zero state is
        B0 + drive B1, one real block per wavenumber k on the m packed
        components of k, (real, imaginary) part pairs harmonic by harmonic:
        parity_block's diagonal sub-blocks at z = 0.  B0 is the symbol, B1
        the lag-0 term _real_form(A_hat[j - j'], B_hat[j + j']) of the
        multipliers at drive 1, constant in x, so their hats are one time
        FFT: the same block at every k but the Nyquist mode, where it is 0."""
        nk, h = self.scale.size, self.harmonics.size
        j, jp = self.harmonics[:, None], self.harmonics
        a, b = self.params.multipliers(0.0, self.times, 1.0)
        hat_a, hat_b = np.fft.fft(np.reshape([a, b], (2, -1))) / np.size(self.times)
        b0, b1 = np.zeros((2, nk, h, 2, h, 2))
        sym = self.symbol.reshape(h, -1)[:, :nk]
        np.einsum("khphq->khpq", b0)[...] = _real_form(sym, 0.0).transpose(3, 2, 0, 1)
        b1[:-1] = _real_form(hat_a[j - jp], hat_b[j + jp]).transpose(2, 0, 3, 1)
        return b0.reshape(nk, 2 * h, 2 * h), b1.reshape(nk, 2 * h, 2 * h)

    def preconditioner(self, drive: float, stats: SolveStats | None = None):
        """z -> the inverse of the Jacobian at the zero state at drive, each
        block's singular values floored at PRECOND_FLOOR.  One batched inv
        inverts every block; only a block whose inverse has a Frobenius norm,
        a bound on its 2-norm, above 1/PRECOND_FLOOR is inverted again through
        its SVD with the floor.  The blocks the floor changes are counted in
        stats, when given."""
        b0, b1 = self.zero_state_blocks
        blocks = b0 + drive * b1
        try:
            inv = np.linalg.inv(blocks)
        except np.linalg.LinAlgError:           # an exactly singular block
            inv = np.full_like(blocks, np.inf)
        near = ~(np.linalg.norm(inv, axis=(1, 2)) <= 1.0 / self.PRECOND_FLOOR)
        if near.any():
            u, s, vt = np.linalg.svd(blocks[near])
            if stats is not None:
                stats.precond_floored += int(np.sum(s[:, -1] < self.PRECOND_FLOOR))
            s = np.maximum(s, self.PRECOND_FLOOR)
            inv[near] = np.swapaxes(vt, 1, 2) @ (np.swapaxes(u, 1, 2) / s[..., None])
        inv = np.ascontiguousarray(inv.transpose(1, 2, 0))     # (m, m, k)
        m, nk = inv.shape[1:]
        inv = inv.reshape(-1, 2, m, nk)

        def apply(z):
            # one einsum with k innermost, from z's components as a
            # contiguous (m, k) array straight into the packed order
            x = np.ascontiguousarray(z.reshape(-1, nk, 2).transpose(0, 2, 1))
            out = np.empty(z.size)
            np.einsum("acbk,bk->ack", inv, x.reshape(m, nk),
                      out=out.reshape(-1, nk, 2).transpose(0, 2, 1))
            return out
        return apply

    def parity_block(self, z: np.ndarray, drive: float, sign: float) -> np.ndarray:
        """The Jacobian at z on the fields of one parity, even (sign +1) or
        odd (-1), as a dense real matrix in the orthonormal basis of the
        packed format: harmonic by harmonic, (real, imaginary) part pairs of
        Fourier coefficients 0...n/2 (odd: 1...n/2-1), an interior one
        standing for (e_k + sign e_-k)/sqrt(2).  The even block is the
        Jacobian of the packed unknowns.  It is written from the multipliers
        (A, B) of the linearization at the samples, d -> A d + B conj(d).
        With hats their (time, x) Fourier coefficients over the sample count,
        the dealiased product takes (j', l) to (j, k) by A_hat[j - j', k - l]
        and conj(j', l) by B_hat[j + j', k + l]: on one parity, Toeplitz plus
        Hankel in (k, l)."""
        a, b = self._multipliers(z, drive)
        hat_a, hat_b = np.fft.fft2(np.reshape([a, b], (2, -1, a.shape[-1]))) / a.size
        # negative indices wrap, as |j +- j'| and |k +- l| are below the sample counts
        j, jp = self.harmonics[:, None, None], self.harmonics[:, None]
        idx = np.arange(self.n // 2 + 1) if sign > 0 else np.arange(1, self.n // 2)
        m = idx.size
        lag, lead = np.arange(1 - m, m), np.arange(2 * m - 1) + 2 * (sign < 0)
        toeplitz = sliding_window_view(_real_form(
            hat_a[j - jp, lag], sign * hat_b[j + jp, lag]), m, axis=-1)
        hankel = sliding_window_view(_real_form(
            sign * hat_a[j - jp, lead], hat_b[j + jp, lead]), m, axis=-1)
        block = np.empty((j.size, m, 2, j.size, m, 2))
        np.add(toeplitz[..., ::-1, :].swapaxes(-1, -2), hankel,
               out=block.transpose(2, 5, 0, 3, 1, 4))
        if sign > 0:
            # e_0 is its own mirror, counted twice above, and the dealiased
            # product neither reads nor writes the Nyquist mode
            block[:, 0] *= math.sqrt(0.5)
            block[..., 0, :] *= math.sqrt(0.5)
            block[:, -1] = block[..., -1, :] = 0.0
        sym = self.symbol.reshape(j.size, -1)[:, idx]
        np.einsum("hkphkq->hkpq", block)[...] += _real_form(sym, 0.0).transpose(2, 3, 0, 1)
        return block.reshape((2 * sym.size,) * 2)


# ---- steady amplitude-equation problem ----

class FcglSteadyProblem(_SteadyProblem):
    """Steady states of the forced amplitude equation; the continuation
    parameter is gamma."""

    def state_of(self, z: np.ndarray) -> ComplexField:
        return ComplexField(self.length, self.unpack(z))


# ---- harmonic collocation problem for the forced model ----

class PdeHarmonicProblem(_SteadyProblem):
    """Time-periodic states of the forced model as coupled harmonic profiles.

    The residual of harmonic j is

        (mu + i(omega - j)) U_j + (alpha + i beta) U_j'' + N_j = 0

    with N_j the projection of N(U, t) onto e^{i j t}, evaluated by
    collocation at n_colloc equispaced times, the smallest power of two above
    4 max|j| (16 for the default harmonics), which is alias-free for the
    retained odd harmonics.  The continuation parameter is F.
    """

    def __init__(self, params: ModelParams, n: int, length: float,
                 harmonics=(-3, -1, 1, 3)):
        self.harmonics = np.asarray(harmonics, dtype=int)
        n_colloc = 1 << (4 * int(np.max(np.abs(self.harmonics)))).bit_length()
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

    def pack_cycle(self, stepper: etd.SpectralStepper) -> np.ndarray:
        """Unknowns of the stepper's cycle: U at the collocation times from
        t0 = stepper.t on, which the steps must divide, projected and moved to
        t = 0 by U_j e^{-i j t0}.  The stepper ends one period later."""
        t0, m = stepper.t, self.times.size
        sub = etd.steps_in(TWO_PI / m, stepper.dt)
        snapshots = []
        for _ in range(m):
            snapshots.append(stepper.field.values)
            stepper.run(sub)
        profiles = self.project @ np.stack(snapshots)
        return self.pack(np.exp(-1j * t0 * self.harmonics)[:, None] * profiles)

    def state_of(self, z: np.ndarray) -> HarmonicPdeState:
        return HarmonicPdeState(length=self.length, harmonics=self.harmonics,
                                profiles=self.unpack(z))


# ---- converged state containers ----

@dataclass
class HarmonicPdeState:
    length: float
    harmonics: np.ndarray
    profiles: np.ndarray          # (n_harmonics, n) complex

    @property
    def n(self) -> int:
        return self.profiles.shape[-1]

    def reconstruct(self, t: float = 0.0) -> ComplexField:
        phases = np.exp(1j * self.harmonics * t)
        return ComplexField(self.length, phases @ self.profiles, t)

    @property
    def norm(self) -> float:
        return solution_norm(self.profiles)


# ---- Newton solver ----

@dataclass
class SolveStats:
    """Solver work counters of a Newton solve or a branch and its labels.
    They are deterministic, so they belong in the output files."""
    gmres_solves: int = 0
    matvecs: int = 0
    gmres_unconverged: int = 0
    corrector_iterations: int = 0
    step_rejections: int = 0
    label_krylov_steps: int = 0
    rejected_matvecs: int = 0       # spent on corrector steps then rejected
    precond_floored: int = 0        # preconditioner blocks not inverted exactly

    def solve(self, matvec, b, psolve, rtol: float) -> np.ndarray:
        """_gmres(matvec, b, psolve, rtol), counted; returns the solution."""
        x, info, matvecs = _gmres(matvec, b, psolve, rtol)
        self.gmres_solves += 1
        self.matvecs += matvecs
        self.gmres_unconverged += int(info != 0)
        return x


class _CorrectorFailed(Exception):
    """The Newton loop rejected its iterate; args[0] is the last residual's
    max norm."""


def _wnorm(problem, dz: np.ndarray, dp: float) -> float:
    return math.sqrt(float(dz @ dz) / (2 * problem.symbol.size) + dp * dp)


def _bordered(problem, precond, z, pm, tau_z, tau_p, count, row):
    """Matvec and preconditioner of the arclength-bordered Jacobian at
    (z, pm), [[J, r], [c, d]]: the residual's Jacobian J with its parameter
    column r, closed by the row of _newton, c = tau_z/(count row) and
    d = tau_p/row.  The preconditioner is block elimination with precond =
    M ~ J^-1 (Govaerts 2000): with v = M r and the Schur scalar s = d - c v,
    (f, g) -> (M f - v y, y), y = (g - c M f)/s, the exact inverse when M
    is.  Where s is zero or not finite, it is M on the z-block alone."""
    nz = z.size
    jac = problem.jacobian(z, pm)
    rp = problem.dparam(z, pm)
    v, c = precond(rp), tau_z / (count * row)
    s = tau_p / row - float(c @ v)
    if not (math.isfinite(s) and s != 0.0):
        v, c, s = np.zeros(nz), np.zeros(nz), 1.0

    def matvec(dy):
        dz, dp = dy[:nz], dy[nz]
        out = np.empty(nz + 1)
        out[:nz] = jac(dz)
        out[:nz] += rp * dp
        out[nz] = (float(tau_z @ dz) / count + tau_p * dp) / row
        return out

    def psolve(dy):
        out = np.empty(nz + 1)
        mf = precond(dy[:nz])
        out[nz] = y = (dy[nz] - float(c @ mf)) / s
        np.multiply(v, -y, out=out[:nz])
        out[:nz] += mf
        return out

    return matvec, psolve


def _newton(problem, z0, p0, tau_z, tau_p, tol: float, cap: int,
            stats: SolveStats):
    """Newton on the residual closed by the row tau (z - z0, p - p0) = 0 from
    (z0, p0), counted in stats; returns (z, param, rn, corrections) once rn,
    the residual's max norm, and the row are below tol.  Raises
    _CorrectorFailed at the first iterate no better than the one before it
    by both of Newton's measures, in the arclength metric: its correction is
    no smaller, and its residual, taken with the row, is no smaller.  Either
    alone can grow for an iterate from which Newton still converges within
    the cap.  It also rejects, before solving, a residual or row that is not
    finite, and the iterate after cap corrections."""
    z, pm = z0.copy(), p0
    precond = problem.preconditioner(p0, stats)
    nz, count = z.size, 2 * problem.symbol.size
    row = math.sqrt(float(tau_z @ tau_z) / count**2 + tau_p**2)
    last_step = last_res = math.inf
    # the last pass only checks whether the final update converged
    for it in range(cap + 1):
        r = problem.residual(z, pm)
        cons = (float(tau_z @ (z - z0)) / count + tau_p * (pm - p0)) / row
        rn = problem.max_norm(r)
        if max(rn, abs(cons)) < tol:
            return z, pm, rn, it
        res = _wnorm(problem, r, cons)
        if it == cap or not math.isfinite(res):
            break
        inner_rtol = 1e-5 if rn > 1e-5 else 1e-8
        matvec, psolve = _bordered(problem, precond, z, pm, tau_z, tau_p, count, row)
        stats.corrector_iterations += 1
        dy = stats.solve(matvec, -np.concatenate([r, [cons]]), psolve,
                         inner_rtol)
        step = _wnorm(problem, dy[:nz], dy[nz])
        if not (step < last_step or res < last_res):
            break
        last_step, last_res = step, res
        z = z + dy[:nz]
        pm += float(dy[nz])
    raise _CorrectorFailed(rn)


def newton_solve(problem, z0: np.ndarray, param: float, tol: float = 1e-10,
                 max_iter: int = 25, stats: SolveStats | None = None):
    """Inexact Newton at the fixed param: _newton closed by the row tau =
    (0, 1), which holds the parameter exactly; returns (z, res, iters), iters
    the corrections taken, at most max_iter.  Its Krylov solves are counted
    in stats, when given.  Raises DivergenceError, with the last residual,
    where _newton rejects, so before any solve on a non-finite residual."""
    z = np.asarray(z0, dtype=float)
    stats = stats if stats is not None else SolveStats()
    try:
        z, _, rn, iters = _newton(problem, z, param, np.zeros(z.size), 1.0, tol,
                                  max_iter, stats)
    except _CorrectorFailed as exc:
        raise DivergenceError(exc.args[0]) from None
    return z, rn, iters


# ---- branches ----

STEP_GROWTH = 1.3   # step-size factor after a fast corrector
FAST_ITERS = 3      # corrector iterations that count as fast
MAX_CORRECTOR = 8   # corrector iterations before a step is rejected


@dataclass
class ContinuationControls:
    ds0: float = 0.01
    ds_min: float = 1e-5
    ds_max: float = 0.05
    max_points: int = 300
    param_min: float = -math.inf
    param_max: float = math.inf
    newton_tol: float = 1e-10


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


def _corrector(problem, z_pred, p_pred, tau_z, tau_p, controls,
               stats: SolveStats):
    """_newton from the predictor (z_pred, p_pred) with the arclength row
    along (tau_z, tau_p), to controls.newton_tol in MAX_CORRECTOR corrections;
    returns (z, param, passes), passes the corrections plus one, at most
    MAX_CORRECTOR.  Raises _CorrectorFailed, rejecting the step, as _newton."""
    z, pm, _, k = _newton(problem, z_pred, p_pred, tau_z, tau_p,
                          controls.newton_tol, MAX_CORRECTOR, stats)
    return z, pm, min(k + 1, MAX_CORRECTOR)


def _initial_tangent(problem, z, param, stats: SolveStats):
    """The unit tangent (tau_z, tau_p) of the branch at the converged point
    (z, param), from one Krylov solve of J tau_z = -tau_p dR/dparam, counted
    in stats.  It points toward decreasing param, tau_p < 0; its exact
    negation is the tangent the other way."""
    rp = problem.dparam(z, param)
    b = stats.solve(problem.jacobian(z, param), -rp,
                    problem.preconditioner(param, stats), 1e-8)
    scale = _wnorm(problem, b, 1.0)
    return -(b / scale), -(1.0 / scale)


def continue_branch(problem, z: np.ndarray, param: float, tau_z: np.ndarray,
                    tau_p: float, controls: ContinuationControls,
                    stats: SolveStats) -> Branch:
    """Walk a branch from the converged point (z, param) along the unit
    tangent (tau_z, tau_p), counting the solver work in stats.

    Steps adapt between ds_min and ds_max: halve when _corrector rejects a
    step, grow after fast convergence.  A rejected step's matvecs are also
    counted in stats.rejected_matvecs.  The walk ends at max_points points
    or once the parameter leaves [param_min, param_max].  The points are
    neither measured in arclength nor checked for folds.  Raises
    StalledBranchError (carrying the points so far) when the step size
    underflows.
    """
    points = [BranchPoint(index=0, param=param, norm=problem.norm_of(z), z=z)]
    ds = controls.ds0
    while len(points) < controls.max_points:
        z_pred = z + ds * tau_z
        p_pred = param + ds * tau_p
        matvecs = stats.matvecs
        try:
            z_new, p_new, iters = _corrector(problem, z_pred, p_pred, tau_z,
                                             tau_p, controls, stats)
        except _CorrectorFailed:
            stats.step_rejections += 1
            stats.rejected_matvecs += stats.matvecs - matvecs
            ds *= 0.5
            if ds < controls.ds_min:
                raise StalledBranchError(Branch(points, [], stats))
            continue
        dz, dp = z_new - z, p_new - param
        step = _wnorm(problem, dz, dp)
        tau_z, tau_p = dz / step, dp / step
        z, param = z_new, p_new
        points.append(BranchPoint(index=len(points), param=param,
                                  norm=problem.norm_of(z), z=z))
        if iters <= FAST_ITERS:
            ds = min(ds * STEP_GROWTH, controls.ds_max)
        if not (controls.param_min <= param <= controls.param_max):
            break
    return Branch(points, [], stats)


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


def trace_branch(problem, z0: np.ndarray, param0: float,
                 controls: ContinuationControls | None = None) -> Branch:
    """The branch through z0 at param0, traced both ways, with its folds.

    z0 is Newton-polished once and the tangent there solved once.
    continue_branch walks the backward half along that tangent (tau_p < 0)
    and the forward half along its negation, both counting into one
    SolveStats.  The halves are joined, the arclength is measured along the
    joined branch, and _folded_branch flags its folds.  A stalled half is
    kept and the other still walked; StalledBranchError then carries the
    join."""
    controls = controls or ContinuationControls()
    stats = SolveStats()
    z, _, _ = newton_solve(problem, z0, param0, tol=controls.newton_tol,
                           stats=stats)
    tau_z, tau_p = _initial_tangent(problem, z, param0, stats)
    halves, stalled = [], False
    for tz, tp in ((tau_z, tau_p), (-tau_z, -tau_p)):
        try:
            half = continue_branch(problem, z, param0, tz, tp, controls, stats)
        except StalledBranchError as exc:
            half, stalled = exc.branch, True
        halves.append(half.points)
    back, forward = halves
    pts, arc = back[:0:-1] + forward, 0.0
    for i, pt in enumerate(pts):
        if i:
            prev = pts[i - 1]
            arc += _wnorm(problem, pt.z - prev.z, pt.param - prev.param)
        pt.index, pt.arclength = i, arc
    branch = _folded_branch(pts, stats)
    if stalled:
        raise StalledBranchError(branch)
    return branch


# ---- stability ----

LABEL_CUT = -1e-3       # rates are resolved down to the first one below this
LABEL_THRESHOLD = 1e-8  # FCGL label rates below this are stable
LABEL_KRYLOV = 16       # first Arnoldi dimension; doubled until converged
LABEL_TOL = 1e-12       # Ritz value error allowed, times max(1, |lambda|)


@cache
def blas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with numpy,
    through ctypes, or None where there is no such library."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
            return get, put
    return None


@contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, so that no sum is split by thread
    and the results do not depend on the thread count; without thread
    control (blas_thread_calls() is None) the count is left as it is."""
    calls = blas_thread_calls()
    if calls is None:
        yield
        return
    get, put = calls
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)


def _shifted_inverse(block: np.ndarray, sigma: float):
    """x -> (block - sigma)^-1 x, with block overwritten by its factors.  The
    shifted block is eliminated as a 2x2 block matrix [[P, Q], [R, T]]: P is
    replaced by P^-1, Q by P^-1 Q and T by the inverse of the Schur complement
    T - R P^-1 Q.  When sigma exceeds the numerical abscissa of block by 1,
    P and the Schur complement have fields of values in Re <= -1, so neither
    is singular and both inverses have norm at most 1."""
    size = block.shape[0]
    block.flat[::size + 1] -= sigma
    m = size // 2
    p, q, r, t = block[:m, :m], block[:m, m:], block[m:, :m], block[m:, m:]
    p[...] = np.linalg.inv(p)
    q[...] = p @ q
    t -= r @ q
    t[...] = np.linalg.inv(t)

    def apply(x):
        y = p @ x[:m]
        x2 = t @ (x[m:] - r @ y)
        return np.concatenate([y - q @ x2, x2])

    return apply


def rightmost_eigenvalues(block: np.ndarray, bound: float):
    """(eigenvalues, dimension): the eigenvalues of the real square matrix
    block, rightmost first, down to the first one with real part below
    LABEL_CUT (all of them if none is), and the Arnoldi dimension that
    resolved them.

    bound must bound the numerical abscissa of block, the largest eigenvalue
    of its symmetric part.  Arnoldi with CGS2 runs on (block - sigma)^-1,
    sigma = bound + 1, whose eigenvalues 1/(lambda - sigma) are largest for
    lambda near the right edge of the spectrum (Meerbergen & Roose 1996).
    The Krylov dimension doubles from LABEL_KRYLOV until each Ritz value,
    from the rightmost down to the first below LABEL_CUT, has an error
    estimate within LABEL_TOL max(1, |lambda|); at the full dimension
    Arnoldi is exact.  block is overwritten."""
    size = block.shape[0]
    if size == 0:
        return np.empty(0, dtype=complex), 0
    sigma = bound + 1.0
    apply = _shifted_inverse(block, sigma)
    # a fixed start vector spread over every mode, without numpy.random:
    # the centred fractional parts of j^2 times the golden ratio
    j = np.arange(1.0, size + 1.0)
    start = np.modf(j * j * (0.5 + 0.5 * math.sqrt(5.0)))[0] - 0.5
    basis = (start / np.linalg.norm(start))[None, :]
    hess = np.zeros((1, 0))
    m, dim, last = 0, min(LABEL_KRYLOV, size), 0.0
    while True:
        basis = np.concatenate([basis[:m + 1], np.empty((dim - m, size))])
        hess = np.pad(hess[:m + 1, :m], ((0, dim - m), (0, dim - m)))
        while m < dim:
            hess[:m + 1, m], last = _arnoldi_step(apply, basis, m)
            m += 1
            if last == 0.0:             # an invariant subspace: exact
                break
            hess[m, m - 1] = last
        theta, vecs = np.linalg.eig(hess[:m, :m])
        order = np.argsort(-(1.0 / theta).real, kind="stable")
        theta, vecs = theta[order], vecs[:, order]
        lam = sigma + 1.0 / theta
        err = last * np.abs(vecs[-1]) / np.abs(theta) ** 2
        below = np.flatnonzero(lam.real < LABEL_CUT)
        keep = below[0] + 1 if below.size else m
        if last == 0.0 or m == size or np.all(
                err[:keep] <= LABEL_TOL * np.maximum(1.0, np.abs(lam[:keep]))):
            return lam[:keep], m
        dim = min(2 * dim, size)


def leading_rates_fcgl(problem: FcglSteadyProblem, z: np.ndarray,
                       gamma: float, stats: SolveStats | None = None
                       ) -> np.ndarray:
    """Real parts of the rightmost eigenvalues of the discrete Jacobian about
    an even steady state, largest first: every one down to the largest of
    the two parity blocks' last rates, the neutral translation mode included.
    The Jacobian maps even fields to even and odd to odd.  Each parity_block
    in turn goes to rightmost_eigenvalues, on one BLAS thread so that the
    rates do not depend on the thread count, with the right bound max
    Re(symbol) + max(0, max Re A + |B|) over the multipliers' samples: Re A
    +- |B| are the eigenvalues of the symmetric part of d -> A d + B conj(d),
    of which the dealiased product is a Galerkin projection.  The Arnoldi
    dimensions are counted in stats, when given."""
    if not np.all(np.isfinite(z)):
        raise InvalidFieldError("steady state has non-finite samples")
    a, b = problem._multipliers(z, gamma)
    bound = float(np.max(problem.symbol.real)) + max(
        0.0, float(np.max(a.real + np.abs(b))))
    rates, floor = [], -math.inf
    for sign in (1.0, -1.0):
        with _one_blas_thread():
            values, dim = rightmost_eigenvalues(
                problem.parity_block(z, gamma, sign), bound)
        if stats is not None:
            stats.label_krylov_steps += dim
        if values.size:
            rates.append(values.real)
            floor = max(floor, float(values.real.min()))
    rates = np.sort(np.concatenate(rates))[::-1]
    return rates[rates >= floor]


def classify_stability_fcgl(problem: FcglSteadyProblem, z: np.ndarray,
                            gamma: float, stats: SolveStats | None = None
                            ) -> tuple[str, float]:
    """(label, rate), the rate being the largest eigenvalue real part.  A
    non-uniform state has a neutral translation mode, the rate nearest zero,
    which is left out so that the rate shows the stability margin.  The
    eigensolver's work is counted in stats, when given."""
    try:
        rates = leading_rates_fcgl(problem, z, gamma, stats)
    except (np.linalg.LinAlgError, OscillabError):
        return "indeterminate", math.nan
    a = problem.unpack(z)
    if np.max(np.abs(a - a[0])) > 1e-10 * max(1.0, float(np.max(np.abs(a)))):
        rates = np.delete(rates, np.argmin(np.abs(rates)))
    rate = float(rates[0])
    return ("stable" if rate < LABEL_THRESHOLD else "unstable"), rate


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

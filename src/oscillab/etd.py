"""Second-order exponential time differencing (ETD2) integrators.

The linear, diagonal part of the semilinear system u' = ell*u + N(u, t) is
integrated exactly; the remainder is extrapolated with the two-step ETD2
rule

    u_{n+1} = e^z u_n + dt*g1(z) N_n + dt*g0(z) N_{n-1},       z = ell*dt,
    g1(z) = ((1+z) e^z - 1 - 2z) / z^2,   g0(z) = (1 + z - e^z) / z^2.

The first step takes N_{-1} = N_0, exponential Euler as g1 + g0 = (e^z-1)/z.
For small |z| the weight functions are evaluated by averaging over a unit
circle of quadrature nodes around z, which avoids the cancellation in the
direct formulas.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from . import spectral
from .errors import BlowUpError, ParameterError
from .fields import ComplexField

CONTOUR_POINTS = 32
SMALL_Z = 0.5
TINY, HUGE = np.finfo(float).tiny, np.finfo(float).max


def _etd_weight_funcs(z: np.ndarray):
    ez = np.exp(z)
    g1 = ((1.0 + z) * ez - 1.0 - 2.0 * z) / z**2
    g0 = (1.0 + z - ez) / z**2
    return g1, g0


def etd2_weights(z: np.ndarray):
    """Weight functions (g1, g0) evaluated stably for complex z."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 1:      # row by row, which keeps the contour temporaries small
        return tuple(np.stack(w) for w in zip(*map(etd2_weights, z)))
    g1, g0 = np.empty_like(z), np.empty_like(z)
    small = np.abs(z) < SMALL_Z
    g1[~small], g0[~small] = _etd_weight_funcs(z[~small])
    # mean over a circle of radius 1 centred at z (mean value property)
    theta = 2.0 * np.pi * (np.arange(CONTOUR_POINTS) + 0.5) / CONTOUR_POINTS
    ring = z[small][:, None] + np.exp(1j * theta)[None, :]
    g1[small], g0[small] = (w.mean(axis=1) for w in _etd_weight_funcs(ring))
    return g1, g0


def make_scheme(ell, dt: float):
    """ETD2's propagator e^z and weights dt g1(z), dt g0(z) at z = ell dt."""
    if dt <= 0:
        raise ParameterError("time step dt must be positive")
    z = np.atleast_1d(np.asarray(ell, dtype=complex)) * dt
    g1, g0 = etd2_weights(z)
    return np.exp(z), dt * g1, dt * g0


class Etd2Stepper:
    """Advance coefficient vectors with ETD2; representation-agnostic.

    The stepper holds its step dt, the propagator exp_dt and the weights
    w_new and w_old of make_scheme(ell, dt).  nonlinear(u, t, out) must
    write the non-stiff part at (u, t) into out, an array of u's shape and
    representation.  N at (u0, t0) stands in for the evaluation before the
    first step.  The stepper writes every step into buffers it reuses, u
    among them: copy u to keep a state.

    Each step flushes to zero every real and imaginary part of the new state
    below the smallest normal float.  A mode that decays geometrically, such
    as a non-mean mode of a state relaxing to a flat one, would otherwise
    spend hundreds of steps among the subnormals, where FFTs and products run
    several times slower."""

    def __init__(self, ell, dt: float, nonlinear: Callable | None, u0,
                 t0: float = 0.0):
        self.dt = dt
        self.exp_dt, self.w_new, self.w_old = make_scheme(ell, dt)
        if nonlinear is not None:       # else the subclass's method
            self.nonlinear = nonlinear
        shape = np.broadcast_shapes(np.shape(u0), self.exp_dt.shape)
        self.u = np.array(np.broadcast_to(u0, shape), dtype=complex)
        self.t0 = float(t0)
        self.steps = 0
        self._u_new, self._term, self._n_cur, self._n_prev = (
            np.empty_like(self.u) for _ in range(4))
        self._mags = np.empty(2 * self.u.size)
        self._below_tiny = np.empty(self._mags.shape, dtype=bool)
        with np.errstate(over="ignore", invalid="ignore"):
            self.nonlinear(self.u, self.t, self._n_prev)

    @property
    def t(self) -> float:
        return self.t0 + self.steps * self.dt

    def step(self) -> None:
        """One step, committed only when the new state is finite: a blow-up
        raises BlowUpError, naming the non-finite rows, and leaves u, t and
        steps at the last finite state."""
        u_new, term, n_cur = self._u_new, self._term, self._n_cur
        # overflow on the way to a blow-up is expected and caught below
        with np.errstate(over="ignore", invalid="ignore"):
            self.nonlinear(self.u, self.t, n_cur)
            np.multiply(self.exp_dt, self.u, out=u_new)
            u_new += np.multiply(self.w_new, n_cur, out=term)
            u_new += np.multiply(self.w_old, self._n_prev, out=term)
        parts = u_new.view(float).ravel()
        mags = np.abs(parts, out=self._mags)
        if not mags[mags.argmax()] <= HUGE:     # argmax finds a NaN first
            rows = np.isfinite(u_new).reshape(-1, u_new.shape[-1]).all(axis=-1)
            raise BlowUpError(self.steps + 1, np.flatnonzero(~rows).tolist())
        np.putmask(parts, np.less(mags, TINY, out=self._below_tiny), 0.0)
        self.u, self._u_new = u_new, self.u
        self._n_cur, self._n_prev = self._n_prev, n_cur
        self.steps += 1

    def run(self, n_steps: int) -> None:
        """Take n_steps."""
        for _ in range(n_steps):
            self.step()


class SpectralStepper(Etd2Stepper):
    """ETD2 for u' = ell u + system.nonlinear(u, t, drive) on the Fourier
    coefficients of a periodic field, or of a stack of fields, one per row,
    each with its own symbol and drive (field and norm need one row).  N is
    formed on the dealiasing grid in blocks of rows, each as for one row."""

    def __init__(self, ell, dt, system, length, values, drive, t0=0.0):
        self.system, self.length, self.drive = system, length, drive
        per_row = np.dtype(complex).itemsize * spectral.padded_size(
            np.shape(values)[-1])
        self._rows = max(1, BLOCK_BYTES // per_row)
        super().__init__(ell, dt, None, np.fft.fft(values), t0)

    def nonlinear(self, u_hat, t, out) -> None:
        n, rows, drive = u_hat.shape[-1], self._rows, self.drive
        u_rows, out_rows = u_hat.reshape(-1, n), out.reshape(-1, n)
        for r in range(0, len(u_rows), rows):
            block = slice(r, r + rows)
            fine = spectral.to_fine(u_rows[block])
            spectral.from_fine(self.system.nonlinear(
                fine, t, drive[block] if np.ndim(drive) else drive), n,
                out=out_rows[block])

    def keep(self, rows) -> None:
        """Go on with these rows of the stack alone, each bit for bit as in
        the whole stack: it keeps its state and the N of its last step."""
        for name in ("exp_dt", "w_new", "w_old", "drive", "u", "_u_new",
                     "_term", "_n_cur", "_n_prev"):
            setattr(self, name, getattr(self, name)[rows])
        size = 2 * self.u.size
        self._mags, self._below_tiny = self._mags[:size], self._below_tiny[:size]

    @property
    def field(self) -> ComplexField:
        return ComplexField(self.length, np.fft.ifft(self.u), self.t)

    @property
    def norm(self) -> float:
        return spectral.parseval_norm(self.u)


# Most bytes in one row block of the nonlinear term on the fine grid, its
# samples included, a little below glibc's default mmap threshold of 128 KiB:
# each temporary above it is mapped and faulted in afresh on every step.
BLOCK_BYTES = 120 * 1024


def make_stepper(field, p, dt: float, t0: float = 0.0) -> SpectralStepper:
    """ETD2 for u' = p.symbol(k) u + p.nonlinear(u, t, p.drive), for either
    system, with N evaluated on the dealiasing grid.  A state converged by
    FcglSteadyProblem, whose residual is this right-hand side, is a fixed
    point of every step, the first too, as dt (g1 + g0) ell = e^{ell dt} - 1.

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
    return SpectralStepper(ell, dt, first, length, values, drive, t0)


def steps_in(span: float, dt: float) -> int:
    """The number of steps dt in span, which dt must divide."""
    steps = int(round(span / dt))
    if abs(steps * dt - span) > 1e-9 * span:
        raise ParameterError(f"dt = {dt!r} does not divide the span {span!r}")
    return steps


def strobe_change(u, prev) -> list[float]:
    """Each row's settle measure: the solution norm of its change from prev."""
    return [spectral.parseval_norm(row)
            for row in (u - prev).reshape(-1, u.shape[-1])]


def run_to_steady(stepper: Etd2Stepper, steps: int, tol: float = 1e-9,
                  max_periods: int = 10000):
    """Advance a one-row stepper by strobes of steps steps until consecutive
    stroboscopic snapshots differ by less than tol in the solution norm.
    Returns (converged, periods, diffs)."""
    diffs = []
    prev = stepper.u.copy()
    for k in range(max_periods):
        stepper.run(steps)
        (diff,) = strobe_change(stepper.u, prev)
        diffs.append(diff)
        if diff < tol:
            return True, k + 1, diffs
        prev = stepper.u.copy()
    return False, max_periods, diffs

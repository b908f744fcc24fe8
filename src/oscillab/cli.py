"""Command-line driver: simulate | continue | floquet | reduce | flatstates | sweep.

Every run resolves its configuration (file + overrides), writes a manifest
echoing all resolved values, then dispatches.  Exit codes: 0 success,
2 configuration error, 3 numerical failure, 4 partial result (stalled
continuation with usable partial branch).
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__, continuation, etd, fileio, spectral
from .config import RunConfig, load_config, _validate
from .core import (FcglParams, ScalingMap, flat_state_quadratic, flat_states,
                   gamma_onset)
from .errors import (
    BlowUpError,
    ConfigError,
    ExistenceError,
    OscillabError,
    ParameterError,
    StalledBranchError,
)
from .fields import ComplexField
from .floquet import floquet_multipliers, mathieu_critical, monodromy_critical
from .reduction import (
    strong_ac_coeffs,
    strong_sech_pde,
    weak_ac_coeffs,
    weak_sech_fcgl,
    weak_sech_pde,
)

TWO_PI = 2.0 * math.pi


# ---- seeds ----

def _add_noise(values: np.ndarray, cfg: RunConfig) -> np.ndarray:
    if cfg.seed.noise == 0:
        return values
    rng = np.random.default_rng(cfg.seed.noise_seed)
    rms = math.sqrt(float(np.mean(np.abs(values) ** 2)))
    scale = cfg.seed.noise * (rms if rms > 0 else 1.0)
    bump = rng.standard_normal(values.size) + 1j * rng.standard_normal(values.size)
    return values + scale * bump / math.sqrt(2.0)


def _on_run_grid(run, seed):
    """The seed, if it holds the run's grid and harmonics; stepping or
    packing it on others would silently mix its samples."""
    def grid(s):
        return s.n, s.length, [int(j) for j in getattr(s, "harmonics", [])]
    have, want = grid(seed), grid(run)
    if have[::2] != want[::2] or not math.isclose(have[1], want[1],
                                                  rel_tol=1e-12):
        raise ConfigError(f"seed file holds (n, length, harmonics) = {have}, "
                          f"the run needs {want}")
    return seed


def build_seed(cfg: RunConfig) -> ComplexField:
    """The configured seed field.  The forced model's flat seed is the upper
    flat state at the mapped forcing, carried to the fast frame as
    U = eps A e^{i(t + pi/4)} at t = 0."""
    n, length = cfg.grid.n, cfg.grid.length
    kind, pde = cfg.seed.kind, cfg.system.kind == "pde"
    if kind == "zero":
        values = np.zeros(n, dtype=complex)
    elif kind == "flat":
        p, scale, shift = cfg.fcgl_params(), 1.0, 0.0
        if pde:
            p = replace(p, gamma=cfg.scaling().to_gamma(cfg.params.f))
            scale, shift = cfg.params.epsilon, math.pi / 4
        fs = flat_states(p)
        if not fs.roots:
            raise ExistenceError(f"no flat states at gamma={p.gamma}")
        root = fs.roots[-1]
        values = np.full(n, scale * root.r * np.exp(1j * (root.phi + shift)))
    elif kind == "sech-weak":
        if pde:
            profile = weak_sech_pde(cfg.model_params(), center=length / 2.0)
        else:
            p = cfg.fcgl_params()
            profile = weak_sech_fcgl(p, p.gamma, center=length / 2.0)
        values = profile.as_field(n, length).values
    elif kind == "sech-strong" and pde:
        mp = cfg.model_params()
        fp = mathieu_critical(mp, cfg.floquet.j_trunc)
        profile = strong_sech_pde(strong_ac_coeffs(fp, mp), fp, mp.f,
                                  center=length / 2.0)
        values = profile.as_field(n, length).values
    elif kind == "file":
        state = fileio.read_snapshot(cfg.seed.path)
        if isinstance(state, continuation.HarmonicPdeState):
            if not pde:
                raise ConfigError(
                    "seed file holds a harmonic state, not a field")
            state = state.reconstruct(0.0)
        length, values = state.length, _on_run_grid(cfg.grid, state).values
    else:
        raise ConfigError(
            f"seed kind {kind!r} is not valid for system={cfg.system.kind}")
    return ComplexField(length, _add_noise(values, cfg))


# ---- simulate ----

def cmd_simulate(cfg: RunConfig, out: str) -> int:
    ts = cfg.timestepping
    dt = ts.dt
    seed = build_seed(cfg)
    if cfg.system.kind == "fcgl":
        p = cfg.fcgl_params()
        strobe = max(1, int(round(1.0 / dt))) * dt
    else:
        p = cfg.model_params()
        strobe = TWO_PI
    stepper = etd.make_stepper(seed, p, dt)
    times, norms = [stepper.t], [stepper.norm]

    def observer(st):
        times.append(st.t)
        norms.append(st.norm)
        stride = cfg.output.snapshot_stride
        if stride > 0 and st.steps % stride == 0:
            fileio.write_snapshot(
                os.path.join(out, f"snapshot_{st.steps:08d}.txt"), st.field)

    n_steps = int(round(ts.t_end / dt))
    summary, code = [], 0
    try:
        stepper.run(n_steps, observer=observer, stride=cfg.output.norm_stride)
        summary += [("final_time", stepper.t), ("final_norm", stepper.norm)]
        try:
            converged, periods, diffs = etd.run_to_steady(
                stepper, strobe, tol=ts.steady_tol, max_periods=ts.max_periods)
        except ParameterError:
            summary.append(("steady_converged",
                            "skipped: dt does not divide period"))
        else:
            summary += [("steady_converged", converged),
                        ("steady_periods", periods),
                        ("final_strobe_diff", diffs[-1] if diffs else math.nan)]
            if cfg.system.kind == "pde":
                ref = stepper.u.copy()
                stepper.run(etd.steps_in(strobe, dt))
                diff = spectral.parseval_norm(stepper.u - ref)
                summary.append(("subharmonic_period_diff", diff))
                summary.append(("subharmonic_rel_diff",
                                diff / stepper.norm if stepper.norm > 0 else 0.0))
    except BlowUpError as exc:
        # final.txt then holds the last finite state
        print(f"numerical failure: BlowUpError: {exc}", file=sys.stderr)
        summary += [("blowup_step", exc.step), ("blowup_time", exc.step * dt),
                    ("last_finite_norm", stepper.norm)]
        code = 3
    fileio.write_norm_series(os.path.join(out, "norms.csv"), times, norms)
    fileio.write_snapshot(os.path.join(out, "final.txt"), stepper.field)
    fileio.write_kv(os.path.join(out, "summary.txt"), summary)
    return code


# ---- flatstates ----

def cmd_flatstates(cfg: RunConfig, out: str) -> int:
    p = cfg.fcgl_params()
    fs = flat_states(p)
    a, b, c = flat_state_quadratic(p)
    rows = []
    for root in fs.roots:
        # quartic residual, relative to the coefficient scale
        res = a * root.r_sq**2 + b * root.r_sq + c
        scale = max(abs(a) * root.r_sq**2, abs(b) * root.r_sq, abs(c), 1e-300)
        rows.append((root.r_sq, root.r, root.phi, abs(res) / scale))
    fileio.write_csv(os.path.join(out, "flatstates.csv"),
                     ["r_sq", "r", "phi", "relative_residual"], rows)
    summary = [("gamma", p.gamma), ("gamma0", fs.gamma0),
               ("gamma_d", fs.gamma_d if fs.gamma_d is not None else math.nan),
               ("n_roots", len(fs.roots))]
    if cfg.system.kind == "pde":
        summary += [("f_onset_weak", cfg.scaling().to_forcing(fs.gamma0))]
        if fs.gamma_d is not None:
            summary += [("f_fold_weak", cfg.scaling().to_forcing(fs.gamma_d))]
    fileio.write_kv(os.path.join(out, "summary.txt"), summary)
    return 0


# ---- floquet ----

def cmd_floquet(cfg: RunConfig, out: str) -> int:
    mp = cfg.model_params()
    fp = mathieu_critical(mp, cfg.floquet.j_trunc)
    f_mono = monodromy_critical(mp)
    weak = ScalingMap(1.0).to_forcing(gamma_onset(mp.mu, mp.omega - 1.0))
    fileio.write_eigenfunctions(os.path.join(out, "eigenfunctions.csv"), fp,
                                cfg.floquet.n_samples)
    summary = [("f_c", fp.f_c), ("f_c_monodromy", f_mono),
               ("method_rel_gap", abs(fp.f_c - f_mono) / fp.f_c),
               ("weak_limit_formula", weak),
               ("mathieu_residual", fp.mathieu_residual())]
    if cfg.floquet.diagnostics:
        for tag, f in (("f0", 0.0), ("fc", fp.f_c)):
            for i, m in enumerate(floquet_multipliers(f, mp)):
                summary += [(f"multiplier_{tag}_{i}_re", m.real),
                            (f"multiplier_{tag}_{i}_im", m.imag)]
    fileio.write_kv(os.path.join(out, "summary.txt"), summary)
    return 0


# ---- reduce ----

def cmd_reduce(cfg: RunConfig, out: str) -> int:
    n, length = cfg.grid.n, cfg.grid.length
    if cfg.system.kind == "fcgl":
        p = cfg.fcgl_params()
        ac = weak_ac_coeffs(p)
        gamma0 = gamma_onset(p.mu, p.nu)
        items = [("regime", "weak"), ("lin", ac.lin), ("diff", ac.diff),
                 ("cub", ac.cub), ("phi1", ac.phi), ("gamma0", gamma0),
                 ("gamma", p.gamma),
                 ("ineq_mu_negative", p.mu),
                 ("ineq_subcritical_cubic", p.mu * p.c_re + p.nu * p.c_im),
                 ("ineq_effective_diffusion", p.alpha * p.mu + p.beta * p.nu),
                 ("ineq_below_onset", p.gamma - gamma0)]
        make_profile = partial(weak_sech_fcgl, p, p.gamma)
    else:
        mp = cfg.model_params()
        fp = mathieu_critical(mp, cfg.floquet.j_trunc)
        ac = strong_ac_coeffs(fp, mp)
        items = [("regime", "strong"), ("f_c", fp.f_c), ("lin", ac.lin),
                 ("diff", ac.diff), ("cub", ac.cub), ("f", mp.f),
                 ("lambda_scaled", mp.f / fp.f_c - 1.0)]
        make_profile = partial(strong_sech_pde, ac, fp, mp.f)
    try:
        profile = make_profile(center=length / 2.0)
    except ExistenceError as exc:
        items.append(("sech_seed", f"unavailable: {exc}"))
        fileio.write_kv(os.path.join(out, "reduction.txt"), items)
        print(f"existence failure: {exc}", file=sys.stderr)
        return 3
    items += [("sech_amp", profile.amp), ("sech_inv_width", profile.inv_width)]
    fileio.write_kv(os.path.join(out, "reduction.txt"), items)
    fileio.write_snapshot(os.path.join(out, "seed.txt"),
                          profile.as_field(n, length, t=0.0))
    return 0


# ---- continue ----

def _write_branch_outputs(out, branch, problem, snapshot_stride: int) -> None:
    fileio.write_branch(os.path.join(out, "branch.csv"), branch)
    fileio.write_folds(os.path.join(out, "folds.csv"), branch.folds)
    keep = {0, len(branch.points) - 1}
    keep.update(pt.index for pt in branch.points if pt.fold)
    if snapshot_stride > 0:
        keep.update(pt.index for pt in branch.points
                    if pt.index % snapshot_stride == 0)
    for pt in branch.points:
        if pt.index in keep:
            fileio.write_snapshot(
                os.path.join(out, f"point_{pt.index:04d}.txt"),
                problem.state_of(pt.z))


def cmd_continue(cfg: RunConfig, out: str) -> int:
    c = cfg.continuation
    controls = continuation.ContinuationControls(
        ds0=c.ds0, ds_min=c.ds_min, ds_max=c.ds_max,
        max_points=c.max_points, param_min=c.param_min,
        param_max=c.param_max, tol=c.newton_tol)
    seed_steady = []
    if cfg.system.kind == "fcgl":
        p = cfg.fcgl_params()
        param = p.gamma
        problem = continuation.FcglSteadyProblem(p, cfg.grid.n, cfg.grid.length)
        z0 = problem.pack(build_seed(cfg).values)
        classify = partial(continuation.classify_stability_fcgl, problem)
        if c.classify and continuation.blas_thread_calls() is None:
            fileio.write_kv(os.path.join(out, "manifest.txt"), [(
                "note", "no OpenBLAS thread control found: the labels ran "
                        "on the default BLAS threads")], mode="a")
    else:
        mp = cfg.model_params()
        param = mp.f
        problem = continuation.PdeHarmonicProblem(mp, cfg.grid.n,
                                                  cfg.grid.length)
        if cfg.seed.kind == "file":
            state = fileio.read_snapshot(cfg.seed.path)
            z0 = problem.pack(_on_run_grid(problem, state).profiles)
        else:
            # converge toward the periodic attractor, then sample its cycle
            # at the collocation times, which the steps must divide
            m = problem.times.size
            steps = m * max(1, math.ceil(TWO_PI / cfg.timestepping.dt / m))
            stepper = etd.make_stepper(build_seed(cfg), mp, TWO_PI / steps)
            tol = max(cfg.timestepping.steady_tol, 1e-9)
            converged, periods, _ = etd.run_to_steady(
                stepper, TWO_PI, tol=tol,
                max_periods=cfg.timestepping.max_periods)
            seed_steady = [("seed_steady_converged", converged),
                           ("seed_steady_periods", periods)]
            if not converged:
                print(f"seed trajectory not steady after {periods} periods; "
                      "continuing from its last period", file=sys.stderr)
            z0 = problem.pack_cycle(stepper)
        classify = partial(continuation.classify_stability_pde, problem)
    stalled = False
    try:
        branch = continuation.trace_branch(problem, z0, param, controls)
    except StalledBranchError as exc:
        branch, stalled = exc.branch, True
    if c.classify:
        continuation.classify_branch(branch, classify, c.classify_stride)
    _write_branch_outputs(out, branch, problem, c.snapshot_stride)
    fileio.write_kv(os.path.join(out, "stats.txt"),
                    seed_steady + branch.stats.items())
    if stalled:
        print("continuation stalled; partial branch written", file=sys.stderr)
        return 4
    return 0


# ---- sweep ----

def _probe_setup(cfg: RunConfig, nu: float, gamma: float):
    """The seed and the equation of the sweep probe at (nu, gamma), both in
    the slow frame; the forced model's probe is their scaling-map image."""
    n, length = cfg.grid.n, cfg.grid.length
    p = replace(cfg.fcgl_params(), nu=nu, gamma=gamma)
    if cfg.system.kind == "fcgl":
        return _probe_seed(p, n, length), p
    seed = _probe_seed(p, n, length, eps=cfg.params.epsilon,
                       phase_shift=math.pi / 4)
    return seed, cfg.scaling().fcgl_to_pde(p)


SWEEP_OUTCOMES = ("decayed", "localized", "flat", "indeterminate")


def _sweep_probe(i: int, j: int, nu: float, param: float, end) -> tuple:
    """One sweep.csv row from a probe's end state; a probe without one (its
    set-up failed or it blew up) is indeterminate."""
    outcome = "indeterminate" if end is None else _classify_endstate(end)
    return (i, j, nu, param, outcome)


def _probe_seed(p: FcglParams, n: int, length: float, eps: float = 1.0,
                phase_shift: float = 0.0) -> ComplexField:
    """Sech pulse whose core sits on the upper flat state when one exists;
    otherwise the small below-onset sech, otherwise a tiny bump.  For the
    forced model the pulse is mapped to the fast frame: amplitudes times
    eps, the below-onset sech's width divided by eps, phases plus
    phase_shift."""
    fs = flat_states(p)
    if fs.roots:
        root = fs.roots[-1]
        core = root.r * np.exp(1j * (root.phi + phase_shift))
        inv_width = 16.0 / length
    else:
        try:
            prof = weak_sech_fcgl(p, p.gamma, center=length / 2.0)
            prof = replace(prof, inv_width=eps * prof.inv_width)
            return ComplexField(length, eps * np.exp(1j * phase_shift)
                                * prof.as_field(n, length).values)
        except ExistenceError:
            core = 1e-2
            inv_width = 16.0 / length
    x = np.arange(n) * (length / n)
    pulse = core / np.cosh(inv_width * (x - length / 2.0))
    return ComplexField(length, eps * pulse.astype(complex))


def _classify_endstate(field: ComplexField) -> str:
    mags = np.abs(field.values)
    peak = float(mags.max())
    if peak < 1e-3:
        return "decayed"
    n = field.n
    edge = max(float(mags[: n // 8].max()), float(mags[-n // 8:].max()))
    return "localized" if edge < 0.2 * peak else "flat"


def cmd_sweep(cfg: RunConfig, out: str) -> int:
    """Step every probe as one row of a stacked state.  Rows are independent,
    so when some blow up, the rest are stepped again from their seeds
    without them, in another round."""
    s, dt = cfg.sweep, cfg.timestepping.dt
    steps = int(round(s.t_probe / dt))
    probes = [(i, j, float(nu), float(pv))
              for i, nu in enumerate(np.linspace(s.nu_min, s.nu_max, s.nu_count))
              for j, pv in enumerate(np.linspace(s.p_min, s.p_max, s.p_count))]
    live = []       # (probe index, seed, equation) of the probes to step
    for k, (_, _, nu, pv) in enumerate(probes):
        try:
            live.append((k, *_probe_setup(cfg, nu, pv)))
        except OscillabError:
            pass
    setup_failed, rounds, blown = len(probes) - len(live), 0, 0
    ends = [None] * len(probes)
    while live:
        rounds += 1
        keys, seeds, eqs = zip(*live)
        stepper = etd.make_stepper(seeds, eqs, dt)
        try:
            stepper.run(steps)
        except BlowUpError as exc:
            blown += len(exc.rows)
            live = [row for r, row in enumerate(live) if r not in exc.rows]
        else:
            for k, u in zip(keys, stepper.u):
                ends[k] = ComplexField(cfg.grid.length, np.fft.ifft(u))
            live = []
    rows = [_sweep_probe(*probe, end) for probe, end in zip(probes, ends)]
    fileio.write_csv(os.path.join(out, "sweep.csv"), ["nu", "gamma", "outcome"],
                     [(nu, pv, outcome) for _, _, nu, pv, outcome in rows])
    outcomes = [row[-1] for row in rows]
    fileio.write_kv(os.path.join(out, "stats.txt"), [
        ("probes", len(probes)), ("steps_per_probe", steps),
        ("rounds", rounds),
        *((name, outcomes.count(name)) for name in SWEEP_OUTCOMES),
        ("indeterminate_setup", setup_failed),
        ("indeterminate_blowup", blown)])
    return 0


# ---- entry point ----

COMMANDS = {
    "simulate": cmd_simulate,
    "continue": cmd_continue,
    "floquet": cmd_floquet,
    "reduce": cmd_reduce,
    "flatstates": cmd_flatstates,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscillab",
        description="Oscillon laboratory for a parametrically forced complex "
                    "field equation and its amplitude reductions.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", default=None,
                        help="seed spec: zero | flat | sech-weak | sech-strong "
                             "| file:PATH")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="config override (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
        if args.seed:
            if args.seed.startswith("file:"):
                cfg.seed.kind = "file"
                cfg.seed.path = args.seed[len("file:"):]
            else:
                cfg.seed.kind = args.seed
            _validate(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or f"oscillab-{args.command}"
    os.makedirs(out, exist_ok=True)
    fileio.write_manifest(out, __version__, args.command, cfg.items())
    try:
        return COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OscillabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

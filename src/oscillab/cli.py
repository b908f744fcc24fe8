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
from dataclasses import asdict, replace
from functools import partial

import numpy as np

from . import __version__, continuation, etd, fileio
from .config import RunConfig, load_config
from .core import (TWO_PI, FcglParams, ScalingMap, flat_state_quadratic,
                   flat_states, gamma_onset)
from .errors import (
    BlowUpError,
    ConfigError,
    ExistenceError,
    OscillabError,
    ParameterError,
    ShapeError,
    StalledBranchError,
)
from .fields import ComplexField
from .floquet import floquet_multipliers, mathieu_critical, monodromy_critical
from .reduction import (
    SechProfile,
    strong_ac_coeffs,
    strong_sech_pde,
    weak_ac_coeffs,
    weak_sech_fcgl,
    weak_sech_pde,
)


# ---- seeds ----

def _add_noise(values: np.ndarray, cfg: RunConfig) -> np.ndarray:
    if cfg.seed.noise == 0:
        return values
    rng = np.random.default_rng(cfg.seed.noise_seed)
    rms = math.sqrt(float(np.mean(np.abs(values) ** 2)))
    scale = cfg.seed.noise * (rms if rms > 0 else 1.0)
    re, im = rng.standard_normal((2, *values.shape))
    return values + scale * (re + 1j * im) / math.sqrt(2.0)


def file_seed(cfg: RunConfig, command: str = "simulate"):
    """The state in the seed file as command takes it: the harmonic state
    for the forced model's continue, else a field (a harmonic state taken at
    t = 0).  A file that cannot be read as a snapshot, or whose state is off
    the run's grid and harmonics, where its samples would be silently mixed,
    is a configuration error."""
    path, pde = cfg.seed.path, cfg.system.kind == "pde"
    try:
        state = fileio.read_snapshot(path)
    except (OSError, ValueError, ShapeError, ParameterError) as exc:
        raise ConfigError(f"cannot read seed file {path}: {exc}") from exc
    run = cfg.grid
    if pde and command == "continue":
        run = continuation.PdeHarmonicProblem(cfg.model_params(), run.n,
                                              run.length)
    elif isinstance(state, continuation.HarmonicPdeState):
        if not pde:
            raise ConfigError("seed file holds a harmonic state, not a field")
        state = state.reconstruct(0.0)

    def grid(s):
        return s.n, s.length, [int(j) for j in getattr(s, "harmonics", [])]
    have, want = grid(state), grid(run)
    if have[::2] != want[::2] or not math.isclose(have[1], want[1],
                                                  rel_tol=1e-12):
        raise ConfigError(f"seed file holds (n, length, harmonics) = {have}, "
                          f"the run needs {want}")
    return state


def build_seed(cfg: RunConfig) -> ComplexField:
    """The configured seed field.  The forced model's flat seed is the
    scaling map's lift of the upper flat state at the mapped forcing."""
    n, length, t = cfg.grid.n, cfg.grid.length, 0.0
    kind, pde = cfg.seed.kind, cfg.system.kind == "pde"
    if kind == "zero":
        values = np.zeros(n, dtype=complex)
    elif kind == "flat":
        p = cfg.fcgl_params()
        fs = flat_states(p)
        if not fs.roots:
            raise ExistenceError(f"no flat states at gamma={p.gamma}")
        root = fs.roots[-1]
        values = np.full(n, root.r * np.exp(1j * root.phi))
        if pde:
            values = cfg.scaling().lift(values)
    elif kind == "sech-weak":
        if pde:
            profile = weak_sech_pde(cfg.model_params(), center=length / 2.0)
        else:
            p = cfg.fcgl_params()
            profile = weak_sech_fcgl(p, p.gamma, center=length / 2.0)
        values = profile.as_field(n, length).values
    elif kind == "sech-strong":
        mp = cfg.model_params()
        fp = mathieu_critical(mp, cfg.floquet.j_trunc)
        profile = strong_sech_pde(strong_ac_coeffs(fp, mp), fp, mp.f,
                                  center=length / 2.0)
        values = profile.as_field(n, length).values
    elif kind == "file":
        state = file_seed(cfg)
        length, values, t = state.length, state.values, state.t
    return ComplexField(length, _add_noise(values, cfg), t)


# ---- simulate ----

def settle_strobe(cfg: RunConfig) -> int:
    """The steps the settle test compares states over: those nearest one
    time unit for the FCGL, one forcing period for the forced model, or 0
    where dt does not divide the period."""
    dt = cfg.timestepping.dt
    if cfg.system.kind == "fcgl":
        return max(1, int(round(1.0 / dt)))
    try:
        return etd.steps_in(TWO_PI, dt)
    except ParameterError:
        return 0


def cmd_simulate(cfg: RunConfig, out: str) -> int:
    ts = cfg.timestepping
    dt, strobe = ts.dt, settle_strobe(cfg)
    seed = build_seed(cfg)
    p = cfg.fcgl_params() if cfg.system.kind == "fcgl" else cfg.model_params()
    stepper = etd.make_stepper(seed, p, dt, t0=seed.t)
    times, norms = [stepper.t], [stepper.norm]
    norm_every, snap_every = cfg.output.norm_stride, cfg.output.snapshot_stride
    summary, code = [], 0
    try:
        for _ in range(int(round(ts.t_end / dt))):
            stepper.step()
            k = stepper.steps
            if k % norm_every == 0:
                times.append(stepper.t)
                norms.append(stepper.norm)
            if snap_every > 0 and k % snap_every == 0:
                fileio.write_snapshot(
                    os.path.join(out, f"snapshot_{k:08d}.txt"), stepper.field)
        summary += [("final_time", stepper.t), ("final_norm", stepper.norm)]
        if strobe:
            converged, periods, diffs = etd.run_to_steady(
                stepper, strobe, tol=ts.steady_tol, max_periods=ts.max_periods)
            summary += [("steady_converged", converged),
                        ("steady_periods", periods),
                        ("final_strobe_diff", diffs[-1] if diffs else math.nan)]
            if cfg.system.kind == "pde":
                ref = stepper.u.copy()
                stepper.run(strobe)
                (diff,) = etd.strobe_change(stepper.u, ref)
                summary.append(("subharmonic_period_diff", diff))
                summary.append(("subharmonic_rel_diff",
                                diff / stepper.norm if stepper.norm > 0 else 0.0))
        else:
            summary.append(("steady_converged",
                            "skipped: dt does not divide period"))
    except BlowUpError as exc:
        # final.txt then holds the last finite state
        print(f"numerical failure: BlowUpError: {exc}", file=sys.stderr)
        summary += [("blowup_step", exc.step),
                    ("blowup_time", seed.t + exc.step * dt),
                    ("last_finite_norm", stepper.norm)]
        code = 3
    fileio.write_norm_series(os.path.join(out, "norms.csv"), times, norms)
    fileio.write_snapshot(os.path.join(out, "final.txt"), stepper.field)
    fileio.write_kv(os.path.join(out, "summary.txt"), summary)
    fileio.write_kv(os.path.join(out, "stats.txt"), [("steps", stepper.steps)])
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
    path = os.path.join(out, "reduction.txt")
    weak = cfg.system.kind == "fcgl"
    try:
        if weak:
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
    except OscillabError as exc:
        fileio.write_kv(path, [("regime", "weak" if weak else "strong"),
                               ("coefficients", f"unavailable: {exc}")])
        raise
    try:
        profile = make_profile(center=length / 2.0)
    except ExistenceError as exc:
        items.append(("sech_seed", f"unavailable: {exc}"))
        fileio.write_kv(path, items)
        print(f"existence failure: {exc}", file=sys.stderr)
        return 3
    items += [("sech_amp", profile.amp), ("sech_inv_width", profile.inv_width)]
    fileio.write_kv(path, items)
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
    seed_steady, note = [], None
    if cfg.system.kind == "fcgl":
        p = cfg.fcgl_params()
        problem = continuation.FcglSteadyProblem(p, cfg.grid.n, cfg.grid.length)
        z0 = problem.pack(build_seed(cfg).values)
        if c.classify and continuation.blas_thread_calls() is None:
            note = ("no OpenBLAS thread control found: the labels ran on the "
                    "default BLAS threads")
    else:
        mp = cfg.model_params()
        problem = continuation.PdeHarmonicProblem(mp, cfg.grid.n,
                                                  cfg.grid.length)
        note = ("the forced model has no stability labels: its points are "
                "left unclassified")
        if cfg.seed.kind == "file":
            z0 = problem.pack(_add_noise(file_seed(cfg, "continue").profiles,
                                         cfg))
        else:
            # converge toward the periodic attractor, then sample its cycle
            # at the collocation times, which the steps must divide
            m = problem.times.size
            steps = m * max(1, math.ceil(TWO_PI / cfg.timestepping.dt / m))
            stepper = etd.make_stepper(build_seed(cfg), mp, TWO_PI / steps)
            converged, periods, _ = etd.run_to_steady(
                stepper, steps, tol=cfg.timestepping.steady_tol,
                max_periods=cfg.timestepping.max_periods)
            seed_steady = [("seed_steady_converged", converged),
                           ("seed_steady_periods", periods)]
            if not converged:
                print(f"seed trajectory not steady after {periods} periods; "
                      "continuing from its last period", file=sys.stderr)
            z0 = problem.pack_cycle(stepper)
    if c.classify and note:
        fileio.write_kv(os.path.join(out, "manifest.txt"), [("note", note)], mode="a")
    stalled = False
    try:
        branch = continuation.trace_branch(problem, z0, problem.params.drive, c)
    except StalledBranchError as exc:
        branch, stalled = exc.branch, True
    if c.classify and cfg.system.kind == "fcgl":
        for pt in branch.points[::c.classify_stride]:
            pt.stability, pt.leading_rate = continuation.classify_stability_fcgl(
                problem, pt.z, pt.param, branch.stats)
    _write_branch_outputs(out, branch, problem, c.snapshot_stride)
    fileio.write_kv(os.path.join(out, "stats.txt"),
                    seed_steady + list(asdict(branch.stats).items()))
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
    scaling = cfg.scaling()
    slow = _probe_seed(p, n, scaling.epsilon * length)
    return ComplexField(length, scaling.lift(slow.values)), scaling.fcgl_to_pde(p)


SWEEP_OUTCOMES = ("decayed", "localized", "flat", "indeterminate")


def _sweep_probe(i: int, j: int, nu: float, param: float, end) -> tuple:
    """One sweep.csv row from a probe's end state; a probe without one (its
    set-up failed or it blew up) is indeterminate."""
    outcome = "indeterminate" if end is None else _classify_endstate(end)
    return (i, j, nu, param, outcome)


def _probe_seed(p: FcglParams, n: int, length: float) -> ComplexField:
    """Sech pulse whose core sits on the upper flat state when one exists;
    otherwise the small below-onset sech, otherwise a tiny bump."""
    center, inv_width = length / 2.0, 16.0 / length
    fs = flat_states(p)
    if fs.roots:
        root = fs.roots[-1]
        turn = np.exp(1j * root.phi)
        prof = SechProfile(root.r, inv_width, center, lambda t: turn)
    else:
        try:
            prof = weak_sech_fcgl(p, p.gamma, center=center)
        except ExistenceError:
            prof = SechProfile(1e-2, inv_width, center, lambda t: 1.0 + 0j)
    return prof.as_field(n, length)


def _classify_endstate(field: ComplexField) -> str:
    mags = np.abs(field.values)
    peak = float(mags.max())
    if peak < 1e-3:
        return "decayed"
    w = max(1, field.n // 8)    # the same window at both ends
    edge = max(float(mags[:w].max()), float(mags[-w:].max()))
    return "localized" if edge < 0.2 * peak else "flat"


def cmd_sweep(cfg: RunConfig, out: str) -> int:
    """Step every probe as one row of a stacked state for at most t_probe.
    A row leaves once it has settled, changing less than steady_tol over a
    strobe (rows run to the cap when dt does not divide the strobe), and is
    classified from its state then; a row that blows up leaves too."""
    s, ts = cfg.sweep, cfg.timestepping
    steps = int(round(s.t_probe / ts.dt))
    strobe = settle_strobe(cfg) or steps + 1      # else rows run to the cap
    probes = [(i, j, float(nu), float(pv))
              for i, nu in enumerate(np.linspace(s.nu_min, s.nu_max, s.nu_count))
              for j, pv in enumerate(np.linspace(s.p_min, s.p_max, s.p_count))]
    live = []       # (probe index, seed, equation) of the probes to step
    for k, (_, _, nu, pv) in enumerate(probes):
        try:
            live.append((k, *_probe_setup(cfg, nu, pv)))
        except OscillabError:
            pass
    setup_failed, blown, settled, row_steps = len(probes) - len(live), 0, 0, 0
    ends, keys = {}, [k for k, _, _ in live]    # keys: each row's probe
    if live:
        _, seeds, eqs = zip(*live)
        stepper = etd.make_stepper(seeds, eqs, ts.dt)
        prev = stepper.u.copy()

    def end_states(rows):
        for r in rows:
            ends[keys[r]] = ComplexField(stepper.length,
                                         np.fft.ifft(stepper.u[r]), stepper.t)
    while keys and stepper.steps < steps:
        try:
            stepper.step()
        except BlowUpError as exc:
            leave, blown = exc.rows, blown + len(exc.rows)
        else:
            row_steps, leave = row_steps + len(keys), []
            if stepper.steps % strobe == 0:
                changes = etd.strobe_change(stepper.u, prev)
                leave = [r for r, c in enumerate(changes) if c < ts.steady_tol]
                settled += len(leave)
                end_states(leave)
                prev = stepper.u.copy()
        if leave:
            stay = [r for r in range(len(keys)) if r not in leave]
            stepper.keep(stay)
            keys, prev = [keys[r] for r in stay], prev[stay]
    end_states(range(len(keys)))
    rows = [_sweep_probe(*probe, ends.get(k)) for k, probe in enumerate(probes)]
    fileio.write_csv(os.path.join(out, "sweep.csv"), ["nu", "gamma", "outcome"],
                     [(nu, pv, outcome) for _, _, nu, pv, outcome in rows])
    outcomes = [row[-1] for row in rows]
    fileio.write_kv(os.path.join(out, "stats.txt"), [
        ("probes", len(probes)), ("steps_per_probe", steps),
        ("row_steps", row_steps), ("settled", settled),
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
                        help="seed.kind (and seed.path) override: zero | flat "
                             "| sech-weak | sech-strong | file:PATH")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="config override (repeatable)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.override)     # --seed comes last, so it wins
    if args.seed and args.seed.startswith("file:"):
        overrides += ["seed.kind=file", "seed.path=" + args.seed[len("file:"):]]
    elif args.seed:
        overrides.append("seed.kind=" + args.seed)
    try:
        cfg = load_config(args.config, overrides)
        if cfg.seed.kind == "file" and args.command in ("simulate", "continue"):
            file_seed(cfg, args.command)
        c, p = cfg.continuation, cfg.params
        start = p.f if cfg.system.kind == "pde" else p.gamma
        if args.command == "continue" and not c.param_min <= start <= c.param_max:
            raise ConfigError(f"the branch would start at {start}, outside "
                              f"[{c.param_min}, {c.param_max}]")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = args.out or f"oscillab-{args.command}"
    try:
        os.makedirs(out, exist_ok=True)
        fileio.write_manifest(out, __version__, args.command, cfg.items())
    except OSError as exc:
        print(f"config error: cannot write {out}: {exc}", file=sys.stderr)
        return 2
    try:
        return COMMANDS[args.command](cfg, out)
    except OscillabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

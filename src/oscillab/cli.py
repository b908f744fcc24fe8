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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import partial

import numpy as np

from . import __version__, continuation, etd, fileio, spectral
from .config import RunConfig, load_config, _validate
from .core import FcglParams, ScalingMap, flat_states
from .errors import (
    BlowUpError,
    ConfigError,
    ExistenceError,
    OscillabError,
    StalledBranchError,
)
from .fields import ComplexField
from .floquet import (
    floquet_multipliers,
    mathieu_critical,
    monodromy_critical,
    weak_critical_forcing,
)
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
    if cfg.seed.noise <= 0:
        return values
    rng = np.random.default_rng(cfg.seed.noise_seed)
    rms = math.sqrt(float(np.mean(np.abs(values) ** 2)))
    scale = cfg.seed.noise * (rms if rms > 0 else 1.0)
    bump = rng.standard_normal(values.size) + 1j * rng.standard_normal(values.size)
    return values + scale * bump / math.sqrt(2.0)


def _flat_root(p: FcglParams):
    fs = flat_states(p)
    if not fs.roots:
        raise ExistenceError(f"no flat states at gamma={p.gamma}")
    return fs.roots[-1]


def build_fcgl_seed(cfg: RunConfig) -> ComplexField:
    n, length = cfg.grid.n, cfg.grid.length
    p = cfg.fcgl_params()
    kind = cfg.seed.kind
    if kind == "zero":
        values = np.zeros(n, dtype=complex)
    elif kind == "flat":
        root = _flat_root(p)
        values = np.full(n, root.r * np.exp(1j * root.phi), dtype=complex)
    elif kind == "sech-weak":
        profile = weak_sech_fcgl(p, p.gamma, center=length / 2.0)
        return ComplexField(length, _add_noise(
            profile.as_field(n, length).values, cfg))
    elif kind == "file":
        state = fileio.read_snapshot(cfg.seed.path)
        if not isinstance(state, ComplexField):
            raise ConfigError("seed file holds a harmonic state, not a field")
        return ComplexField(state.length, _add_noise(state.values, cfg))
    else:
        raise ConfigError(f"seed kind {kind!r} is not valid for system=fcgl")
    return ComplexField(length, _add_noise(values, cfg))


def build_pde_seed(cfg: RunConfig) -> ComplexField:
    n, length = cfg.grid.n, cfg.grid.length
    mp = cfg.model_params()
    kind = cfg.seed.kind
    eps = cfg.params.epsilon
    if kind == "zero":
        values = np.zeros(n, dtype=complex)
    elif kind == "flat":
        # FCGL flat root mapped back through U ~ eps A e^{i(t + pi/4)} at t=0
        hat = replace(cfg.fcgl_params(), gamma=cfg.scaling().to_gamma(mp.f))
        root = _flat_root(hat)
        values = np.full(n, eps * root.r * np.exp(1j * (root.phi + math.pi / 4)),
                         dtype=complex)
    elif kind == "sech-weak":
        profile = weak_sech_pde(mp, center=length / 2.0)
        return ComplexField(length, _add_noise(
            profile.as_field(n, length, t=0.0).values, cfg))
    elif kind == "sech-strong":
        fp = mathieu_critical(mp, cfg.floquet.j_trunc)
        coeffs = strong_ac_coeffs(fp, mp)
        profile = strong_sech_pde(coeffs, fp, mp.f, center=length / 2.0)
        return ComplexField(length, _add_noise(
            profile.as_field(n, length, t=0.0).values, cfg))
    elif kind == "file":
        state = fileio.read_snapshot(cfg.seed.path)
        if isinstance(state, continuation.HarmonicPdeState):
            state = state.reconstruct(0.0)
        return ComplexField(state.length, _add_noise(state.values, cfg))
    else:
        raise ConfigError(f"seed kind {kind!r} is not valid for system=pde")
    return ComplexField(length, _add_noise(values, cfg))


# ---- simulate ----

def cmd_simulate(cfg: RunConfig, out: str) -> int:
    ts = cfg.timestepping
    dt = ts.dt
    if cfg.system.kind == "fcgl":
        seed, p = build_fcgl_seed(cfg), cfg.fcgl_params()
        strobe = max(1, int(round(1.0 / dt))) * dt
    else:
        seed, p = build_pde_seed(cfg), cfg.model_params()
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
        steps_per_strobe = int(round(strobe / dt))
        if abs(steps_per_strobe * dt - strobe) < 1e-9 * strobe:
            converged, periods, diffs = etd.run_to_steady(
                stepper, strobe, tol=ts.steady_tol, max_periods=ts.max_periods)
            summary += [("steady_converged", converged),
                        ("steady_periods", periods),
                        ("final_strobe_diff", diffs[-1] if diffs else math.nan)]
            if cfg.system.kind == "pde":
                ref = stepper.u.copy()
                stepper.run(steps_per_strobe)
                diff = spectral.parseval_norm(stepper.u - ref)
                summary.append(("subharmonic_period_diff", diff))
                summary.append(("subharmonic_rel_diff",
                                diff / stepper.norm if stepper.norm > 0 else 0.0))
        else:
            summary.append(("steady_converged",
                            "skipped: dt does not divide period"))
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
    rows = []
    for root in fs.roots:
        # quartic residual, relative to the coefficient scale
        a = p.c_re**2 + p.c_im**2
        b = 2.0 * (p.mu * p.c_re + p.nu * p.c_im)
        c = p.mu**2 + p.nu**2 - p.gamma**2
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
    weak = weak_critical_forcing(mp.mu, mp.omega - 1.0)
    fileio.write_eigenfunctions(os.path.join(out, "eigenfunctions.csv"), fp,
                                cfg.floquet.n_samples)
    summary = [("f_c", fp.f_c), ("f_c_monodromy", f_mono),
               ("method_rel_gap", abs(fp.f_c - f_mono) / fp.f_c),
               ("weak_limit_formula", weak),
               ("mathieu_residual", fp.mathieu_residual())]
    if cfg.floquet.diagnostics:
        mults = floquet_multipliers(0.0, mp)
        for i, m in enumerate(mults):
            summary += [(f"multiplier_f0_{i}_re", m.real),
                        (f"multiplier_f0_{i}_im", m.imag)]
        mults_c = floquet_multipliers(fp.f_c, mp)
        for i, m in enumerate(mults_c):
            summary += [(f"multiplier_fc_{i}_re", m.real),
                        (f"multiplier_fc_{i}_im", m.imag)]
    fileio.write_kv(os.path.join(out, "summary.txt"), summary)
    return 0


# ---- reduce ----

def cmd_reduce(cfg: RunConfig, out: str) -> int:
    n, length = cfg.grid.n, cfg.grid.length
    if cfg.system.kind == "fcgl":
        p = cfg.fcgl_params()
        ac = weak_ac_coeffs(p)
        gamma0 = math.hypot(p.mu, p.nu)
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

def _trace_both(problem, z0, param0, controls):
    """Continue in both directions; returns (merged branch, stalled flag)."""
    stalled = False
    try:
        back = continuation.continue_branch(problem, z0, param0, -1, controls)
    except StalledBranchError as exc:
        back, stalled = exc.branch, True
    try:
        forward = continuation.continue_branch(problem, z0, param0, +1, controls)
    except StalledBranchError as exc:
        forward, stalled = exc.branch, True
    return continuation.merge_branches(back, forward), stalled


def _controls(cfg: RunConfig) -> continuation.ContinuationControls:
    c = cfg.continuation
    return continuation.ContinuationControls(
        ds0=c.ds0, ds_min=c.ds_min, ds_max=c.ds_max,
        max_points=c.max_points, param_min=c.param_min,
        param_max=c.param_max, tol=c.newton_tol)


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
                problem.state_of(pt.z, pt.param))


def cmd_continue(cfg: RunConfig, out: str) -> int:
    controls = _controls(cfg)
    if cfg.system.kind == "fcgl":
        p = cfg.fcgl_params()
        param = p.gamma
        problem = continuation.FcglSteadyProblem(p, cfg.grid.n, cfg.grid.length)
        z0 = problem.pack(build_fcgl_seed(cfg).values)

        def classify(z, g):
            label = continuation.classify_stability_fcgl(problem, z, g)
            return str(label), label.rate
    else:
        mp = cfg.model_params()
        param = mp.f
        problem = continuation.PdeHarmonicProblem(mp, cfg.grid.n,
                                                  cfg.grid.length)
        if cfg.seed.kind == "file":
            state = fileio.read_snapshot(cfg.seed.path, f=mp.f)
            if isinstance(state, ComplexField):
                raise ConfigError(
                    "pde continuation from file needs a harmonic snapshot")
        else:
            seed = build_pde_seed(cfg)
            # converge toward the periodic attractor before projecting;
            # steps per period must be a multiple of the snapshot count
            steps = 16 * max(1, math.ceil(TWO_PI / cfg.timestepping.dt / 16))
            stepper = etd.make_stepper(seed, mp, TWO_PI / steps)
            tol = max(cfg.timestepping.steady_tol, 1e-9)
            etd.run_to_steady(stepper, TWO_PI, tol=tol,
                              max_periods=cfg.timestepping.max_periods)
            state = continuation.timestepper_harmonics(stepper, mp.f)
        z0 = problem.pack(state.profiles)

        def classify(z, f_val):
            return continuation.classify_stability_pde(
                problem.state_of(z, f_val), mp)
    seed_stats = continuation.SolveStats()
    z0, _, _ = continuation.newton_solve(problem, z0, param, tol=controls.tol,
                                         stats=seed_stats)
    branch, stalled = _trace_both(problem, z0, param, controls)
    stride = cfg.continuation.classify_stride
    if cfg.continuation.classify and stride > 0:
        continuation.classify_branch(branch, classify, stride)
    _write_branch_outputs(out, branch, problem, cfg.continuation.snapshot_stride)
    fileio.write_kv(os.path.join(out, "stats.txt"),
                    (seed_stats + branch.stats).items())
    if stalled:
        print("continuation stalled; partial branch written", file=sys.stderr)
        return 4
    return 0


# ---- sweep ----

def _sweep_probe(job) -> tuple:
    (i, j, system, p, eps, param, grid_n, grid_len, dt, t_probe) = job
    try:
        if system == "fcgl":
            p = eq = replace(p, gamma=param)
            seed = _probe_seed(p, grid_n, grid_len)
        else:
            scaling = ScalingMap(eps)
            p = replace(p, gamma=scaling.to_gamma(param))
            seed = _probe_seed(p, grid_n, grid_len, scale=eps,
                               phase_shift=math.pi / 4)
            eq = replace(scaling.fcgl_to_pde(p), f=param)
        stepper = etd.make_stepper(seed, eq, dt)
        stepper.run(int(round(t_probe / dt)))
        return (i, j, p.nu, param, _classify_endstate(stepper.field))
    except OscillabError:
        return (i, j, p.nu, param, "indeterminate")


def _probe_seed(p: FcglParams, n: int, length: float, scale: float = 1.0,
                phase_shift: float = 0.0) -> ComplexField:
    """Sech pulse whose core sits on the upper flat state when one exists;
    otherwise the small below-onset sech, otherwise a tiny bump."""
    fs = flat_states(p)
    if fs.roots:
        root = fs.roots[-1]
        core = root.r * np.exp(1j * (root.phi + phase_shift))
        inv_width = 16.0 / length
    else:
        try:
            prof = weak_sech_fcgl(p, p.gamma, center=length / 2.0)
            return ComplexField(length, scale * np.exp(1j * phase_shift)
                                * prof.as_field(n, length).values)
        except ExistenceError:
            core = 1e-2
            inv_width = 16.0 / length
    x = np.arange(n) * (length / n)
    pulse = core / np.cosh(inv_width * (x - length / 2.0))
    return ComplexField(length, scale * pulse.astype(complex))


def _classify_endstate(field: ComplexField) -> str:
    mags = np.abs(field.values)
    peak = float(mags.max())
    if peak < 1e-3:
        return "decayed"
    n = field.n
    edge = max(float(mags[: n // 8].max()), float(mags[-n // 8:].max()))
    return "localized" if edge < 0.2 * peak else "flat"


def _worker_count() -> int:
    """Sweep pool size: OSCILLON_THREADS if set, else the CPU count."""
    raw = os.environ.get("OSCILLON_THREADS")
    if not raw:
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(
            f"OSCILLON_THREADS must be a positive integer, got {raw!r}")
    return workers


def cmd_sweep(cfg: RunConfig, out: str) -> int:
    workers = _worker_count()
    s = cfg.sweep
    nus = np.linspace(s.nu_min, s.nu_max, s.nu_count)
    ps = np.linspace(s.p_min, s.p_max, s.p_count)
    jobs = [(i, j, cfg.system.kind, replace(cfg.fcgl_params(), nu=float(nu)),
             cfg.params.epsilon, float(pv), cfg.grid.n, cfg.grid.length,
             cfg.timestepping.dt, s.t_probe)
            for i, nu in enumerate(nus) for j, pv in enumerate(ps)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_probe, jobs))
    else:
        results = [_sweep_probe(job) for job in jobs]
    results.sort(key=lambda r: (r[0], r[1]))
    param_name = "gamma" if cfg.system.kind == "fcgl" else "f"
    fileio.write_csv(os.path.join(out, "sweep.csv"),
                     ["nu", param_name, "outcome"],
                     [(nu, pv, outcome) for _, _, nu, pv, outcome in results])
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

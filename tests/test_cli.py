import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import oscillab
from oscillab import cli, continuation, etd, fileio, flat_states, make_stepper
from oscillab.cli import build_seed, main
from oscillab.config import load_config
from oscillab.continuation import HarmonicPdeState
from oscillab.errors import StalledBranchError
from oscillab.fields import ComplexField
from oscillab.floquet import mathieu_critical
from oscillab.reduction import strong_ac_coeffs, strong_sech_pde, weak_sech_fcgl


def read_kv(path):
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, _, val = line.partition(" = ")
            out[key] = val.strip()
    return out


def run(tmp_path, command, *args):
    out = tmp_path / command
    code = main([command, "--out", str(out), *args])
    return code, out


def _overrides(*items):
    return [arg for item in items for arg in ("--override", item)]


def test_flatstates(tmp_path):
    code, out = run(tmp_path, "flatstates")
    assert code == 0
    assert (out / "manifest.txt").exists()
    summary = read_kv(out / "summary.txt")
    assert float(summary["gamma0"]) == pytest.approx(math.sqrt(4.25),
                                                     abs=1e-12)
    assert float(summary["gamma_d"]) == pytest.approx(1.2070196981508372,
                                                      rel=1e-10)
    assert summary["n_roots"] == "2"
    header, rows = fileio.read_csv(out / "flatstates.csv")
    assert header[:3] == ["r_sq", "r", "phi"]
    assert len(rows) == 2
    assert all(float(r[3]) < 1e-12 for r in rows)


def test_flatstates_pde_reports_forcing_scale(tmp_path):
    code, out = run(tmp_path, "flatstates", "--override", "system.kind=pde")
    assert code == 0
    summary = read_kv(out / "summary.txt")
    gamma0 = float(summary["gamma0"])
    assert float(summary["f_onset_weak"]) == pytest.approx(0.04 * gamma0)


def test_flatstates_pde_takes_the_mapped_forcing(tmp_path):
    # the forced model's flat states are those at Gamma = F / (4 eps^2),
    # the drive its flat seed takes, not the FCGL-only params.gamma
    found = []
    for f in (0.058, 0.07):
        code, out = run(tmp_path / str(f), "flatstates", *_overrides(
            "system.kind=pde", f"params.f={f}"))
        assert code == 0
        gamma = float(read_kv(out / "summary.txt")["gamma"])
        assert gamma == pytest.approx(f / 0.04, rel=1e-15)
        roots = flat_states(replace(load_config().fcgl_params(),
                                    gamma=gamma)).roots
        _, rows = fileio.read_csv(out / "flatstates.csv")
        found.append([float(row[1]) for row in rows])
        assert found[-1] == pytest.approx([root.r for root in roots],
                                          rel=1e-12)
    assert len(found[0]) == 2 and found[0] != found[1]


def test_bad_override_is_config_error(tmp_path):
    code, _ = run(tmp_path, "flatstates", "--override", "params.bogus=1")
    assert code == 2
    code, _ = run(tmp_path, "flatstates", "--config", "/nonexistent.ini")
    assert code == 2


@pytest.mark.parametrize("command, overrides", [
    # numpy's default_rng refuses a negative seed
    ("continue", ["seed.noise=0.1", "seed.noise_seed=-1"]),
    # a stride of 0 would leave every point unclassified
    ("continue", ["continuation.classify_stride=0"]),
    # no samples would write a header-only eigenfunctions.csv
    ("floquet", ["floquet.n_samples=0"]),
    # negative noise would be a silent no-op beside zero noise
    ("simulate", ["seed.noise=-0.5"]),
    # negative snapshot strides would act as 0
    ("simulate", ["output.snapshot_stride=-5"]),
    ("continue", ["continuation.snapshot_stride=-3"]),
    # a negative drive would be probed and written as indeterminate
    ("sweep", ["sweep.p_min=-1", "sweep.p_max=1", "sweep.p_count=2",
               "sweep.nu_count=1"]),
    ("sweep", ["sweep.p_min=1", "sweep.p_max=-1"]),
    # a branch started outside its window writes only points outside it
    ("continue", ["params.gamma=1.95", "continuation.param_max=1.9"]),
    ("continue", ["system.kind=pde", "params.f=0.058",
                  "continuation.param_min=0.06"]),
    # an infinite value overflows a step count, breaks a solve or is silent
    ("simulate", ["timestepping.t_end=inf"]),
    ("sweep", ["sweep.t_probe=inf"]),
    ("continue", ["continuation.ds0=inf", "continuation.ds_max=inf"]),
    ("floquet", ["params.epsilon=inf"]),
    ("flatstates", ["params.nu=inf"]),
    ("simulate", ["grid.length=inf"]),
    ("continue", ["continuation.newton_tol=inf"]),
    # an epsilon whose square overflows or is not a normal float crashes,
    # misreads the damping or writes an infinite drive
    ("floquet", ["params.epsilon=1e300"]),
    ("continue", ["system.kind=pde", "params.epsilon=1e-200"]),
    ("floquet", ["params.epsilon=1e-200"]),
    ("flatstates", ["system.kind=pde", "params.epsilon=1e-160"]),
    # more steps than snapshot names sort in, a loop that never returns
    ("simulate", ["timestepping.t_end=1e300"]),
    ("sweep", ["sweep.t_probe=1e300"]),
])
def test_inert_or_crashing_inputs_are_config_errors(tmp_path, capsys,
                                                    command, overrides):
    code, out = run(tmp_path, command, *_overrides(*overrides))
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", [False, True])
def test_out_that_cannot_be_written_is_config_error(tmp_path, capsys, below):
    """An --out naming a file, or a path below one, is refused with exit 2,
    and the file is left as it was."""
    blocker = tmp_path / "taken"
    blocker.write_text("kept\n", encoding="utf-8")
    out = blocker / "run" if below else blocker
    assert main(["flatstates", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err
    assert blocker.read_text(encoding="utf-8") == "kept\n"


def test_floquet_weak(tmp_path):
    code, out = run(tmp_path, "floquet",
                    "--override", "system.kind=pde",
                    "--override", "floquet.diagnostics=true")
    assert code == 0
    summary = read_kv(out / "summary.txt")
    f_c = float(summary["f_c"])
    assert 0.0815 < f_c < 0.0826
    assert float(summary["method_rel_gap"]) < 1e-6
    assert float(summary["weak_limit_formula"]) == pytest.approx(
        0.08246211251235325, rel=1e-12)
    assert float(summary["mathieu_residual"]) < 1e-8
    # unforced multipliers sit on the circle of radius e^{mu*pi}
    mods = math.hypot(float(summary["multiplier_f0_0_re"]),
                      float(summary["multiplier_f0_0_im"]))
    assert mods == pytest.approx(math.exp(-0.005 * math.pi), rel=1e-6)
    header, rows = fileio.read_csv(out / "eigenfunctions.csv")
    assert header == ["t", "p1", "q1", "p1_adj"]
    assert len(rows) == 256


def test_reduce_weak(tmp_path):
    code, out = run(tmp_path, "reduce")
    assert code == 0
    items = read_kv(out / "reduction.txt")
    assert items["regime"] == "weak"
    assert float(items["lin"]) == pytest.approx(math.sqrt(17.0), rel=1e-12)
    assert float(items["diff"]) == pytest.approx(9.0, rel=1e-12)
    assert float(items["cub"]) == pytest.approx(9.0, rel=1e-12)
    assert float(items["phi1"]) == pytest.approx(0.6629088318340163,
                                                 rel=1e-10)
    assert "sech_amp" in items
    assert (out / "seed.txt").exists()


def test_reduce_supercritical_fails_cleanly(tmp_path, capsys):
    code, out = run(tmp_path, "reduce",
                    "--override", "params.c_re=1.0",
                    "--override", "params.c_im=2.5")
    assert code == 3
    assert (out / "manifest.txt").exists()   # manifest written before failure
    items = read_kv(out / "reduction.txt")
    assert items["sech_seed"].startswith("unavailable")
    assert "existence failure" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, regime, error", [
    (["params.mu=0"], "weak", "SingularReductionError"),
    (["system.kind=pde", "params.mu=0.5"], "strong", "ParameterError"),
], ids=["weak-singular", "strong-undamped"])
def test_failed_reduction_is_recorded(tmp_path, capsys, overrides, regime,
                                      error):
    code, out = run(tmp_path, "reduce",
                    *[arg for item in overrides for arg in ("--override", item)])
    assert code == 3
    message = capsys.readouterr().err
    assert message.startswith(f"numerical failure: {error}: ")
    items = read_kv(out / "reduction.txt")
    assert items == {"regime": regime, "coefficients": "unavailable: "
                     + message.strip().split(": ", 2)[2]}
    assert not (out / "seed.txt").exists()


def test_simulate_zero_seed_stays_zero(tmp_path):
    code, out = run(tmp_path, "simulate", "--seed", "zero",
                    "--override", "grid.n=64",
                    "--override", "timestepping.t_end=5.0")
    assert code == 0
    summary = read_kv(out / "summary.txt")
    assert float(summary["final_norm"]) < 1e-12
    assert summary["steady_converged"] == "true"
    header, rows = fileio.read_csv(out / "norms.csv")
    assert header == ["t", "norm"]
    assert (out / "final.txt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind, strobe, extra", [("fcgl", 32, 0),
                                                 ("pde", 200, 200)])
def test_simulate_counts_its_steps(tmp_path, kind, strobe, extra):
    # t_end = 5 is 159 steps of 2 pi / 200; then whole strobe periods to
    # steady, and for the forced model one more period
    code, out = run(tmp_path, "simulate", "--seed", "zero",
                    *_overrides(f"system.kind={kind}", "grid.n=64",
                                "timestepping.t_end=5.0"))
    assert code == 0
    periods = int(read_kv(out / "summary.txt")["steady_periods"])
    assert read_kv(out / "stats.txt") == {
        "steps": str(159 + periods * strobe + extra)}


def test_simulate_skips_the_settle_test_where_dt_does_not_divide_the_period(
        tmp_path):
    code, out = run(tmp_path, "simulate", *_overrides(
        "system.kind=pde", "grid.n=64", "timestepping.dt=0.03",
        "timestepping.t_end=3.0"))
    assert code == 0
    summary = read_kv(out / "summary.txt")
    assert summary["steady_converged"] == "skipped: dt does not divide period"
    assert "steady_periods" not in summary
    assert read_kv(out / "stats.txt") == {"steps": "100"}


def test_simulate_blowup_writes_last_finite_state(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", "--override", "params.c_re=1.0",
                    "--override", "timestepping.t_end=50")
    assert code == 3
    err = capsys.readouterr().err
    assert "BlowUpError" in err
    assert "RuntimeWarning" not in err
    summary = read_kv(out / "summary.txt")
    step = int(summary["blowup_step"])
    dt = 2 * math.pi / 200
    assert 1 < step < round(50 / dt)
    assert float(summary["blowup_time"]) == pytest.approx(step * dt, rel=1e-12)
    assert math.isfinite(float(summary["last_finite_norm"]))
    assert read_kv(out / "stats.txt") == {"steps": str(step - 1)}
    final = fileio.read_snapshot(out / "final.txt")
    assert np.all(np.isfinite(final.values))
    header, rows = fileio.read_csv(out / "norms.csv")
    t, norm = np.array(rows, dtype=float).T
    assert np.all(np.isfinite(norm))
    assert t[-1] < step * dt


@pytest.mark.parametrize("seed", ["flat", "file"])
def test_seed_flag_is_short_for_its_overrides(tmp_path, seed):
    settings = _overrides("grid.n=64", "timestepping.t_end=1.0")
    if seed == "file":
        snap = tmp_path / "seed.txt"
        fileio.write_snapshot(snap, ComplexField(20 * math.pi, np.ones(64)))
        flag, overrides = f"file:{snap}", _overrides("seed.kind=file",
                                                     f"seed.path={snap}")
    else:
        flag, overrides = seed, _overrides(f"seed.kind={seed}")
    first, second = tmp_path / "flag", tmp_path / "overrides"
    # the flag wins over an override of the same key
    assert main(["simulate", "--out", str(first), "--seed", flag,
                 *settings, *_overrides("seed.kind=zero")]) == 0
    assert main(["simulate", "--out", str(second), *settings, *overrides]) == 0
    assert "manifest.txt" in _tree(first)
    assert _tree(first) == _tree(second)


def test_simulate_file_seed_round_trip(tmp_path):
    code, first = run(tmp_path, "simulate", "--seed", "flat",
                      "--override", "grid.n=64",
                      "--override", "timestepping.t_end=5.0")
    assert code == 0
    final = first / "final.txt"
    out2 = tmp_path / "second"
    code = main(["simulate", "--out", str(out2),
                 "--seed", f"file:{final}",
                 "--override", "grid.n=64",
                 "--override", "timestepping.t_end=2.0"])
    assert code == 0
    a = read_kv(first / "summary.txt")
    b = read_kv(out2 / "summary.txt")
    # the flat state is a fixed point, so the norm carries over unchanged
    assert float(b["final_norm"]) == pytest.approx(float(a["final_norm"]),
                                                   rel=1e-9)
    assert float(b["final_norm"]) > 0.5


def test_simulate_rejects_a_file_seed_on_another_grid(tmp_path, capsys):
    code, first = run(tmp_path, "simulate", "--seed", "flat",
                      *_overrides("grid.n=64", "timestepping.t_end=1.0"))
    assert code == 0
    out = tmp_path / "second"
    code = main(["simulate", "--out", str(out),
                 "--seed", f"file:{first / 'final.txt'}",
                 *_overrides("grid.n=32", "timestepping.t_end=1.0")])
    assert code == 2
    assert "seed file holds" in capsys.readouterr().err
    assert not out.exists()     # no manifest left alone in a new directory


def test_simulate_snapshots_count_steps_not_norm_rows(tmp_path):
    # 127 steps with a norm row every 20 steps: still a snapshot every 30
    code, out = run(tmp_path, "simulate", *_overrides(
        "grid.n=64", "timestepping.t_end=4.0", "timestepping.max_periods=1",
        "output.snapshot_stride=30"))
    assert code == 0
    assert sorted(p.name for p in out.glob("snapshot_*")) == [
        f"snapshot_{k:08d}.txt" for k in (30, 60, 90, 120)]


def test_model_restart_from_a_snapshot_keeps_the_forcing_phase(tmp_path):
    # step 150 is at t = 1.5 pi, half a forcing period off t = 0
    dt = 2 * math.pi / 200
    settings = ["system.kind=pde", "grid.n=64", "timestepping.max_periods=1",
                "output.norm_stride=10", "output.snapshot_stride=150"]
    code, first = run(tmp_path, "simulate", *_overrides(
        *settings, f"timestepping.t_end={450 * dt!r}"))
    assert code == 0
    second = tmp_path / "restart"
    code = main(["simulate", "--out", str(second), "--seed",
                 f"file:{first / 'snapshot_00000150.txt'}", *_overrides(
                     *settings, f"timestepping.t_end={300 * dt!r}")])
    assert code == 0
    a = fileio.read_snapshot(first / "snapshot_00000450.txt")
    b = fileio.read_snapshot(second / "snapshot_00000300.txt")
    rel = np.linalg.norm(b.values - a.values) / np.linalg.norm(a.values)
    assert rel < 1e-4
    assert b.t == pytest.approx(a.t, rel=1e-12)
    assert a.t == pytest.approx(450 * dt, rel=1e-12)


def _tree(path):
    return {p.name: p.read_bytes() for p in path.iterdir()}


@pytest.mark.parametrize("case", ["missing", "off-grid", "sech-strong-fcgl"])
def test_failed_rerun_leaves_the_output_directory_as_it_was(tmp_path, capsys,
                                                            case):
    code, out = run(tmp_path, "simulate", "--seed", "zero", *_overrides(
        "grid.n=64", "timestepping.t_end=1.0"))
    assert code == 0
    before = _tree(out)
    assert "manifest.txt" in before
    snap = tmp_path / "seed.txt"
    fileio.write_snapshot(snap, ComplexField(20 * math.pi, np.zeros(32)))
    seed = {"missing": f"file:{tmp_path / 'none.txt'}",
            "off-grid": f"file:{snap}", "sech-strong-fcgl": "sech-strong"}
    code, _ = run(tmp_path, "simulate", "--seed", seed[case],
                  *_overrides("grid.n=64", "timestepping.t_end=2.0"))
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert _tree(out) == before


def test_simulate_rejects_harmonic_file_for_fcgl(tmp_path):
    rng = np.random.default_rng(0)
    state = HarmonicPdeState(length=20 * math.pi,
                             harmonics=np.array([-3, -1, 1, 3]),
                             profiles=rng.standard_normal((4, 16)) + 0j)
    snap = tmp_path / "harm.txt"
    fileio.write_snapshot(snap, state)
    code, _ = run(tmp_path, "simulate", "--seed", f"file:{snap}")
    assert code == 2


BAD_SEEDS = {
    "missing": None,
    "non-numeric": "# x re_u im_u\n0.0 1.0 abc\n1.0 2.0 3.0\n",
    "no-header": "0.0 1.0 2.0\n1.0 2.0 3.0\n",
    "odd-rows": "# x re_u im_u\n0.0 1.0 2.0\n1.0 2.0 3.0\n2.0 3.0 4.0\n",
}


@pytest.mark.parametrize("command, kind", [("simulate", "fcgl"),
                                           ("continue", "pde")])
@pytest.mark.parametrize("case", sorted(BAD_SEEDS))
def test_unreadable_seed_file_is_config_error(tmp_path, capsys, command, kind,
                                              case):
    snap = tmp_path / "seed.txt"
    if BAD_SEEDS[case] is not None:
        snap.write_text(BAD_SEEDS[case], encoding="utf-8")
    code, out = run(tmp_path, command, "--seed", f"file:{snap}", *_overrides(
        f"system.kind={kind}", "grid.n=64", "timestepping.t_end=1.0",
        "continuation.max_points=2"))
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read seed file")
    assert str(snap) in err


def test_continue_flat_branch(tmp_path):
    code, out = run(tmp_path, "continue", "--seed", "flat",
                    "--override", "params.gamma=1.6",
                    "--override", "grid.n=64",
                    "--override", "continuation.max_points=20",
                    "--override", "continuation.param_min=1.4",
                    "--override", "continuation.param_max=1.75",
                    "--override", "continuation.classify=false")
    assert code == 0
    header, rows = fileio.read_csv(out / "branch.csv")
    assert header == ["index", "parameter", "norm", "stability", "fold_flag",
                      "leading_rate"]
    assert len(rows) >= 10
    assert [int(r[0]) for r in rows] == list(range(len(rows)))
    assert all(r[3] == "unclassified" for r in rows)
    params = [float(r[1]) for r in rows]
    assert min(params) >= 1.4 - 0.05 and max(params) <= 1.75 + 0.05
    assert (out / "folds.csv").exists()
    assert (out / "point_0000.txt").exists()


def test_continue_snapshot_stride_adds_the_multiples_of_k(tmp_path):
    # the flat branch from gamma = 1.6 down through its fold near 1.207
    k = 7
    code, out = run(tmp_path, "continue", "--seed", "flat", *_overrides(
        "params.gamma=1.6", "grid.n=64", "continuation.max_points=40",
        "continuation.param_min=1.0", "continuation.param_max=1.75",
        "continuation.classify=false", f"continuation.snapshot_stride={k}"))
    assert code == 0
    _, rows = fileio.read_csv(out / "branch.csv")
    last = len(rows) - 1
    folds = {int(r[0]) for r in rows if r[4] == "1"}
    assert folds and last % k and all(i % k for i in folds)
    expected = {0, last} | folds | set(range(0, last + 1, k))
    written = {int(name[len("point_"):-len(".txt")])
               for name in os.listdir(out) if name.startswith("point_")}
    assert written == expected


def test_continue_writes_solver_stats(tmp_path):
    code, out = run(tmp_path, "continue", "--seed", "flat",
                    "--override", "params.gamma=1.6",
                    "--override", "grid.n=64",
                    "--override", "continuation.max_points=3",
                    "--override", "continuation.classify=false")
    assert code == 0
    stats = {key: int(val) for key, val in read_kv(out / "stats.txt").items()}
    assert list(stats) == ["gmres_solves", "matvecs", "gmres_unconverged",
                           "corrector_iterations", "step_rejections",
                           "label_krylov_steps", "rejected_matvecs",
                           "precond_floored"]
    assert stats["gmres_solves"] > stats["corrector_iterations"] >= 4
    assert stats["matvecs"] > stats["gmres_solves"]
    assert stats["gmres_unconverged"] == 0
    assert stats["label_krylov_steps"] == 0
    assert stats["precond_floored"] == 0


def test_continue_writes_leading_rates(tmp_path):
    code, out = run(tmp_path, "continue", "--seed", "flat",
                    "--override", "params.gamma=1.6",
                    "--override", "grid.n=64",
                    "--override", "continuation.max_points=3")
    assert code == 0
    _, rows = fileio.read_csv(out / "branch.csv")
    assert len(rows) == 5
    for row in rows:
        rate = float(row[5])
        assert row[3] == ("stable" if rate < 1e-8 else "unstable")
    assert int(read_kv(out / "stats.txt")["label_krylov_steps"]) > 0


def test_labels_without_blas_thread_control_say_so(tmp_path, monkeypatch):
    monkeypatch.setattr(continuation, "blas_thread_calls", lambda: None)
    code, out = run(tmp_path, "continue", "--seed", "flat",
                    *_overrides("params.gamma=1.6", "grid.n=64",
                                "continuation.max_points=2"))
    assert code == 0
    assert "default BLAS threads" in read_kv(out / "manifest.txt")["note"]
    assert int(read_kv(out / "stats.txt")["label_krylov_steps"]) > 0


def test_stalled_continue_writes_the_partial_branch(tmp_path, monkeypatch,
                                                   capsys):
    real, sizes = continuation.continue_branch, []

    def stall_backward(problem, z, param, tau_z, tau_p, controls, stats):
        branch = real(problem, z, param, tau_z, tau_p, controls, stats)
        sizes.append(len(branch.points))
        if tau_p < 0:
            raise StalledBranchError(branch)
        return branch

    monkeypatch.setattr(continuation, "continue_branch", stall_backward)
    code, out = run(tmp_path, "continue", "--seed", "flat",
                    "--override", "params.gamma=1.6",
                    "--override", "grid.n=64",
                    "--override", "continuation.max_points=3",
                    "--override", "continuation.classify=false")
    assert code == 4
    assert "continuation stalled" in capsys.readouterr().err
    _, rows = fileio.read_csv(out / "branch.csv")
    assert len(sizes) == 2 and len(rows) == sum(sizes) - 1
    stats = read_kv(out / "stats.txt")
    assert int(stats["gmres_solves"]) > int(stats["corrector_iterations"]) >= 4


def test_pde_continue_records_its_seed_trajectory(tmp_path, capsys):
    code, out = run(tmp_path, "continue",
                    "--override", "system.kind=pde",
                    "--override", "grid.n=128",
                    "--override", "timestepping.max_periods=2",
                    "--override", "continuation.max_points=2",
                    "--override", "continuation.classify=false")
    assert code == 0
    stats = read_kv(out / "stats.txt")
    assert list(stats)[:2] == ["seed_steady_converged", "seed_steady_periods"]
    assert stats["seed_steady_converged"] == "false"
    assert stats["seed_steady_periods"] == "2"
    assert "not steady after 2 periods" in capsys.readouterr().err


def test_pde_continue_steps_its_seed_through_run_to_steady(tmp_path,
                                                           monkeypatch):
    """The seed's run to its cycle is one call of the module attribute
    etd.run_to_steady, at timestepping.steady_tol as given (below 1e-9
    too), whose periods stats.txt records."""
    real, calls, tols = etd.run_to_steady, [], []

    def record(*args, **kwargs):
        tols.append(kwargs["tol"])
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(etd, "run_to_steady", record)
    code, out = run(tmp_path, "continue", *_overrides(
        "system.kind=pde", "grid.n=64", "timestepping.max_periods=3",
        "timestepping.steady_tol=1e-10", "continuation.max_points=2",
        "continuation.classify=false"))
    assert code == 0
    assert len(calls) == 1 and tols == [1e-10]
    stats = read_kv(out / "stats.txt")
    assert stats["seed_steady_periods"] == str(calls[0][1])


@pytest.mark.parametrize("kind, n, stretch, harmonics", [
    ("fcgl", 128, 1.0, None), ("fcgl", 64, 1.5, None),
    ("pde", 128, 1.0, (-3, -1, 1, 3)), ("pde", 64, 1.0, (-1, 1)),
], ids=["fcgl-n", "fcgl-length", "pde-n", "pde-harmonics"])
def test_continue_rejects_a_file_seed_on_another_grid(tmp_path, capsys, kind,
                                                      n, stretch, harmonics):
    settings = [f"system.kind={kind}", "grid.n=64", "params.gamma=1.6",
                "continuation.max_points=2", "continuation.classify=false"]
    length = stretch * load_config(overrides=settings).grid.length
    if harmonics is None:
        root = flat_states(replace(load_config().fcgl_params(),
                                   gamma=1.6)).roots[-1]
        state = ComplexField(length,
                             np.full(n, root.r * np.exp(1j * root.phi)))
    else:
        state = HarmonicPdeState(length=length, harmonics=np.array(harmonics),
                                 profiles=np.zeros((len(harmonics), n)) + 0j)
    snap = tmp_path / "seed.txt"
    fileio.write_snapshot(snap, state)
    code, out = run(tmp_path, "continue", "--seed", f"file:{snap}",
                    *_overrides(*settings))
    assert code == 2
    assert "seed file holds" in capsys.readouterr().err
    assert not out.exists()
    if kind == "fcgl":      # the same state on the run's grid is a good seed
        fileio.write_snapshot(snap, ComplexField(
            length / stretch, np.full(64, state.values[0])))
        code, _ = run(tmp_path, "continue", "--seed", f"file:{snap}",
                      *_overrides(*settings))
        assert code == 0


def test_model_probe_is_at_the_mapped_forcing():
    cfg = load_config(overrides=["system.kind=pde"])
    eps = cfg.params.epsilon
    _, mp = cli._probe_setup(cfg, 0.5, 1.5)
    assert mp.f == pytest.approx(4 * eps**2 * 1.5, rel=1e-15)
    assert mp.omega == pytest.approx(1.0 + eps**2 * 0.5, rel=1e-15)


@pytest.mark.parametrize("kind", ["zero", "flat", "file"])
def test_model_seeds(tmp_path, kind):
    overrides = ["system.kind=pde", "grid.n=64", f"seed.kind={kind}"]
    if kind == "file":
        rng = np.random.default_rng(1)
        profiles = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        snap = tmp_path / "harm.txt"
        fileio.write_snapshot(snap, HarmonicPdeState(
            length=load_config(overrides=overrides[:2]).grid.length,
            harmonics=np.array([-3, -1, 1, 3]), profiles=profiles))
        overrides.append(f"seed.path={snap}")
    cfg = load_config(overrides=overrides)
    seed = build_seed(cfg)
    if kind == "zero":
        expected = ComplexField(cfg.grid.length, np.zeros(64, dtype=complex))
    elif kind == "flat":
        # the lift of the amplitude equation's flat seed at the mapped forcing
        gamma = cfg.scaling().to_gamma(cfg.params.f)
        slow = build_seed(load_config(overrides=[
            "grid.n=64", "seed.kind=flat", f"params.gamma={gamma!r}"]))
        expected = ComplexField(cfg.grid.length,
                                cfg.scaling().lift(slow.values))
    else:
        expected = fileio.read_snapshot(snap).reconstruct(0.0)
    assert seed.length == expected.length
    assert seed.values.tobytes() == expected.values.tobytes()


def test_seed_noise_is_reproducible_and_relative():
    overrides = ["grid.n=512", "seed.kind=sech-weak", "seed.noise_seed=7"]
    clean = build_seed(load_config(overrides=overrides))
    noisy = [build_seed(load_config(overrides=[*overrides, f"seed.noise={e}"]))
             for e in (0.0, 1e-3, 1e-3)]
    other = build_seed(load_config(overrides=[
        *overrides, "seed.noise=1e-3", "seed.noise_seed=8"]))
    assert noisy[0].values.tobytes() == clean.values.tobytes()
    assert noisy[1].values.tobytes() == noisy[2].values.tobytes()
    assert other.values.tobytes() != noisy[1].values.tobytes()

    def rms(v):
        return math.sqrt(float(np.mean(np.abs(v) ** 2)))

    assert rms(noisy[1].values - clean.values) == pytest.approx(
        1e-3 * rms(clean.values), rel=0.1)


def test_seed_noise_reaches_a_harmonic_file_seed(tmp_path):
    settings = _overrides("system.kind=pde", "grid.n=64",
                          "timestepping.max_periods=3",
                          "continuation.max_points=2",
                          "continuation.classify=false")
    code, seeded = run(tmp_path / "seed", "continue", *settings)
    assert code == 0
    settings += ["--seed", f"file:{seeded / 'point_0000.txt'}"]
    outs = {}
    for noise in (None, "0", "0.5"):
        extra = [] if noise is None else _overrides(f"seed.noise={noise}",
                                                    "seed.noise_seed=3")
        code, outs[noise] = run(tmp_path / str(noise), "continue",
                                *settings, *extra)
        assert code == 0
    files = sorted(f.name for f in outs[None].iterdir())
    assert files == sorted(f.name for f in outs["0"].iterdir())
    for name in set(files) - {"manifest.txt"}:
        assert (outs["0"] / name).read_bytes() == (outs[None] / name).read_bytes()
    # the noisy seed is polished back onto the same branch
    plain, noisy = (np.loadtxt(outs[k] / "branch.csv", delimiter=",",
                               skiprows=1, usecols=(1, 2)) for k in (None, "0.5"))
    assert not np.array_equal(noisy, plain)
    np.testing.assert_allclose(noisy, plain, rtol=1e-8)


def test_strong_sech_seed_is_the_reduction_pulse(tmp_path, capsys):
    cfg = load_config(overrides=["system.kind=pde", "seed.kind=sech-strong"])
    mp, n, length = cfg.model_params(), cfg.grid.n, cfg.grid.length
    fp = mathieu_critical(mp, cfg.floquet.j_trunc)
    expected = strong_sech_pde(strong_ac_coeffs(fp, mp), fp, mp.f,
                               center=length / 2).as_field(n, length)
    assert build_seed(cfg).values.tobytes() == expected.values.tobytes()
    # above the Floquet onset F_c = 0.0821 the reduction has no pulse
    code, _ = run(tmp_path, "simulate", "--seed", "sech-strong", *_overrides(
        "system.kind=pde", "params.f=0.09", "grid.n=64"))
    assert code == 3
    assert "ExistenceError" in capsys.readouterr().err


def test_endstate_windows_are_mirror_symmetric():
    """At n = 12 both edge windows hold one sample, so a state and its
    mirror image get one outcome."""
    mags = np.zeros(12)
    mags[5], mags[10] = 1.0, 0.5
    outcomes = {cli._classify_endstate(ComplexField(1.0, v))
                for v in (mags, mags[::-1])}
    assert outcomes == {"localized"}


def test_model_probe_is_the_lift_of_its_slow_frame_probe():
    # the same probe of the amplitude equation on a domain eps times as long
    cfg = load_config(overrides=["system.kind=pde", "grid.n=256"])
    scaling = cfg.scaling()
    slow_cfg = load_config(overrides=[
        "grid.n=256", f"grid.length={scaling.epsilon * cfg.grid.length!r}"])
    for nu, gamma in [(3.0, 1.2), (0.5, 1.5), (-3.0, 1.0)]:  # sech, flat, bump
        seed, mp = cli._probe_setup(cfg, nu, gamma)
        slow, p = cli._probe_setup(slow_cfg, nu, gamma)
        assert seed.length == cfg.grid.length
        assert seed.values.tobytes() == scaling.lift(slow.values).tobytes()
        assert mp == scaling.fcgl_to_pde(p)


def test_model_probe_seed_has_the_mapped_width():
    cfg = load_config(overrides=["system.kind=pde", "params.nu=3.0"])
    eps, n, length = cfg.params.epsilon, cfg.grid.n, cfg.grid.length
    gamma = cfg.scaling().to_gamma(0.048)
    seed, _ = cli._probe_setup(cfg, 3.0, gamma)
    # full width at half maximum of sech(kappa X) is 2 acosh(2) / kappa
    p = replace(cfg.fcgl_params(), gamma=gamma)
    fcgl_width = 2.0 * math.acosh(2.0) / weak_sech_fcgl(p, p.gamma).inv_width
    mags = np.abs(seed.values)
    dx = length / n
    width = np.count_nonzero(mags >= 0.5 * mags.max()) * dx
    assert width == pytest.approx(fcgl_width / eps, abs=dx)


def test_sweep_serial(tmp_path):
    code, out = run(tmp_path, "sweep",
                    "--override", "grid.n=64",
                    "--override", "timestepping.dt=0.05",
                    "--override", "sweep.nu_min=2.0",
                    "--override", "sweep.nu_max=2.0",
                    "--override", "sweep.nu_count=1",
                    "--override", "sweep.p_min=1.3",
                    "--override", "sweep.p_max=2.5",
                    "--override", "sweep.p_count=2",
                    "--override", "sweep.t_probe=60.0")
    assert code == 0
    header, rows = fileio.read_csv(out / "sweep.csv")
    assert header == ["nu", "gamma", "outcome"]
    assert len(rows) == 2
    assert [r[2] for r in rows] == ["decayed", "flat"]


def test_sweep_on_a_grid_under_eight_points(tmp_path):
    # n // 8 is 0 at n = 4: the edge still holds one sample at each end
    code, out = run(tmp_path, "sweep", *_overrides(
        "grid.n=4", "sweep.nu_count=1", "sweep.p_count=1", "sweep.t_probe=1"))
    assert code == 0
    _, rows = fileio.read_csv(out / "sweep.csv")
    assert [r[2] for r in rows] == ["flat"]


def test_unknown_command_exits_via_argparse(tmp_path):
    with pytest.raises(SystemExit):
        main(["spin", "--out", str(tmp_path / "x")])


def output_files(out):
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("command, args", [
    ("continue", ["--override", "grid.n=64", "--override", "params.gamma=1.95",
                  "--override", "continuation.max_points=4"]),
    ("simulate", ["--override", "grid.n=64", "--override", "timestepping.t_end=5",
                  "--override", "output.snapshot_stride=100"]),
    ("continue", _overrides("system.kind=pde", "grid.n=64",
                            "timestepping.max_periods=2",
                            "continuation.max_points=2")),
])
def test_runs_repeat_byte_for_byte(tmp_path, command, args):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--out", str(first), *args]) == 0
    assert main([command, "--out", str(second), *args]) == 0
    files = output_files(first)
    assert len(files) > 2
    assert files == output_files(second)
    if "system.kind=pde" in args:
        # the forced model has no stability labels, and its manifest says so
        _, rows = fileio.read_csv(first / "branch.csv")
        assert rows and all(row[3] == "unclassified" for row in rows)
        assert all(math.isnan(float(row[5])) for row in rows)
        assert "left unclassified" in read_kv(first / "manifest.txt")["note"]


@pytest.mark.parametrize("kind", ["fcgl", "pde"])
def test_sweep_rows_equal_probes_stepped_alone(tmp_path, monkeypatch, kind):
    """The sweep steps its probes as rows of one state; each row must end
    bit for bit where the probe stepped alone ends after as many steps, and
    classify as the lone probe stepped to t_probe does.  The FCGL row at
    (0.5, 2.2) settles and leaves the stack at T = 13.07."""
    p_min, p_max = {"fcgl": (1.2, 2.2), "pde": (1.0, 2.0)}[kind]
    settings = [f"system.kind={kind}", "grid.n=64", "sweep.nu_count=2",
                "sweep.p_count=2", f"sweep.p_min={p_min}",
                f"sweep.p_max={p_max}", "sweep.t_probe=20"]
    real, calls = cli._sweep_probe, []

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_sweep_probe", record)
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), *_overrides(*settings)]) == 0
    cfg = load_config(overrides=settings)
    dt = cfg.timestepping.dt
    steps = round(cfg.sweep.t_probe / dt)
    rows, retired = [], []
    for _, _, nu, param, end in calls:
        stepper = make_stepper(*cli._probe_setup(cfg, nu, param), dt)
        stepper.run(round(end.t / dt))
        assert np.array_equal(end.values, stepper.field.values)
        if stepper.steps < steps:
            retired.append((nu, param, round(end.t, 2)))
        stepper.run(steps - stepper.steps)
        rows.append((nu, param, cli._classify_endstate(stepper.field)))
    assert [call[:2] for call in calls] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert retired == {"fcgl": [(0.5, 2.2, 13.07)], "pde": []}[kind]
    header, _ = fileio.read_csv(out / "sweep.csv")
    fileio.write_csv(tmp_path / "alone.csv", header, rows)
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


def test_sweep_rows_that_settle_leave_with_their_outcome(tmp_path, monkeypatch):
    """At nu = 0.5 the Gamma = 2.2 probe settles and leaves the stack, the
    Gamma = 1.2 probe reaches t_probe.  The map is the one written when no
    row can settle, and the state a row leaves with is a steady state."""
    settings = ["grid.n=64", "sweep.nu_min=0.5", "sweep.nu_max=0.5",
                "sweep.nu_count=1", "sweep.p_count=2", "sweep.t_probe=20"]
    real, ends = cli._sweep_probe, []

    def record(*args):
        ends.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "_sweep_probe", record)
    code, out = run(tmp_path, "sweep", *_overrides(*settings))
    assert code == 0
    assert read_kv(out / "stats.txt")["settled"] == "1"
    monkeypatch.setattr(cli, "_sweep_probe", real)
    never = tmp_path / "never"
    assert main(["sweep", "--out", str(never), *_overrides(
        *settings, "timestepping.steady_tol=1e-300")]) == 0
    assert read_kv(never / "stats.txt")["settled"] == "0"
    assert (out / "sweep.csv").read_bytes() == (never / "sweep.csv").read_bytes()
    cfg = load_config(overrides=settings)
    t_probe = round(20 / cfg.timestepping.dt) * cfg.timestepping.dt
    retired = [(nu, gamma, end) for _, _, nu, gamma, end in ends
               if end.t < t_probe]
    assert [row[:2] for row in retired] == [(0.5, 2.2)]
    for nu, gamma, end in retired:
        p = replace(cfg.fcgl_params(), nu=nu, gamma=gamma)
        problem = continuation.FcglSteadyProblem(p, end.n, end.length)
        z = problem.pack(end.values)
        assert problem.max_norm(problem.residual(z, gamma)) < 1e-6


@pytest.mark.parametrize("dt, settled", [(2 * math.pi / 200, 2), (0.03, 0)])
def test_forced_sweep_rows_settle_only_where_dt_divides_the_period(
        tmp_path, dt, settled):
    # every row passes a settle test this loose at its first strobe, so a
    # forced row runs to the cap only where there is no strobe
    code, out = run(tmp_path, "sweep", *_overrides(
        "system.kind=pde", "grid.n=64", f"timestepping.dt={dt!r}",
        "timestepping.steady_tol=1e3", "sweep.nu_count=1", "sweep.p_count=2",
        "sweep.t_probe=20"))
    assert code == 0
    stats = read_kv(out / "stats.txt")
    steps = round(20 / dt)
    row_steps = 2 * (200 if settled else steps)
    assert (stats["steps_per_probe"], stats["row_steps"], stats["settled"]) == (
        str(steps), str(row_steps), str(settled))


def test_sweep_probe_that_blows_up_is_indeterminate(tmp_path):
    """With a focusing cubic the Gamma = 5 probe blows up and the Gamma = 1
    probe decays; the blow-up must not change the other probe's outcome."""
    code, out = run(tmp_path, "sweep", *_overrides(
        "params.c_re=1.0", "grid.n=64", "sweep.nu_min=-3", "sweep.nu_max=-3",
        "sweep.nu_count=1", "sweep.p_min=1", "sweep.p_max=5",
        "sweep.p_count=2", "sweep.t_probe=60"))
    assert code == 0
    _, rows = fileio.read_csv(out / "sweep.csv")
    assert [r[2] for r in rows] == ["decayed", "indeterminate"]
    # the Gamma = 5 row leaves at its 48th step, which blows up; the
    # survivor steps on from there and settles after 32 strobes of 32 steps
    steps = round(60 / load_config().timestepping.dt)
    assert read_kv(out / "stats.txt") == {
        "probes": "2", "steps_per_probe": str(steps),
        "row_steps": str(47 + 32 * 32), "settled": "1",
        "decayed": "1", "localized": "0", "flat": "0", "indeterminate": "1",
        "indeterminate_setup": "0", "indeterminate_blowup": "1"}


COLD_START = """
import json, sys
from oscillab.cli import main
heavy = ("scipy", "concurrent", "multiprocessing")
loaded = []
for i, argv in enumerate(json.loads(sys.argv[1])):
    if main([*argv, "--out", f"{sys.argv[2]}/{i}"]) != 0:
        sys.exit(f"{argv} failed")
    loaded.append(sorted(m for m in sys.modules if m.split(".")[0] in heavy))
print(json.dumps(loaded))
"""


def test_fcgl_and_model_commands_run_without_scipy(tmp_path):
    """scipy is loaded by the Floquet/Hill code alone, and no command starts
    processes; a fresh interpreter running continue and sweep commands
    imports neither scipy nor concurrent.futures nor multiprocessing."""
    commands = [
        ["continue", "--override", "grid.n=64",
         "--override", "continuation.max_points=2"],
        ["continue", "--override", "system.kind=pde", "--override", "grid.n=64",
         "--override", "timestepping.max_periods=2",
         "--override", "continuation.max_points=2",
         "--override", "continuation.classify=false"],
        ["sweep", "--override", "grid.n=64", "--override", "sweep.nu_count=1",
         "--override", "sweep.p_count=1", "--override", "sweep.t_probe=5"],
        # positive control: the Hill and monodromy routes do load scipy
        ["floquet", "--override", "system.kind=pde"],
    ]
    src = os.path.dirname(os.path.dirname(oscillab.__file__))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, json.dumps(commands), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert loaded[:3] == [[], [], []]
    assert "scipy.integrate" in loaded[3]


def test_fcgl_labels_do_not_depend_on_blas_threads(tmp_path):
    """A labelled FCGL continue writes the same bytes on one BLAS thread and
    on two: the labels' factorizations run on one thread.  n = 198 is the
    smallest grid at which the leading rates differed in their last digits
    when those ran on the default threads."""
    args = ["continue", *_overrides("params.gamma=1.95", "grid.n=198",
                                    "continuation.max_points=2")]
    src = os.path.dirname(os.path.dirname(oscillab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "oscillab.cli", *args, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("branch.csv", "folds.csv", "stats.txt")])
    assert outputs[0] == outputs[1]

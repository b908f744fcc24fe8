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
from oscillab.cli import _probe_seed, build_seed, main
from oscillab.config import load_config
from oscillab.continuation import HarmonicPdeState
from oscillab.errors import StalledBranchError
from oscillab.fields import ComplexField
from oscillab.reduction import weak_sech_fcgl


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
])
def test_inert_or_crashing_inputs_are_config_errors(tmp_path, capsys,
                                                    command, overrides):
    code, out = run(tmp_path, command, *_overrides(*overrides))
    assert code == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


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
    final = fileio.read_snapshot(out / "final.txt")
    assert np.all(np.isfinite(final.values))
    header, rows = fileio.read_csv(out / "norms.csv")
    t, norm = np.array(rows, dtype=float).T
    assert np.all(np.isfinite(norm))
    assert t[-1] < step * dt


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
    assert not (out / "final.txt").exists()


def test_simulate_rejects_harmonic_file_for_fcgl(tmp_path):
    rng = np.random.default_rng(0)
    state = HarmonicPdeState(length=20 * math.pi,
                             harmonics=np.array([-3, -1, 1, 3]),
                             profiles=rng.standard_normal((4, 16)) + 0j)
    snap = tmp_path / "harm.txt"
    fileio.write_snapshot(snap, state)
    code, _ = run(tmp_path, "simulate", "--seed", f"file:{snap}")
    assert code == 2


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
                           "label_krylov_steps"]
    assert stats["gmres_solves"] > stats["corrector_iterations"] >= 4
    assert stats["matvecs"] > stats["gmres_solves"]
    assert stats["gmres_unconverged"] == 0
    assert stats["label_krylov_steps"] == 0


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

    def stall_backward(problem, z0, param0, direction, controls):
        branch = real(problem, z0, param0, direction, controls)
        sizes.append(len(branch.points))
        if direction < 0:
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
    etd.run_to_steady, whose periods stats.txt records."""
    real, calls = etd.run_to_steady, []

    def record(*args, **kwargs):
        calls.append(real(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(etd, "run_to_steady", record)
    code, out = run(tmp_path, "continue", *_overrides(
        "system.kind=pde", "grid.n=64", "timestepping.max_periods=3",
        "continuation.max_points=2", "continuation.classify=false"))
    assert code == 0
    assert len(calls) == 1
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
    code, _ = run(tmp_path, "continue", "--seed", f"file:{snap}",
                  *_overrides(*settings))
    assert code == 2
    assert "seed file holds" in capsys.readouterr().err
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
        eps = cfg.params.epsilon
        gamma = cfg.scaling().to_gamma(cfg.params.f)
        root = flat_states(replace(cfg.fcgl_params(), gamma=gamma)).roots[-1]
        value = eps * root.r * np.exp(1j * (root.phi + math.pi / 4))
        expected = ComplexField(cfg.grid.length, np.full(64, value))
    else:
        expected = fileio.read_snapshot(snap).reconstruct(0.0)
    assert seed.length == expected.length
    assert np.array_equal(seed.values, expected.values)


def test_model_probe_seed_has_the_mapped_width():
    cfg = load_config(overrides=["system.kind=pde", "params.nu=3.0"])
    eps, n, length = cfg.params.epsilon, cfg.grid.n, cfg.grid.length
    p = replace(cfg.fcgl_params(), gamma=cfg.scaling().to_gamma(0.048))
    seed = _probe_seed(p, n, length, eps=eps, phase_shift=math.pi / 4)
    # full width at half maximum of sech(kappa X) is 2 acosh(2) / kappa
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
        # the forced model's labels come from a fitted growth rate
        _, rows = fileio.read_csv(first / "branch.csv")
        for row in rows:
            rate = float(row[5])
            assert math.isfinite(rate)
            assert row[3] == ("stable" if rate < 1e-4 else "unstable")


@pytest.mark.parametrize("kind", ["fcgl", "pde"])
def test_sweep_rows_equal_probes_stepped_alone(tmp_path, monkeypatch, kind):
    """The sweep steps its probes as rows of one state; each row must end
    bit for bit where the probe stepped alone ends."""
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
    rows = []
    for _, _, nu, param, end in calls:
        stepper = make_stepper(*cli._probe_setup(cfg, nu, param), dt)
        stepper.run(round(cfg.sweep.t_probe / dt))
        assert np.array_equal(end.values, stepper.field.values)
        rows.append((nu, param, cli._classify_endstate(stepper.field)))
    assert [call[:2] for call in calls] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    header, _ = fileio.read_csv(out / "sweep.csv")
    fileio.write_csv(tmp_path / "alone.csv", header, rows)
    assert (out / "sweep.csv").read_bytes() == (tmp_path / "alone.csv").read_bytes()


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
    # the survivor is stepped again alone, in a second round
    steps = round(60 / load_config().timestepping.dt)
    assert read_kv(out / "stats.txt") == {
        "probes": "2", "steps_per_probe": str(steps), "rounds": "2",
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

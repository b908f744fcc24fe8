import math
import os

import numpy as np
import pytest

from oscillab import fileio
from oscillab.cli import main
from oscillab.continuation import HarmonicPdeState
from oscillab.fields import ComplexField


def read_kv(path):
    out = {}
    for line in open(path, encoding="utf-8"):
        key, _, val = line.partition(" = ")
        out[key] = val.strip()
    return out


def run(tmp_path, command, *args):
    out = tmp_path / command
    code = main([command, "--out", str(out), *args])
    return code, out


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


def test_simulate_rejects_harmonic_file_for_fcgl(tmp_path):
    rng = np.random.default_rng(0)
    state = HarmonicPdeState(length=20 * math.pi,
                             harmonics=np.array([-3, -1, 1, 3]),
                             profiles=rng.standard_normal((4, 16)) + 0j,
                             f=0.05)
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
                           "corrector_iterations", "step_rejections"]
    assert stats["gmres_solves"] > stats["corrector_iterations"] >= 4
    assert stats["matvecs"] > stats["gmres_solves"]
    assert stats["gmres_unconverged"] == 0


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


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_thread_count_is_config_error(tmp_path, monkeypatch, capsys,
                                          value):
    monkeypatch.setenv("OSCILLON_THREADS", value)
    code, out = run(tmp_path, "sweep", "--override", "grid.n=64")
    assert code == 2
    assert "OSCILLON_THREADS" in capsys.readouterr().err
    assert not (out / "sweep.csv").exists()


def test_sweep_serial(tmp_path, monkeypatch):
    monkeypatch.setenv("OSCILLON_THREADS", "1")
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
])
def test_runs_repeat_byte_for_byte(tmp_path, command, args):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([command, "--out", str(first), *args]) == 0
    assert main([command, "--out", str(second), *args]) == 0
    files = output_files(first)
    assert len(files) > 2
    assert files == output_files(second)


def test_sweep_output_does_not_depend_on_worker_count(tmp_path, monkeypatch):
    args = ["--override", "grid.n=64", "--override", "sweep.nu_count=2",
            "--override", "sweep.p_count=2", "--override", "sweep.t_probe=20"]
    sweeps = []
    for workers in ("2", "1"):
        monkeypatch.setenv("OSCILLON_THREADS", workers)
        out = tmp_path / f"workers{workers}"
        assert main(["sweep", "--out", str(out), *args]) == 0
        sweeps.append((out / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]

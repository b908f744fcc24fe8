"""scripts/weak_overlay.py as a client of `oscillab continue`."""
import importlib.util
import os
import sys
from pathlib import Path

import pytest

from oscillab import fileio

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "weak_overlay.py"


def load_script():
    spec = importlib.util.spec_from_file_location("weak_overlay", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fake_continue(calls, converged):
    """A stand-in for `oscillab continue` that records its arguments and
    writes a two-fold branch, with the forced model's seed settled or not."""
    def run(argv):
        calls.append(argv)
        out = argv[argv.index("--out") + 1]
        os.makedirs(out)
        fileio.write_csv(os.path.join(out, "branch.csv"),
                         ["index", "parameter", "norm", "stability",
                          "fold_flag", "leading_rate"],
                         [(0, 1.0, 1.0, "unclassified", 0, float("nan")),
                          (1, 2.0, 2.0, "unclassified", 1, float("nan")),
                          (2, 1.0, 3.0, "unclassified", 1, float("nan"))])
        fileio.write_folds(os.path.join(out, "folds.csv"), [2.0, 1.0])
        stats = [("matvecs", 1)]
        if "system.kind=pde" in argv:
            stats.insert(0, ("seed_steady_converged", converged))
            stats.insert(1, ("seed_steady_periods", 900))
        fileio.write_kv(os.path.join(out, "stats.txt"), stats)
        return 0
    return run


def test_runs_continue_once_per_system(tmp_path, monkeypatch):
    script, calls = load_script(), []
    monkeypatch.setattr(script, "cli_main", fake_continue(calls, True))
    monkeypatch.setattr(sys, "argv",
                        ["weak_overlay.py", "--out", str(tmp_path)])
    monkeypatch.setattr(script, "overlay_mismatch",
                        lambda a, b, scaling: (0.0, 1.0, 2.0))
    assert script.main() == 0
    assert [argv[:3] for argv in calls] == [
        ["continue", "--out", str(tmp_path / name)] for name in ("fcgl", "pde")]
    assert all("continuation.classify=false" in argv for argv in calls)
    for name in ("fcgl", "pde"):
        assert (tmp_path / f"branch_{name}.csv").read_bytes() == \
            (tmp_path / name / "branch.csv").read_bytes()
    report = (tmp_path / "overlay.txt").read_text(encoding="utf-8")
    assert "pde_fold_left = 1\n" in report and "pde_fold_right = 2\n" in report


def test_refuses_an_unsettled_seed(tmp_path, monkeypatch):
    script, calls = load_script(), []
    monkeypatch.setattr(script, "cli_main", fake_continue(calls, False))
    monkeypatch.setattr(sys, "argv", ["weak_overlay.py", "--out", str(tmp_path)])
    with pytest.raises(RuntimeError, match="did not settle in 900 periods"):
        script.main()
    assert len(calls) == 2
    assert not (tmp_path / "branch_pde.csv").exists()
    assert not (tmp_path / "overlay.txt").exists()

"""scripts/strong_case.py run end to end at its defaults."""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from oscillab import fileio
from oscillab.continuation import HarmonicPdeState
from oscillab.fields import ComplexField

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "strong_case.py"

KEYS = ["f_c_hill", "f_c_monodromy", "lin", "diff", "cub", "f_seed", "length",
        "n", "seed_amp", "seed_inv_width", "polished_norm",
        "polished_residual", "seed_norm_shift"]


def test_strong_case_polishes_the_seed_below_onset(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("strong_case", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["strong_case.py", "--out", str(tmp_path)])
    assert script.main() == 0
    with open(tmp_path / "report.txt", encoding="utf-8") as fh:
        report = dict(line.rstrip("\n").split(" = ") for line in fh)
    assert list(report) == KEYS
    value = {key: float(v) for key, v in report.items()}
    # the two Floquet routes agree on the onset the seed sits 3% below
    assert abs(value["f_c_hill"] - value["f_c_monodromy"]) <= 1e-8 * value["f_c_hill"]
    assert value["f_seed"] < value["f_c_hill"]
    assert value["polished_residual"] < 1e-10
    assert 0.0 < value["seed_norm_shift"] < 0.05
    polished = fileio.read_snapshot(tmp_path / "polished.txt")
    assert isinstance(polished, HarmonicPdeState)
    assert list(polished.harmonics) == list(range(-7, 8, 2))
    assert polished.n == int(report["n"])
    assert np.isclose(polished.norm, value["polished_norm"], rtol=1e-12)
    seed = fileio.read_snapshot(tmp_path / "seed.txt")
    assert isinstance(seed, ComplexField) and seed.n == polished.n

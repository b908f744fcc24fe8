import numpy as np
import pytest

from oscillab import fileio
from oscillab.config import load_config
from oscillab.continuation import Branch, BranchPoint, HarmonicPdeState
from oscillab.errors import ShapeError
from oscillab.fields import ComplexField


def test_kv_formatting(tmp_path):
    path = tmp_path / "kv.txt"
    fileio.write_kv(path, [("a", 1), ("b", 0.1), ("c", True), ("d", "pde")])
    text = path.read_text()
    assert "a = 1\n" in text
    assert "b = 0.10000000000000001\n" in text   # %.17g keeps full precision
    assert "c = true\n" in text
    assert "d = pde\n" in text


def test_manifest_is_deterministic(tmp_path):
    cfg = load_config()
    first = fileio.write_manifest(str(tmp_path), "0.1.0", "simulate",
                                  cfg.items())
    with open(first, "rb") as fh:
        blob = fh.read()
    fileio.write_manifest(str(tmp_path), "0.1.0", "simulate", cfg.items())
    with open(first, "rb") as fh:
        assert fh.read() == blob
    text = blob.decode()
    assert text.startswith("version = 0.1.0\ncommand = simulate\n")
    assert "params.gamma = " in text
    assert "seed.kind = " in text


def test_csv_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0, 1.25, "stable"), (1, -3.5e-7, "unclassified")]
    fileio.write_csv(path, ["i", "v", "s"], rows)
    header, got = fileio.read_csv(path)
    assert header == ["i", "v", "s"]
    assert got[0] == ["0", "1.25", "stable"]
    assert float(got[1][1]) == -3.5e-7


def test_norm_series(tmp_path):
    path = tmp_path / "norms.csv"
    fileio.write_norm_series(path, [0.0, 0.5], [1.0, 0.25])
    header, rows = fileio.read_csv(path)
    assert header == ["t", "norm"]
    assert [float(r[1]) for r in rows] == [1.0, 0.25]


def test_field_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    field = ComplexField(12.5, rng.standard_normal(32)
                         + 1j * rng.standard_normal(32))
    path = tmp_path / "snap.txt"
    fileio.write_snapshot(path, field)
    with open(path) as fh:
        assert fh.readline() == "# x re_u im_u\n"
    back = fileio.read_snapshot(path)
    assert isinstance(back, ComplexField)
    assert back.length == pytest.approx(12.5, rel=1e-15)
    assert np.array_equal(back.values, field.values)   # %.17g is exact


def test_harmonic_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(4)
    profiles = rng.standard_normal((4, 16)) + 1j * rng.standard_normal((4, 16))
    state = HarmonicPdeState(length=40.0, harmonics=np.array([-3, -1, 1, 3]),
                             profiles=profiles)
    path = tmp_path / "harm.txt"
    fileio.write_snapshot(path, state)
    with open(path) as fh:
        assert fh.readline() == \
            "# x re_u-3 im_u-3 re_u-1 im_u-1 re_u1 im_u1 re_u3 im_u3\n"
    back = fileio.read_snapshot(path)
    assert isinstance(back, HarmonicPdeState)
    assert list(back.harmonics) == [-3, -1, 1, 3]
    assert np.array_equal(back.profiles, profiles)


def test_snapshot_header_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 1.0 2.0\n")
    with pytest.raises(ShapeError, match="header"):
        fileio.read_snapshot(bad)
    bad.write_text("# x re_u im_u\n0.0 1.0\n")
    with pytest.raises(ShapeError, match="column count"):
        fileio.read_snapshot(bad)


def make_branch():
    pts = [BranchPoint(index=i, param=1.5 - 0.01 * i, norm=0.1 * i,
                       z=np.zeros(2), arclength=0.02 * i)
           for i in range(4)]
    pts[2].fold = True
    pts[1].stability = "stable"
    return Branch(points=pts, folds=[1.4712])


def test_branch_csv(tmp_path):
    path = tmp_path / "branch.csv"
    fileio.write_branch(path, make_branch())
    header, rows = fileio.read_csv(path)
    assert header == ["index", "parameter", "norm", "stability", "fold_flag",
                      "leading_rate"]
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    assert rows[1][3] == "stable"
    assert [r[4] for r in rows] == ["0", "0", "1", "0"]


def test_branch_csv_leading_rate(tmp_path):
    branch = make_branch()
    branch.points[1].leading_rate = -0.25
    path = tmp_path / "branch.csv"
    fileio.write_branch(path, branch)
    _, rows = fileio.read_csv(path)
    assert [r[5] for r in rows] == ["nan", "-0.25", "nan", "nan"]


def test_folds_csv(tmp_path):
    path = tmp_path / "folds.csv"
    fileio.write_folds(path, [1.4272, 1.5069])
    header, rows = fileio.read_csv(path)
    assert header == ["fold_index", "parameter"]
    assert [float(r[1]) for r in rows] == [1.4272, 1.5069]

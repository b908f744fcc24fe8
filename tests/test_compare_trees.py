"""The directory comparison of scripts/compare_trees.py."""
import importlib.util
import shutil
from pathlib import Path

import numpy as np
import pytest

from oscillab import fileio
from oscillab.cli import main
from oscillab.fields import ComplexField

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_trees.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_trees", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rewrite(path, line, column, value, sep):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[line].split(sep)
    cells[column] = value(cells[column])
    lines[line] = sep.join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_compare_dirs_finds_a_value_moved_by_1e_12(tmp_path):
    compare = load_script()
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["continue", "--seed", "flat", "--out", str(first),
                 "--override", "params.gamma=1.6", "--override", "grid.n=64",
                 "--override", "continuation.max_points=2"]) == 0
    shutil.copytree(first, second)
    found = compare.compare_dirs(first, second)
    assert {name for name, _, _ in found} >= {"branch.csv", "stats.txt"}
    assert all(note == "byte-identical" and ok for _, note, ok in found)
    # one branch norm moved by 1e-12 relative, one counter by one
    rewrite(second / "branch.csv", 2, 2,
            lambda cell: repr(float(cell) * (1.0 + 1e-12)), ",")
    rewrite(second / "stats.txt", 1, 1, lambda cell: f" {int(cell) + 1}",
            " =")
    changed = {name: (note, ok) for name, note, ok in
               compare.compare_dirs(first, second) if note != "byte-identical"}
    assert list(changed) == ["branch.csv", "stats.txt"]
    column, _, worst = changed["branch.csv"][0].partition(
        ": largest relative difference ")
    assert column == "norm"
    assert float(worst.partition(",")[0]) == pytest.approx(1e-12, rel=0.01)
    (old, new), ok = (changed["stats.txt"][0].removeprefix("matvecs: ")
                      .split(" -> ")), changed["stats.txt"][1]
    assert int(new) == int(old) + 1
    assert ok       # a work counter is reported, not judged


def test_compare_criteria_prints_both_versions_of_a_changed_line():
    compare = load_script()
    parent = ["[criterion 01] PASS  gap 1e-12", "[criterion 02] PASS  fold 1.5"]
    change = ["[criterion 01] PASS  gap 1e-12", "[criterion 02] PASS  fold 1.6"]
    assert compare.compare_criteria(parent, parent) == [
        "[criterion 01] identical", "[criterion 02] identical"]
    first, second = compare.compare_criteria(parent, change)
    assert first == "[criterion 01] identical"
    tag, old, new = second.split("\n")
    assert tag == "[criterion 02] differs"
    assert old.split(": ", 1) == ["      parent", parent[1]]
    assert new.split(": ", 1) == ["      change", change[1]]
    # a criterion printed by one side only is reported, not dropped
    assert compare.compare_criteria(parent, change[:1])[1].endswith(
        "change: (none)")


def test_compare_files_reads_a_time_line_as_header(tmp_path):
    compare = load_script()
    values = np.arange(64) * (1 + 1j)
    fileio.write_snapshot(tmp_path / "a.txt", ComplexField(1.0, values))
    fileio.write_snapshot(tmp_path / "b.txt", ComplexField(1.0, values, 1.5))
    (note, ok), = compare.compare_files(tmp_path / "a.txt", tmp_path / "b.txt")
    assert note == ("header ['x', 're_u', 'im_u'] -> "
                    "['x', 're_u', 'im_u', 't = 1.5']")
    assert not ok


def test_compare_files_compares_the_columns_of_snapshots_at_one_time(tmp_path):
    # two snapshots taken at the same t != 0 whose values differ by 1e-13:
    # the time line is a header item, not a column
    compare = load_script()
    values = np.array([0.5 + 0.25j, -0.75 + 1j])
    fileio.write_snapshot(tmp_path / "a.txt", ComplexField(1.0, values, 1.5))
    fileio.write_snapshot(tmp_path / "b.txt",
                          ComplexField(1.0, values * (1 + 1e-13), 1.5))
    notes = compare.compare_files(tmp_path / "a.txt", tmp_path / "b.txt")
    assert [note.partition(":")[0] for note, _ in notes] == ["re_u", "im_u"]
    for note, _ in notes:
        worst = note.partition("largest relative difference ")[2]
        assert float(worst.partition(",")[0]) == pytest.approx(1e-13, rel=0.01)


@pytest.mark.parametrize("move, accepted", [(6.4e-15, True), (1e-9, False)])
def test_snapshot_columns_are_judged_by_their_largest_magnitude(
        tmp_path, move, accepted):
    # an element near zero moved by 6.4e-15 of the column's largest
    # magnitude reads 4.4e-9 element-wise, yet is within the 1e-10 bound
    compare = load_script()
    values = np.array([1.0, 1.45e-6, -0.5, 0.25]) + 0.5j
    moved = values.copy()
    moved[1] += move
    fileio.write_snapshot(tmp_path / "a.txt", ComplexField(1.0, values))
    fileio.write_snapshot(tmp_path / "b.txt", ComplexField(1.0, moved))
    (note, ok), = compare.compare_files(tmp_path / "a.txt", tmp_path / "b.txt")
    worst, _, spread = note.removeprefix(
        "re_u: largest relative difference ").partition(", ")
    assert float(worst) == pytest.approx(move / 1.45e-6, rel=0.01)
    assert float(spread.partition(" ")[0]) == pytest.approx(move, rel=0.01)
    assert ok is accepted
    assert note.endswith(("within" if accepted else "OUT OF")
                         + " 1e-10 of the largest magnitude")


def test_columns_without_a_bound_must_keep_their_values(tmp_path):
    # a simulate run's norm series has no stated tolerance
    compare = load_script()
    for name, norm in (("a", 0.5), ("b", 0.5 * (1 + 1e-15))):
        (tmp_path / name).mkdir()
        fileio.write_norm_series(tmp_path / name / "norms.csv", [0.0], [norm])
    (note, ok), = compare.compare_files(tmp_path / "a" / "norms.csv",
                                        tmp_path / "b" / "norms.csv")
    assert note.startswith("norm: ") and note.endswith("no stated bound")
    assert not ok


def test_source_lines_counts_the_package_modules_as_wc_does(tmp_path):
    compare = load_script()
    package = tmp_path / "src" / "oscillab"
    (package / "sub").mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    # wc counts newlines, so a last line without one is not counted
    (package / "b.py").write_text("z = 3\nw = 4", encoding="utf-8")
    (package / "notes.txt").write_text("not\ncounted\n", encoding="utf-8")
    (package / "sub" / "c.py").write_text("not counted\n", encoding="utf-8")
    assert compare.source_lines(tmp_path) == 4
    assert compare.source_lines(tmp_path / "missing") == 0

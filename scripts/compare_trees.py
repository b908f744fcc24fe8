#!/usr/bin/env python3
"""Compare the outputs of two oscillab source trees, command by command.

    python3 scripts/compare_trees.py PARENT CHANGE

Runs a fixed list of ``oscillab`` commands from each tree's ``src/``, each
in a fresh interpreter on one BLAS thread (OPENBLAS_NUM_THREADS=1): the four
benchmark workloads of CHANGE/perfbench/workloads.py at seed 1, read and not
edited, the two unlabelled branches of CHANGE/scripts/weak_overlay.py at
its default epsilon (criterion 03's 197-point FCGL branch and criterion
04's 39-point forced-model branch at n = 640), the 59-point labelled FCGL
branch, a labelled n = 64 forced-model branch, an n = 64 simulate with
snapshots, reduce and flatstates for each system, floquet, the default
36-probe sweep and its forced-model twin at n = 256, a two-probe sweep in
which one probe blows up, and scripts/strong_case.py at its defaults (the
Newton polish of the strong-damping seed on harmonics +-1...+-7), run from
each tree's own scripts/.  It first prints both trees' source line totals,
the lines of src/oscillab/*.py as ``wc -l`` counts them, on one
informational line.  For each output file it prints
"byte-identical" or, for a changed header, both versions; for each numeric
column that differs, the largest element-wise relative difference, the
largest difference relative to the column's largest magnitude and the
verdict of its bound in TOLERANCES; for key = value files such as
stats.txt, each value that changed.  It then runs
``pytest -q -s tests/test_acceptance.py`` in each tree the same way and
prints "identical" or both versions of each [criterion NN] line.  Exits 1,
naming each output not accepted, when a numeric column moves beyond its
bound, any other output but a stats.txt counter changes, a criterion line
differs or a command fails.
"""

import argparse
import csv
import glob
import importlib.util
import math
import os
import re
import subprocess
import sys
import tempfile

def _overrides(*items):
    return [arg for item in items for arg in ("--override", item)]


def _load(tree: str, folder: str, name: str):
    """The module tree/folder/name.py."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(tree, folder, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses look it up there
    spec.loader.exec_module(module)
    return module


OSCILLAB = "oscillab"


def commands(tree: str) -> list[tuple[str, str, list[str], dict]]:
    """(name, program, arguments without --out, extra environment) of each
    command, program OSCILLAB for an oscillab command or else a script's
    path within the tree; the benchmark's read from
    tree/perfbench/workloads.py and the two branch runs from
    tree/scripts/weak_overlay.py."""
    workloads = _load(tree, "perfbench", "workloads")
    cmds = [(name, wl.argv(1), dict(wl.env))
            for name, wl in workloads.WORKLOADS.items()]
    sys.path.insert(0, os.path.join(tree, "src"))   # weak_overlay's oscillab
    overlay = _load(tree, "scripts", "weak_overlay")
    cmds += [(f"{name}-overlay", ["continue"] + _overrides(*items), {})
             for name, items in overlay.runs(overlay.EPSILON).items()]
    cmds.append(("fcgl-labelled-59", ["continue"] + _overrides(
        "params.gamma=1.95", "continuation.max_points=30"), {}))
    cmds.append(("pde-labelled-64", ["continue"] + _overrides(
        "system.kind=pde", "grid.n=64", "timestepping.steady_tol=1e-4",
        "continuation.max_points=4"), {}))
    for kind in ("fcgl", "pde"):
        cmds.append((f"{kind}-simulate-64", ["simulate"] + _overrides(
            f"system.kind={kind}", "grid.n=64", "timestepping.t_end=5.0",
            "timestepping.max_periods=20", "output.snapshot_stride=40"), {}))
        cmds.append((f"{kind}-reduce", ["reduce"] + _overrides(
            f"system.kind={kind}"), {}))
        cmds.append((f"{kind}-flatstates", ["flatstates"] + _overrides(
            f"system.kind={kind}"), {}))
    cmds.append(("floquet", ["floquet"] + _overrides(
        "floquet.diagnostics=true"), {}))
    cmds.append(("sweep-36", ["sweep"], {}))
    cmds.append(("pde-sweep-36", ["sweep"] + _overrides(
        "system.kind=pde", "grid.n=256", "sweep.t_probe=200"), {}))
    # a focusing cubic: the Gamma = 5 probe blows up, the other steps on
    cmds.append(("sweep-blowup", ["sweep"] + _overrides(
        "params.c_re=1.0", "grid.n=64", "sweep.nu_min=-3", "sweep.nu_max=-3",
        "sweep.nu_count=1", "sweep.p_min=1", "sweep.p_max=5",
        "sweep.p_count=2", "sweep.t_probe=60"), {}))
    return [(name, OSCILLAB, argv, extra) for name, argv, extra in cmds] + [
        ("strong-case", os.path.join("scripts", "strong_case.py"), [], {})]


def source_lines(tree: str) -> int:
    """The newlines in tree/src/oscillab/*.py, the total of ``wc -l``."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "oscillab", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _run(tree: str, args: list[str], extra=None, **kwargs):
    """python args in a fresh interpreter on tree/src and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"),
               OPENBLAS_NUM_THREADS="1", **(extra or {}))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, **kwargs)


def run_tree(tree: str, cmds, out_root: str) -> list[str]:
    """Run each command from tree/src, a script from tree, with its outputs
    in out_root/name; returns the names of the commands that exited with an
    error code."""
    failed = []
    for name, program, argv, extra in cmds:
        start = (["-m", "oscillab.cli"] if program == OSCILLAB
                 else [os.path.join(tree, program)])
        proc = _run(tree, [*start, *argv,
                           "--out", os.path.join(out_root, name)], extra)
        if proc.returncode != 0:
            failed.append(f"{name} (exit {proc.returncode})")
    return failed


ACCEPTANCE = ["-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
              "tests/test_acceptance.py"]


def criterion_lines(tree: str) -> tuple[int, list[str]]:
    """(pytest's exit code, the [criterion NN] lines) of the acceptance
    tests run in tree."""
    proc = _run(tree, ACCEPTANCE, cwd=tree)
    return proc.returncode, re.findall(r"\[criterion \d+\].*", proc.stdout)


def compare_criteria(a: list[str], b: list[str]) -> list[str]:
    """One note per criterion of either printout: "[criterion NN]
    identical", or that tag followed by both versions of its line."""
    first, second = ({line.partition("]")[0] + "]": line for line in lines}
                     for lines in (a, b))
    notes = []
    for tag in sorted(first.keys() | second.keys()):
        la, lb = first.get(tag, "(none)"), second.get(tag, "(none)")
        notes.append(f"{tag} identical" if la == lb else
                     f"{tag} differs\n      parent: {la}\n      change: {lb}")
    return notes


# The stated output tolerances, (file kind, column, bound, measure): the
# file kind is "snapshot" for a field or harmonic snapshot, else the file
# name, and column "*" is every column.  A "value" bound holds at each row
# for |a - b| / max(|a|, |b|); a "column" bound holds for the largest
# |a - b| over the column's largest magnitude in either file.  A numeric
# column with no row must keep its values.
TOLERANCES = [
    ("branch.csv", "parameter", 1e-12, "value"),
    ("branch.csv", "norm", 1e-12, "value"),
    ("branch.csv", "leading_rate", 1e-10, "value"),
    ("folds.csv", "parameter", 1e-12, "value"),
    ("snapshot", "*", 1e-10, "column"),
]

# key = value files whose changes are reported and not judged: the solver's
# work counters, which a speed-up is meant to change
COUNTERS = ("stats.txt",)


def _table(path: str) -> tuple[str, list[str], list[list[str]]]:
    """(kind, header, rows) of an output file: a CSV table (kind "csv"), a
    snapshot whose header is the column names of its first '#' line and
    then each further '#' line as one item (the 't = ...' of a field taken
    at t != 0), or key = value lines (kind "keyed") as one row."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    head = next((i for i, ln in enumerate(lines) if not ln.startswith("#")),
                len(lines))
    if head:
        header = lines[0].lstrip("#").split()
        header += [ln.lstrip("#").strip() for ln in lines[1:head]]
        return "snapshot", header, [ln.split() for ln in lines[head:]]
    if lines and " = " in lines[0]:
        pairs = [line.partition(" = ")[::2] for line in lines]
        return "keyed", [key for key, _ in pairs], [[value for _, value in pairs]]
    rows = list(csv.reader(lines))
    return "csv", rows[0] if rows else [], rows[1:]


def _floats(values):
    try:
        return [float(v) for v in values]
    except ValueError:
        return None


def _moved(a: float, b: float) -> float:
    """|a - b|: 0 for equal values, nans included, and inf where only one
    is nan or the two are infinities that differ."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    diff = abs(a - b)
    return math.inf if math.isnan(diff) else diff


def _relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|), with 0 and inf as in _moved."""
    moved = _moved(a, b)
    return moved if moved in (0.0, math.inf) else moved / max(abs(a), abs(b))


def _bound(kind: str, column: str):
    """(bound, measure) of a column of a file of that kind, or None."""
    for row_kind, row_column, bound, measure in TOLERANCES:
        if row_kind == kind and row_column in (column, "*"):
            return bound, measure
    return None


def _column_note(kind: str, name: str, fa, fb) -> tuple[str, bool]:
    """(note, within its bound) of a numeric column that differs."""
    worst = max(_relative(x, y) for x, y in zip(fa, fb))
    moved = max(_moved(x, y) for x, y in zip(fa, fb))
    peak = max((abs(v) for v in fa + fb if not math.isnan(v)), default=0.0)
    spread = moved if moved in (0.0, math.inf) else moved / peak
    note = (f"{name}: largest relative difference {worst:.3g}, "
            f"{spread:.3g} of the column's largest magnitude")
    bound = _bound(kind, name)
    if bound is None:
        return note + "; no stated bound", False
    limit, measure = bound
    ok = (worst if measure == "value" else spread) <= limit
    where = "per value" if measure == "value" else "of the largest magnitude"
    return f"{note}; {'within' if ok else 'OUT OF'} {limit:g} {where}", ok


def compare_files(a: str, b: str) -> list[tuple[str, bool]]:
    """(note, acceptable) for what differs between two output files, or
    [("byte-identical", True)].  A numeric column is acceptable within its
    TOLERANCES bound, a COUNTERS file's change always; any other change is
    not."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() == fb.read():
            return [("byte-identical", True)]
    (kind, cols_a, rows_a), (_, cols_b, rows_b) = _table(a), _table(b)
    if kind == "keyed":
        counters = os.path.basename(a) in COUNTERS
        va, vb = dict(zip(cols_a, rows_a[0])), dict(zip(cols_b, rows_b[0]))
        notes = [(f"{key}: {va.get(key, '(none)')} -> {vb.get(key, '(none)')}",
                  counters)
                 for key in dict.fromkeys(cols_a + cols_b)
                 if va.get(key) != vb.get(key)]
        return notes or [("bytes differ, values equal", True)]
    if kind != "snapshot":
        kind = os.path.basename(a)
    if cols_a != cols_b:
        return [(f"header {cols_a} -> {cols_b}", False)]
    if len(rows_a) != len(rows_b) or any(
            len(ra) != len(rb) for ra, rb in zip(rows_a, rows_b)):
        return [(f"rows {len(rows_a)} -> {len(rows_b)}", False)]
    notes = []
    # a header item past the last column, such as a time line, has no column
    for name, col_a, col_b in zip(cols_a, zip(*rows_a), zip(*rows_b)):
        if col_a == col_b:
            continue
        fa, fb = _floats(col_a), _floats(col_b)
        if fa is None or fb is None:
            diff = sum(x != y for x, y in zip(col_a, col_b))
            notes.append((f"{name}: {diff} of {len(col_a)} values differ", False))
        else:
            notes.append(_column_note(kind, name, fa, fb))
    return notes or [("bytes differ, values equal", True)]


def compare_dirs(a: str, b: str) -> list[tuple[str, str, bool]]:
    """(file, note, acceptable) for every output file of the two
    directories."""
    names_a, names_b = set(os.listdir(a)), set(os.listdir(b))
    found = [(name, "only in the first", False)
             for name in sorted(names_a - names_b)]
    found += [(name, "only in the second", False)
              for name in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        found += [(name, note, ok) for note, ok in
                  compare_files(os.path.join(a, name), os.path.join(b, name))]
    return found


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    args = ap.parse_args()
    cmds = commands(args.change)
    print("== source lines of src/oscillab/*.py: parent "
          f"{source_lines(args.parent)}, change {source_lines(args.change)}")
    same, rejected = True, []
    with tempfile.TemporaryDirectory() as work:
        for side, tree in (("parent", args.parent), ("change", args.change)):
            failed = run_tree(os.path.abspath(tree), cmds,
                              os.path.join(work, side))
            for name in failed:
                print(f"{side}: {name} failed")
                same = False
        for name, program, argv, _ in cmds:
            print(f"== {name}: {' '.join([program, *argv])}")
            dirs = [os.path.join(work, side, name)
                    for side in ("parent", "change")]
            if not all(os.path.isdir(d) for d in dirs):
                print("   no output to compare")
                continue
            for fname, note, ok in compare_dirs(*dirs):
                print(f"   {fname}: {note}")
                if not ok:
                    rejected.append(f"{name}/{fname}: {note.partition(':')[0]}")
    print(f"== acceptance: {' '.join(ACCEPTANCE[1:])}")
    (code_a, lines_a), (code_b, lines_b) = (
        criterion_lines(os.path.abspath(tree))
        for tree in (args.parent, args.change))
    for side, code in (("parent", code_a), ("change", code_b)):
        if code != 0:
            print(f"   {side}: pytest exit {code}")
            same = False
    notes = compare_criteria(lines_a, lines_b)
    for note in notes or ["no criterion lines"]:
        print(f"   {note}")
    same = same and bool(notes) and all(
        note.endswith(" identical") for note in notes)
    for item in rejected:
        print(f"== not accepted: {item}")
    return 0 if same and not rejected else 1


if __name__ == "__main__":
    sys.exit(main())

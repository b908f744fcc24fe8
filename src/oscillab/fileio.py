"""Deterministic text output: CSV tables, snapshot files, and manifests.

Floating-point values are written with 17 significant digits so files round
trip losslessly.  Nothing here writes timestamps or machine identifiers:
identical inputs must produce bit-identical outputs.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .continuation import Branch, HarmonicPdeState
from .errors import ShapeError
from .fields import ComplexField

FMT = "%.17g"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FMT % value
    return str(value)


def write_kv(path: str, items, mode: str = "w") -> None:
    """key = value lines; items is an iterable of (key, value) pairs.  Mode
    "a" appends them to the file."""
    with open(path, mode, encoding="utf-8") as fh:
        for key, value in items:
            fh.write(f"{key} = {_fmt(value)}\n")


def write_manifest(out_dir: str, version: str, command: str,
                   config_items) -> str:
    path = os.path.join(out_dir, "manifest.txt")
    items = [("version", version), ("command", command)]
    items += [(f"{sec}.{key}", val) for sec, key, val in config_items]
    write_kv(path, items)
    return path


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_csv(path: str):
    """Returns (header, list of string rows); callers convert types."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def write_norm_series(path: str, times, norms) -> None:
    write_csv(path, ["t", "norm"], zip(times, norms))


# ---- field snapshots ----
# Header "# x re_u im_u" for plain fields; harmonic states label each column
# pair with the harmonic index, e.g. "# x re_u-3 im_u-3 ... re_u3 im_u3".
# The labels, not the number of pairs, tell the two apart on reading.  A
# field taken at t != 0 has a second line "# t = <t>"; at t = 0 it has none.

def write_snapshot(path: str, state: ComplexField | HarmonicPdeState) -> None:
    if isinstance(state, HarmonicPdeState):
        labels = " ".join(f"re_u{j} im_u{j}" for j in state.harmonics)
        cols = state.profiles
    else:
        labels, cols = "re_u im_u", state.values[None, :]
        if state.t:
            labels += f"\nt = {FMT % state.t}"
    x = np.arange(state.n) * (state.length / state.n)
    # given a path, numpy would open it through its DataSource, importing gzip
    with open(path, "w", encoding="utf-8") as fh:
        np.savetxt(fh, np.column_stack([x, np.ascontiguousarray(cols.T).view(float)]),
                   fmt=FMT, header=f"x {labels}", comments="# ")


def read_snapshot(path: str) -> ComplexField | HarmonicPdeState:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        tokens = header.lstrip("#").split()
        if not header.startswith("#") or not tokens or tokens[0] != "x":
            raise ShapeError(f"{path}: missing snapshot header")
        rows = fh.readlines()
    t = next((float(r[5:]) for r in rows[:1] if r.startswith("# t =")), 0.0)
    data = np.loadtxt(rows)
    if data.ndim == 1:
        data = data[None, :]
    pair_labels = tokens[1::2]
    n_pairs = len(pair_labels)
    if data.shape[1] != 1 + 2 * n_pairs:
        raise ShapeError(f"{path}: column count does not match header")
    x = data[:, 0]
    n = x.size
    length = float(x[-1] + (x[1] - x[0])) if n > 1 else 1.0
    cols = [data[:, 1 + 2 * i] + 1j * data[:, 2 + 2 * i] for i in range(n_pairs)]
    if pair_labels == ["re_u"]:
        return ComplexField(length, cols[0], t)
    harmonics = np.array([int(lbl.removeprefix("re_u")) for lbl in pair_labels])
    return HarmonicPdeState(length=length, harmonics=harmonics,
                            profiles=np.stack(cols))


# ---- branches ----

def write_branch(path: str, branch: Branch) -> None:
    rows = [(pt.index, pt.param, pt.norm, pt.stability, int(pt.fold),
             float(pt.leading_rate)) for pt in branch.points]
    write_csv(path, ["index", "parameter", "norm", "stability", "fold_flag",
                     "leading_rate"], rows)


def write_folds(path: str, folds) -> None:
    write_csv(path, ["fold_index", "parameter"], list(enumerate(folds)))


def write_eigenfunctions(path: str, fp, n_samples: int = 256) -> None:
    t = 2.0 * math.pi * np.arange(n_samples) / n_samples
    write_csv(path, ["t", "p1", "q1", "p1_adj"],
              zip(t, fp.p1(t), fp.q1(t), fp.p1_adj(t)))

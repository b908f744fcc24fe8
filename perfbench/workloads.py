"""The four benchmark workloads, their units of work and results digests.

Each workload is one ``oscillab`` command.  Why each is here, and which
layers it exercises or skips, is in README.md; the short form is the
``why`` of each workload in BENCHMARK.json.
"""
from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")

# Relative noise put on the seed field of the ``continue`` workloads.  Newton
# symmetrises and converges the seed, so the digest does not depend on it.
SEED_NOISE = 1e-3


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _branch(out: str) -> list[dict]:
    return _rows(os.path.join(out, "branch.csv"))


def _outer_folds(out: str) -> list[float]:
    folds = [float(r["parameter"]) for r in _rows(os.path.join(out, "folds.csv"))]
    return [min(folds), max(folds)] if folds else []


def branch_digest(out: str, record: dict) -> dict:
    pts = _branch(out)
    return {"points": len(pts), "outer_folds": _outer_folds(out),
            "end_norms": [float(pts[0]["norm"]), float(pts[-1]["norm"])]}


def labelled_digest(out: str, record: dict) -> dict:
    labels = [r["stability"] for r in _branch(out)]
    return {"points": len(labels),
            **{k: labels.count(k)
               for k in ("stable", "unstable", "indeterminate")}}


def cycle_digest(out: str, record: dict) -> dict:
    return {"steady_periods": record["steady_periods"],
            "points": len(_branch(out)), "outer_folds": _outer_folds(out)}


def sweep_digest(out: str, record: dict) -> dict:
    return {"outcomes": [r["outcome"]
                         for r in _rows(os.path.join(out, "sweep.csv"))]}


def branch_points(out: str) -> int:
    return len(_branch(out))


def labelled_points(out: str) -> int:
    return sum(r["stability"] != "unclassified" for r in _branch(out))


def probes(out: str) -> int:
    return len(_rows(os.path.join(out, "sweep.csv")))


@dataclass(frozen=True)
class Workload:
    name: str
    args: list[str]                  # oscillab arguments, without --out
    work: Callable[[str], int]       # units of work done, from the outputs
    work_unit: str
    digest: Callable[[str, dict], dict]
    seeded: bool = True              # False: no input takes the seed
    env: dict = field(default_factory=dict)
    trace_env: dict = field(default_factory=dict)

    def argv(self, seed: int) -> list[str]:
        if not self.seeded:
            return list(self.args)
        return self.args + ["--override", f"seed.noise={SEED_NOISE}",
                            "--override", f"seed.noise_seed={seed}"]


def _overrides(*items: str) -> list[str]:
    return [arg for item in items for arg in ("--override", item)]


WORKLOADS = {w.name: w for w in [
    Workload(
        "fcgl-branch",
        ["continue"] + _overrides(
            "params.gamma=1.95", "continuation.param_min=1.35",
            "continuation.param_max=2.05", "continuation.ds_max=0.04",
            "continuation.max_points=40", "continuation.classify=false"),
        branch_points, "point", branch_digest),
    Workload(
        "fcgl-labelled",
        ["continue"] + _overrides("params.gamma=1.95",
                                  "continuation.max_points=2"),
        labelled_points, "label", labelled_digest),
    Workload(
        "pde-cycle",
        ["continue"] + _overrides(
            "system.kind=pde", "grid.n=256", "timestepping.steady_tol=1e-4",
            "continuation.max_points=4", "continuation.classify=false"),
        branch_points, "point", cycle_digest),
    # Pool children do not send wrapper spans back, so the traced run steps
    # the probes in-process.
    Workload(
        "sweep", ["sweep"] + _overrides("sweep.nu_count=2", "sweep.p_count=3"),
        probes, "probe", sweep_digest, seeded=False,
        env={"OSCILLON_THREADS": "2"}, trace_env={"OSCILLON_THREADS": "1"}),
]}

# Per-layer figures from ROADMAP.md, printed beside the traced ones.
BASELINES = {
    "fcgl-branch": {"continuation.matvec_us": "119 (FCGL n=512)",
                    "continuation.matvecs_per_solve":
                        "62 (acceptance branch, backward half)"},
    "fcgl-labelled": {"stability.label_s": "1.3-2.3"},
    "pde-cycle": {"etd.step_us": "101 (pde n=640; n=256 here)"},
    "sweep": {"etd.step_us": "62 (FCGL n=512)"},
}


def load_reference(path: str = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(digest, reference, rel_tol: float, where: str = "") -> list[str]:
    """Where digest differs from reference.  Floats may differ by rel_tol
    relative; counts, labels and list lengths must match exactly."""
    if isinstance(reference, dict):
        if not isinstance(digest, dict) or digest.keys() != reference.keys():
            return [f"{where or 'digest'}: keys differ"]
        return [m for key in reference
                for m in mismatches(digest[key], reference[key], rel_tol,
                                    f"{where}.{key}" if where else key)]
    if isinstance(reference, list):
        if not isinstance(digest, list) or len(digest) != len(reference):
            return [f"{where}: {digest!r} != {reference!r}"]
        return [m for i, (d, r) in enumerate(zip(digest, reference))
                for m in mismatches(d, r, rel_tol, f"{where}[{i}]")]
    if isinstance(reference, float):
        if isinstance(digest, (int, float)) and \
                math.isclose(digest, reference, rel_tol=rel_tol, abs_tol=0.0):
            return []
        return [f"{where}: {digest!r} != {reference!r} (rel_tol {rel_tol})"]
    if type(digest) is not type(reference) or digest != reference:
        return [f"{where}: {digest!r} != {reference!r}"]
    return []

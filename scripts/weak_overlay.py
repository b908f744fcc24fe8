#!/usr/bin/env python3
"""Trace the localized branches of the amplitude equation and of the forced
model with `oscillab continue`, rescale the latter, and report how well the
two bifurcation diagrams overlay between their outer folds.

Writes the two run directories fcgl/ and pde/ into --out, and beside them
branch_fcgl.csv, branch_pde.csv and overlay.txt.
"""

import argparse
import os
import shutil

from oscillab import ScalingMap, fileio
from oscillab.cli import main as cli_main
from oscillab.continuation import Branch, BranchPoint, overlay_mismatch


def read_branch(run: str) -> Branch:
    """The branch of a `continue` run directory, from branch.csv and
    folds.csv."""
    _, rows = fileio.read_csv(os.path.join(run, "branch.csv"))
    points = [BranchPoint(int(i), float(p), float(norm), z=None, stability=s,
                          fold=flag == "1", leading_rate=float(rate))
              for i, p, norm, s, flag, rate in rows]
    _, folds = fileio.read_csv(os.path.join(run, "folds.csv"))
    return Branch(points, [float(p) for _, p in folds])


EPSILON = 0.1


def runs(eps: float) -> dict[str, list[str]]:
    """The overrides of the unlabelled `continue` run of each system at
    scaling epsilon eps, by run directory name."""
    return {
        "fcgl": ["params.gamma=1.95", "continuation.ds_max=0.04",
                 "continuation.param_min=1.35", "continuation.param_max=2.05",
                 "continuation.max_points=260", "continuation.classify=false"],
        # seed mid-window: relaxation slows critically next to the folds
        "pde": ["system.kind=pde", "grid.n=640", f"params.epsilon={eps!r}",
                f"params.f={ScalingMap(eps).to_forcing(1.45)!r}",
                "timestepping.max_periods=900", "continuation.ds0=0.005",
                "continuation.ds_max=0.02", "continuation.param_min=0.0545",
                "continuation.param_max=0.0625", "continuation.max_points=150",
                "continuation.classify=false"],
    }


def read_kv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="weak-overlay")
    ap.add_argument("--epsilon", type=float, default=EPSILON)
    args = ap.parse_args()
    eps = args.epsilon
    branches = []
    for name, items in runs(eps).items():
        print(f"tracing the {name} branch ...")
        run = os.path.join(args.out, name)
        code = cli_main(["continue", "--out", run,
                         *(arg for it in items for arg in ("--override", it))])
        if code != 0:
            return code
        stats = read_kv(os.path.join(run, "stats.txt"))
        if stats.get("seed_steady_converged") == "false":
            raise RuntimeError("seeding run did not settle in "
                               f"{stats['seed_steady_periods']} periods")
        shutil.copyfile(os.path.join(run, "branch.csv"),
                        os.path.join(args.out, f"branch_{name}.csv"))
        b = read_branch(run)
        branches.append(b)
        print(f"  {len(b.points)} points, folds at "
              f"{min(b.folds):.6f} / {max(b.folds):.6f}")

    ba, bb = branches
    worst, lo, hi = overlay_mismatch(ba, bb, ScalingMap(eps))
    fileio.write_kv(os.path.join(args.out, "overlay.txt"), [
        ("epsilon", eps),
        ("fcgl_fold_left", min(ba.folds)), ("fcgl_fold_right", max(ba.folds)),
        ("pde_fold_left", min(bb.folds)), ("pde_fold_right", max(bb.folds)),
        ("overlay_window_lo", lo), ("overlay_window_hi", hi),
        ("overlay_max_mismatch", worst)])
    print(f"max overlay mismatch {100 * worst:.2f}% "
          f"over [{lo:.4f}, {hi:.4f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

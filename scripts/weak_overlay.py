#!/usr/bin/env python3
"""Trace the localized branches of the amplitude equation and of the forced
model, rescale the latter, and report how well the two bifurcation diagrams
overlay between their outer folds.

Writes branch_fcgl.csv, branch_pde.csv, and overlay.txt into --out.
"""

import argparse
import math
import os
from dataclasses import replace

import numpy as np

from oscillab import (FcglParams, ModelParams, ScalingMap, fileio,
                      make_stepper)
from oscillab import continuation as ct
from oscillab.etd import run_to_steady
from oscillab.reduction import weak_sech_fcgl, weak_sech_pde

TWO_PI = 2.0 * math.pi


def fcgl_branch(p: FcglParams, n: int, length: float) -> ct.Branch:
    start = 1.95
    problem = ct.FcglSteadyProblem(replace(p, gamma=start), n=n,
                                   length=length)
    seed = weak_sech_fcgl(p, start, center=length / 2).as_field(n, length)
    z, _, _ = ct.newton_solve(problem, problem.pack(seed.values), start)
    controls = ct.ContinuationControls(ds0=0.01, ds_max=0.04,
                                       param_min=1.35, param_max=2.05,
                                       max_points=260)
    back = ct.continue_branch(problem, z, start, -1, controls)
    fwd = ct.continue_branch(problem, z, start, +1, controls)
    return ct.merge_branches(back, fwd)


def pde_branch(mp: ModelParams, n: int, length: float) -> ct.Branch:
    seed = weak_sech_pde(mp, center=length / 2).as_field(n, length, t=0.0)
    stepper = make_stepper(seed, mp, TWO_PI / 208)
    converged, periods, _ = run_to_steady(stepper, TWO_PI, tol=1e-9,
                                          max_periods=900)
    if not converged:
        raise RuntimeError(f"seeding run did not settle in {periods} periods")
    projected = ct.timestepper_harmonics(stepper, mp.f)
    problem = ct.PdeHarmonicProblem(mp, n=n, length=length)
    z, _, _ = ct.newton_solve(problem, problem.pack(projected.profiles), mp.f)
    controls = ct.ContinuationControls(ds0=0.005, ds_max=0.02,
                                       param_min=0.0545, param_max=0.0625,
                                       max_points=150)
    back = ct.continue_branch(problem, z, mp.f, -1, controls)
    fwd = ct.continue_branch(problem, z, mp.f, +1, controls)
    return ct.merge_branches(back, fwd)


def fold_segment(branch: ct.Branch):
    flagged = [pt for pt in branch.points if pt.fold]
    lo = min(flagged, key=lambda pt: pt.param)
    hi = max(flagged, key=lambda pt: pt.param)
    i, j = sorted((lo.index, hi.index))
    pts = branch.points[i:j + 1]
    return (np.array([pt.param for pt in pts]),
            np.array([pt.norm for pt in pts]))


def overlay_mismatch(branch_a, branch_b, eps, samples=60, trim=0.02):
    qa, na = fold_segment(branch_a)
    qb, nb = fold_segment(branch_b)
    qb = ScalingMap(eps).to_gamma(qb)
    nb = nb / eps
    lo = max(qa.min(), qb.min())
    hi = min(qa.max(), qb.max())
    pad = trim * (hi - lo)
    grid = np.linspace(lo + pad, hi - pad, samples)
    ia, ib = np.argsort(qa), np.argsort(qb)
    va = np.interp(grid, qa[ia], na[ia])
    vb = np.interp(grid, qb[ib], nb[ib])
    return float(np.max(np.abs(va - vb) / np.abs(va))), grid[0], grid[-1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="weak-overlay")
    ap.add_argument("--epsilon", type=float, default=0.1)
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    p = FcglParams(mu=-0.5, nu=2.0, alpha=1.0, beta=-2.0,
                   c_re=-1.0, c_im=-2.5, gamma=1.496)
    eps = args.epsilon
    # seed mid-window: relaxation slows critically next to the folds
    mp = ScalingMap(eps).fcgl_to_pde(replace(p, gamma=1.45))

    print("tracing amplitude-equation branch ...")
    ba = fcgl_branch(p, n=512, length=20.0 * math.pi)
    fileio.write_branch(os.path.join(args.out, "branch_fcgl.csv"), ba)
    print(f"  {len(ba.points)} points, folds at "
          f"{min(ba.folds):.6f} / {max(ba.folds):.6f}")

    print("tracing forced-model branch (seeding run takes a few minutes) ...")
    bb = pde_branch(mp, n=640, length=200.0 * math.pi)
    fileio.write_branch(os.path.join(args.out, "branch_pde.csv"), bb)
    print(f"  {len(bb.points)} points, folds at "
          f"{min(bb.folds):.6f} / {max(bb.folds):.6f}")

    worst, lo, hi = overlay_mismatch(ba, bb, eps)
    report = [("epsilon", eps),
              ("fcgl_fold_left", min(ba.folds)),
              ("fcgl_fold_right", max(ba.folds)),
              ("pde_fold_left", min(bb.folds)),
              ("pde_fold_right", max(bb.folds)),
              ("overlay_window_lo", lo),
              ("overlay_window_hi", hi),
              ("overlay_max_mismatch", worst)]
    fileio.write_kv(os.path.join(args.out, "overlay.txt"), report)
    print(f"max overlay mismatch {100 * worst:.2f}% "
          f"over [{lo:.4f}, {hi:.4f}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

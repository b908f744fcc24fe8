#!/usr/bin/env python3
"""Strong-damping study at (mu, omega) = (-0.125, 1.5): subharmonic onset by
two independent Floquet routes, the reduced pulse coefficients, and a Newton
polish of the asymptotic seed slightly below onset.

Writes report.txt and seed/polished snapshots into --out.  By default the
domain is 80*pi, doubled until it spans 16 pulse widths (1/inv_width), on
the grid spacing of 512 points over 80*pi.
"""

import argparse
import math
import os

import numpy as np

from oscillab import ModelParams, fileio
from oscillab import continuation as ct
from oscillab.floquet import mathieu_critical, monodromy_critical
from oscillab.reduction import strong_ac_coeffs, strong_sech_pde


POLISH_HARMONICS = tuple(range(-7, 8, 2))
BASE_LENGTH = 80.0 * math.pi
BASE_N = 512
WIDTHS = 16.0


def default_grid(inv_width, length=None, n=None):
    """Fill in a domain of at least WIDTHS pulse widths and a power-of-two
    grid no coarser than BASE_N points over BASE_LENGTH."""
    if length is None:
        length = BASE_LENGTH
        while length * inv_width < WIDTHS:
            length *= 2.0
    if n is None:
        n = 2
        while length / n > BASE_LENGTH / BASE_N:
            n *= 2
    return length, n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="strong-case")
    ap.add_argument("--offset", type=float, default=0.03,
                    help="fractional distance below onset for the seed")
    ap.add_argument("--n", type=int, default=None,
                    help="grid points (default: the smallest power of two "
                         "with L/n <= 80*pi/512)")
    ap.add_argument("--length", type=float, default=None,
                    help="domain length L (default: 80*pi, doubled until "
                         "it spans 16 pulse widths)")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)

    mp = ModelParams(mu=-0.125, omega=1.5, alpha=1.0, beta=-2.0,
                     c_re=-1.0, c_im=-2.5, f=0.0)
    fp = mathieu_critical(mp)
    f_mono = monodromy_critical(mp)
    ac = strong_ac_coeffs(fp, mp)
    print(f"onset F_c = {fp.f_c:.10f} (Hill) vs {f_mono:.10f} (monodromy), "
          f"gap {abs(fp.f_c - f_mono):.2e}")
    print(f"reduced coefficients: lin={ac.lin:.6f} diff={ac.diff:.6f} "
          f"cub={ac.cub:.6f}")

    f = (1.0 - args.offset) * fp.f_c
    length, n = default_grid(strong_sech_pde(ac, fp, f).inv_width,
                             args.length, args.n)
    profile = strong_sech_pde(ac, fp, f, center=length / 2)
    seed_field = profile.as_field(n, length, t=0.0)
    fileio.write_snapshot(os.path.join(args.out, "seed.txt"), seed_field)

    # polish as a time-periodic state in the harmonic representation; on the
    # default harmonics +-1, +-3 the flat onset is 2.3083, 1.07% below the
    # converged one, so a seed closer to onset would lie above it there.
    # On +-1..+-7 the flat onset has converged.
    problem = ct.PdeHarmonicProblem(mp, n=n, length=length,
                                    harmonics=POLISH_HARMONICS)
    snaps = np.stack([profile.as_field(n, length, t=t).values
                      for t in problem.times[:, 0]])
    guess = problem.pack(problem.project @ snaps)
    z, residual, _ = ct.newton_solve(problem, guess, f)
    state = problem.state_of(z)
    fileio.write_snapshot(os.path.join(args.out, "polished.txt"), state)
    guess_norm = problem.norm_of(guess)
    drift = abs(state.norm / guess_norm - 1.0)
    print(f"Newton residual {residual:.2e}, "
          f"norm {state.norm:.6f} (seed {guess_norm:.6f}, "
          f"relative shift {100 * drift:.2f}%)")

    report = [("f_c_hill", fp.f_c), ("f_c_monodromy", f_mono),
              ("lin", ac.lin), ("diff", ac.diff), ("cub", ac.cub),
              ("f_seed", f), ("length", length), ("n", n),
              ("seed_amp", profile.amp),
              ("seed_inv_width", profile.inv_width),
              ("polished_norm", state.norm),
              ("polished_residual", residual),
              ("seed_norm_shift", drift)]
    fileio.write_kv(os.path.join(args.out, "report.txt"), report)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

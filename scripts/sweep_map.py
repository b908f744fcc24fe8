#!/usr/bin/env python3
"""Map simulation outcomes (decayed / localized / flat) over a grid of
detuning and drive strength, then print the map as an ASCII table.

Thin wrapper over the `oscillab sweep` command; --fine doubles the grid.
"""

import argparse
import os
from collections import defaultdict

from oscillab import fileio
from oscillab.cli import main as cli_main

GLYPH = {"decayed": ".", "localized": "O", "flat": "#", "indeterminate": "?"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="sweep-map")
    ap.add_argument("--system", choices=("fcgl", "pde"), default="fcgl")
    ap.add_argument("--fine", action="store_true")
    args = ap.parse_args()

    counts = "12" if args.fine else "6"
    code = cli_main([
        "sweep", "--out", args.out,
        "--override", f"system.kind={args.system}",
        "--override", "sweep.nu_min=0.1",
        "--override", "sweep.nu_max=3.0",
        "--override", f"sweep.nu_count={counts}",
        "--override", "sweep.p_min=1.2",
        "--override", "sweep.p_max=2.2",
        "--override", f"sweep.p_count={counts}",
    ])
    if code != 0:
        return code

    header, rows = fileio.read_csv(os.path.join(args.out, "sweep.csv"))
    table = defaultdict(dict)
    for nu, param, outcome in rows:
        table[float(nu)][float(param)] = outcome
    params = sorted({float(r[1]) for r in rows})
    print("rows: nu (down), columns: drive (right); "
          ". decayed, O localized, # flat")
    print("        " + " ".join(f"{p:5.3f}" for p in params))
    for nu in sorted(table):
        glyphs = [GLYPH.get(table[nu][p], "?") for p in params]
        print(f"nu={nu:4.2f} " + "     ".join(glyphs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

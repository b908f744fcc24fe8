"""One benchmark command in a fresh interpreter.

    python3 perfbench/launch.py MODE RECORD [oscillab arguments...]

MODE is one of

- ``setup``: import ``oscillab.cli`` and resolve the command's configuration,
  then exit.  Its wall time is the benchmark's ``setup_s``.
- ``plain``: run the command as ``oscillab`` would.  The only addition is a
  record of what ``etd.run_to_steady`` returned, which no output file holds
  and the results digest needs; it costs one extra call per command.
- ``trace``: run the command with every layer wrapped (``tracer.install``)
  and write the spans to ``RECORD.npz``.

``plain`` and ``trace`` write RECORD, a JSON object with the exit code, the
stroboscopic periods of each ``run_to_steady`` call, the counters, and the
library versions and BLAS thread count as run.  The oscillab package is
imported from ``src/`` of the checkout that holds this file.
"""
from __future__ import annotations

import ctypes
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    mode, record_path, args = argv[0], argv[1], argv[2:]
    if mode not in ("setup", "plain", "trace"):
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import oscillab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"oscillab imported from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if mode == "setup":
        ns = cli.build_parser().parse_args(args)
        cli.load_config(ns.config, ns.override)
        return 0

    from oscillab import etd
    steady_periods = []
    run_to_steady = etd.run_to_steady

    def recorded_run_to_steady(*a, **kw):
        out = run_to_steady(*a, **kw)
        steady_periods.append(out[1])
        return out
    etd.run_to_steady = recorded_run_to_steady

    run = cli.main
    tracer = None
    if mode == "trace":
        import tracer as tracing
        tracer = tracing.Tracer(os.path.basename(record_path))
        tracing.install(tracer, cli)
        run = tracer.wrap(tracing.MAIN, cli.main)
    rc = run(args)
    if tracer is not None:
        tracer.save(record_path + ".npz")

    import numpy
    import scipy
    record = {"rc": rc, "steady_periods": steady_periods,
              "counters": dict(tracer.counters) if tracer else {},
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__, "blas_threads": blas_threads(),
              "oscillon_threads": os.environ.get("OSCILLON_THREADS")}
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans and counters recorded around oscillab's public calls, from outside.

A ``Tracer`` replaces module attributes of oscillab (and scipy's Krylov
entry points) with wrappers that record one span per call: name, start,
end and the enclosing span.  Spans are kept in compact arrays in memory and
written once, as an ``.npz`` file, when the run ends.  ``layer_metrics``
turns such a file into the per-layer metrics of the benchmark.

Nothing under ``src/`` is edited: every wrapper is installed at run time by
``launch.py``, and only in a traced run.
"""
from __future__ import annotations

import collections
import time
from array import array

import numpy as np

# Span names, one per layer boundary.
PAD = "spectral.pad_coeffs"
TRUNCATE = "spectral.truncate_coeffs"
STEP = "etd.step"
SCHEME = "etd.make_scheme"
STEADY = "etd.run_to_steady"
NEWTON = "continuation.newton_solve"
BRANCH = "continuation.continue_branch"
GMRES = "continuation.gmres"
MATVEC = "continuation.matvec"
PRECOND = "continuation.precond"
LABEL = "stability.classify_stability_fcgl"
RATES = "stability.leading_rates_fcgl"
EIGS = "stability.eigs"
PROPAGATOR = "stability.propagator"
SWEEP = "sweep.cmd_sweep"
PROBE = "sweep.probe"
FILEIO = "fileio."      # prefix; one span name per writer
MAIN = "cli.main"


class Tracer:
    """In-memory span recorder.  Span i's parent is always an earlier span."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self.counters: collections.Counter = collections.Counter()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """Return fn wrapped in a span; on_result(value) sees each return."""
        nid = self._name_id(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def traced_operator(self, name: str, op):
        """A LinearOperator that applies op inside a span per application."""
        import scipy.sparse.linalg as sla
        op = sla.aslinearoperator(op)
        return sla.LinearOperator(op.shape, matvec=self.wrap(name, op.matvec),
                                  dtype=op.dtype)

    def save(self, path: str) -> None:
        np.savez(path, run_id=np.array(self.run_id),
                 names=np.array(self.names, dtype=str),
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64))


def install(tracer: Tracer, cli) -> None:
    """Wrap the public calls of every measured layer (see README.md)."""
    import scipy.sparse.linalg as sla

    from oscillab import continuation, etd, fileio, spectral

    count = tracer.counters

    spectral.pad_coeffs = tracer.wrap(PAD, spectral.pad_coeffs)
    spectral.truncate_coeffs = tracer.wrap(TRUNCATE, spectral.truncate_coeffs)

    etd.Etd2Stepper.step = tracer.wrap(STEP, etd.Etd2Stepper.step)
    etd.make_scheme = tracer.wrap(SCHEME, etd.make_scheme)

    etd.run_to_steady = tracer.wrap(STEADY, etd.run_to_steady)

    continuation.newton_solve = tracer.wrap(NEWTON, continuation.newton_solve)

    def branch_done(branch):
        count["continuation.points"] += len(branch.points)
    continuation.continue_branch = tracer.wrap(
        BRANCH, continuation.continue_branch, branch_done)

    gmres = sla.gmres

    def traced_gmres(A, b, *args, M=None, **kwargs):
        A = tracer.traced_operator(MATVEC, A)
        if M is not None:
            M = tracer.traced_operator(PRECOND, M)
        return gmres(A, b, *args, M=M, **kwargs)

    def gmres_done(out):
        if out[1] != 0:
            count["continuation.gmres_unconverged"] += 1
    sla.gmres = tracer.wrap(GMRES, traced_gmres, gmres_done)

    eigs = sla.eigs

    def traced_eigs(A, *args, **kwargs):
        return eigs(tracer.traced_operator(PROPAGATOR, A), *args, **kwargs)
    sla.eigs = tracer.wrap(EIGS, traced_eigs)

    def label_done(label):
        if label == "indeterminate":
            count["stability.indeterminate"] += 1
    continuation.classify_stability_fcgl = tracer.wrap(
        LABEL, continuation.classify_stability_fcgl, label_done)
    continuation.leading_rates_fcgl = tracer.wrap(
        RATES, continuation.leading_rates_fcgl)

    # cmd_sweep is dispatched through the COMMANDS table, so patch both.
    cli.cmd_sweep = cli.COMMANDS["sweep"] = tracer.wrap(SWEEP, cli.cmd_sweep)

    def probe_done(result):
        if result[4] == "indeterminate":
            count["sweep.indeterminate"] += 1
    cli._sweep_probe = tracer.wrap(PROBE, cli._sweep_probe, probe_done)

    for attr in dir(fileio):
        if attr.startswith("write_"):
            setattr(fileio, attr,
                    tracer.wrap(FILEIO + attr, getattr(fileio, attr)))


# ---- analysis ----

def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=durations[has_parent],
                        minlength=durations.size)
    return durations - child


def within(marked: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """True for spans that have a marked ancestor."""
    inside = np.zeros(marked.size, dtype=bool)
    anc = parents.copy()
    live = anc >= 0
    while live.any():
        idx = anc[live]
        inside[live] |= marked[idx]
        anc[live] = parents[idx]
        live = anc >= 0
    return inside


def load(path: str) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}


def layer_metrics(spans: dict, counters: dict) -> dict:
    """Per-layer metrics from one traced run's spans and counters.

    Times are in seconds unless the name ends in ``_us``.  Means over zero
    calls are reported as 0.
    """
    names = [str(n) for n in spans["names"]]
    ids = spans["name_ids"]
    parents = spans["parents"]
    dur = spans["ends"] - spans["starts"]
    self_t = self_times(parents, dur)

    def mask(name):
        return ids == names.index(name) if name in names else \
            np.zeros(ids.size, dtype=bool)

    def n(name):
        return int(mask(name).sum())

    def total(name):
        return float(dur[mask(name)].sum())

    def mean(name):
        m = mask(name)
        return float(dur[m].mean()) if m.any() else 0.0

    # Writers call each other (write_branch -> write_csv): count the outer one.
    is_io = np.isin(ids, [i for i, nm in enumerate(names)
                          if nm.startswith(FILEIO)])
    io_top = is_io & ~within(is_io, parents)

    solves = n(GMRES)
    matvecs = n(MATVEC)
    return {
        "spectral.pad_calls": n(PAD),
        "spectral.pad_truncate_s": total(PAD) + total(TRUNCATE),
        "etd.steps": n(STEP),
        "etd.step_us": mean(STEP) * 1e6,
        "etd.step_s": total(STEP),
        "etd.schemes": n(SCHEME),
        "continuation.points": int(counters.get("continuation.points", 0)),
        "continuation.branch_s": total(BRANCH),
        "continuation.newton_s": total(NEWTON),
        "continuation.gmres_solves": solves,
        "continuation.matvecs": matvecs,
        "continuation.matvecs_per_solve": matvecs / solves if solves else 0.0,
        "continuation.matvec_us": mean(MATVEC) * 1e6,
        "continuation.precond_s": total(PRECOND),
        "continuation.gmres_self_s": float(self_t[mask(GMRES)].sum()),
        "continuation.gmres_unconverged":
            int(counters.get("continuation.gmres_unconverged", 0)),
        "stability.labels": n(LABEL),
        "stability.label_s": mean(LABEL),
        "stability.propagator_applies": n(PROPAGATOR),
        "stability.etd_steps":
            int((mask(STEP) & within(mask(LABEL), parents)).sum()),
        "stability.indeterminate":
            int(counters.get("stability.indeterminate", 0)),
        "sweep.probes": n(PROBE),
        "sweep.probe_s": mean(PROBE),
        "sweep.indeterminate": int(counters.get("sweep.indeterminate", 0)),
        "fileio.write_s": float(dur[io_top].sum()),
        "trace.spans": int(ids.size),
    }

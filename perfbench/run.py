"""oscillab benchmark: four CLI workloads timed end to end, layers traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it runs the ``oscillab`` command of
the workload (see workloads.py) from that checkout's ``src/``, each time in
a fresh interpreter (launch.py), and checks the results digest of every
command against reference.json.

``--trace 0`` is the timed run.  It first times SETUP_RUNS fresh imports of
``oscillab.cli`` with the workload's configuration (``setup_s``), then runs
the command until ``--seconds`` are used, at least once and without
starting a command that would not finish in time, and reports medians.
After each set-up and each command it times one pass of a fixed
calibration loop that uses no oscillab code (``calibrate``).  The timings
are divided by the run's slowdown, the square root of its median pass over
CAL_REF_S, so that they read as seconds at the machine's reference speed;
the raw medians are printed on a ``#`` line.

``--trace 1`` is the traced run.  It runs the command once plain and once
with every layer wrapped, and reports the per-layer metrics with the
tracing overhead against the plain run.  For ``sweep`` the traced
command steps its probes in-process (OSCILLON_THREADS=1), so a plain serial
run is made as well to measure the overhead against.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
start with ``#`` and record each command, the digest, and the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import numpy as np

import tracer as tracing
from workloads import BASELINES, WORKLOADS, load_reference, mismatches

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAUNCH = os.path.join(HERE, "launch.py")
WORK_ROOT = os.path.join(HERE, ".work")
SETUP_RUNS = 5
RUN_LIMIT_S = 170.0     # a run must end within 180 s
CAL_REPS = 300          # one calibration pass: about 0.25 s at reference speed
CAL_REF_S = 0.25        # the pass time the timings are scaled to
# Commands slowed about half as much as the loop, in log terms (fitted
# exponent 0.3-0.5 over 8 minutes of commands and passes; over two sets of
# ten runs, 0.5 gave the least spread and the least shift between sets of
# the exponents 0, 0.25, 0.5, 0.75 and 1).  So a run's slowdown is the
# square root of its loop's.
CAL_EXPONENT = 0.5

_CAL_RNG = np.random.default_rng(0)
_CAL_X = _CAL_RNG.standard_normal(512) + 1j * _CAL_RNG.standard_normal(512)
_CAL_A = _CAL_RNG.standard_normal((64, 64))


def calibrate() -> float:
    """Wall time of a fixed loop of small FFTs, matrix-vector products and
    interpreted integer arithmetic, the mix an oscillab command runs, using
    no oscillab code.  A shared 2-CPU host was seen to run everything up to
    1.7x slower for seconds to minutes at a time; this loop slows with it."""
    t0 = time.perf_counter()
    for _ in range(CAL_REPS):
        for _ in range(20):
            np.fft.ifft(np.fft.fft(_CAL_X) * 0.5)
            _CAL_A @ _CAL_A[0]
        acc = 0
        for i in range(3000):
            acc += i * i
    return time.perf_counter() - t0


@dataclass
class Command:
    """One finished oscillab command."""
    tag: str
    rc: int
    wall_s: float
    cpu_s: float             # user + system, children included
    peak_rss_mb: float       # largest process of the tree
    out: str
    record: dict
    work: int = 0
    problems: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.problems


class Runner:
    def __init__(self, workload, seed: int, work_dir: str, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.deadline = deadline
        reference = load_reference()
        self.rel_tol = reference["rel_tol"]
        self.reference = reference["digests"][workload.name]
        self.count = 0
        self.passes = []         # calibration passes of this run

    def spawn(self, mode: str, args: list[str], env_extra: dict, tag: str):
        """Run launch.py; returns (rc, wall_s, cpu_s, peak_rss_mb)."""
        env = dict(os.environ)
        env.pop("OSCILLON_THREADS", None)
        env.update(env_extra)
        record = os.path.join(self.work_dir, tag + ".json")
        argv = [sys.executable, LAUNCH, mode, record] + args
        log_path = os.path.join(self.work_dir, tag + ".log")
        with open(log_path, "wb") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                    stderr=subprocess.STDOUT,
                                    start_new_session=True)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0),
                _kill_group, (proc.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(log_path, encoding="utf-8", errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0)

    def command(self, mode: str, env_extra: dict) -> Command:
        self.count += 1
        tag = f"{mode}-{self.count}"
        out = os.path.join(self.work_dir, tag)
        args = self.workload.argv(self.seed) + ["--out", out]
        rc, wall, cpu, rss = self.spawn(mode, args, env_extra, tag)
        cmd = Command(tag, rc, wall, cpu, rss, out, {})
        if rc != 0:
            cmd.problems = (f"exit code {rc}",)
            return cmd
        with open(os.path.join(self.work_dir, tag + ".json"),
                  encoding="utf-8") as fh:
            cmd.record = json.load(fh)
        cmd.work = self.workload.work(out)
        digest = self.workload.digest(out, cmd.record)
        cmd.problems = tuple(mismatches(digest, self.reference, self.rel_tol))
        print(f"# {tag}: wall_s={wall:.4f} cpu_s={cpu:.4f} "
              f"peak_rss_mb={rss:.1f} {self.workload.work_unit}s={cmd.work} "
              f"digest={'ok' if cmd.ok else 'MISMATCH'}")
        if not cmd.ok:
            print(f"# digest {json.dumps(digest)}")
            for problem in cmd.problems:
                print(f"# mismatch: {problem}", file=sys.stderr)
        return cmd

    def setup_s(self) -> float:
        """Median wall time of fresh interpreters importing oscillab.cli and
        resolving the configuration; one untimed run warms the caches."""
        args = self.workload.argv(self.seed)
        times = []
        for i in range(SETUP_RUNS + 1):
            rc, wall, _, _ = self.spawn("setup", args, self.workload.env,
                                        f"setup-{i}")
            if rc != 0:
                raise SystemExit(f"setup failed with exit code {rc}")
            times.append(wall)
            self.passes.append(calibrate())
        return statistics.median(times[1:])


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def machine(record: dict) -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    keys = ("python", "numpy", "scipy", "blas_threads", "oscillon_threads")
    return {"nproc": os.cpu_count(), "cpu_model": model,
            **{k: record.get(k) for k in keys}}


def timed_run(runner: Runner, seconds: float) -> tuple[list, dict]:
    """Set up, then run the command until ``seconds`` (set-up included) are
    used, with a calibration pass after each process."""
    wl = runner.workload
    start = time.monotonic()
    setup = runner.setup_s()
    cmds = []
    while True:
        cmds.append(runner.command("plain", wl.env))
        runner.passes.append(calibrate())
        longest = max(c.wall_s for c in cmds) + runner.passes[-1]
        now = time.monotonic()
        if now - start + longest > seconds or \
                now + 1.5 * longest > runner.deadline:
            break
    med = statistics.median
    slowdown = (med(runner.passes) / CAL_REF_S) ** CAL_EXPONENT
    print(f"# raw medians over {len(cmds)} commands: wall_s "
          f"{med(c.wall_s for c in cmds):.4f}, cpu_s "
          f"{med(c.cpu_s for c in cmds):.4f}, setup_s {setup:.4f}; "
          f"calibration passes {[round(t, 4) for t in runner.passes]}, "
          f"slowdown {slowdown:.4f}")
    failed = sum(not c.ok for c in cmds)
    metrics = {
        "wall_s": med(c.wall_s for c in cmds) / slowdown,
        "work_per_s": med(c.work / c.wall_s for c in cmds) * slowdown,
        "cpu_s": med(c.cpu_s for c in cmds) / slowdown,
        "peak_rss_mb": med(c.peak_rss_mb for c in cmds),
        "setup_s": setup / slowdown,
        "success_rate": 1.0 - failed / len(cmds),
    }
    return cmds, metrics


def traced_run(runner: Runner) -> tuple[list, dict]:
    wl = runner.workload
    plain = runner.command("plain", wl.env)
    cmds = [plain]
    if wl.trace_env != wl.env:
        print(f"# note: the traced {wl.name} runs its probes in-process with "
              f"{wl.trace_env}; pool children send no spans back")
        cmds.append(runner.command("plain", wl.trace_env))
    base = cmds[-1]
    traced = runner.command("trace", wl.trace_env)
    cmds.append(traced)
    if not traced.record:
        return cmds, {}
    spans = tracing.load(os.path.join(runner.work_dir, traced.tag + ".json.npz"))
    layer = tracing.layer_metrics(spans, traced.record["counters"])
    layer["etd.steady_periods"] = sum(traced.record["steady_periods"])
    layer["fileio.bytes"] = sum(
        os.path.getsize(os.path.join(traced.out, f))
        for f in os.listdir(traced.out))
    workers = int(wl.env.get("OSCILLON_THREADS", "1"))
    layer["sweep.parallel_eff"] = (plain.cpu_s / (plain.wall_s * workers)
                                   if workers > 1 else 0.0)
    layer["trace.overhead_s"] = traced.wall_s - base.wall_s
    layer["trace.overhead_frac"] = layer["trace.overhead_s"] / base.wall_s
    for name, ref in BASELINES.get(wl.name, {}).items():
        print(f"# baseline {name}: traced {layer[name]:.4g}, ROADMAP {ref}")
    return cmds, layer


def with_units(metrics: dict, kind: str) -> dict:
    """metrics as {name: {value, unit}} for every metric BENCHMARK.json
    lists under kind; a listed metric that was not measured is an error."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "oscillab", "cli.py")):
        print(f"no oscillab sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=wl.name + "-", dir=WORK_ROOT)
    try:
        runner = Runner(wl, args.seed, work_dir, deadline)
        if not wl.seeded:
            print(f"# seed: {wl.name} has no input that takes a seed; "
                  f"its inputs are fixed")
        if args.trace:
            cmds, metrics = traced_run(runner)
        else:
            cmds, metrics = timed_run(runner, args.seconds)
        print("# machine " + json.dumps(machine(cmds[-1].record)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    failed = sum(not c.ok for c in cmds)
    if not metrics:
        return 3
    print(json.dumps({
        "correct": failed == 0, "attempted": len(cmds), "failed": failed,
        "metrics": with_units(metrics,
                              "per_layer" if args.trace else "end_to_end")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

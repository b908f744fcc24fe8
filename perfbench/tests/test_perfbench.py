"""Tests of the benchmark's own pieces: python3 -m pytest perfbench/tests"""
from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# ---- digests ----

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_digest_matches_itself(name):
    ref = workloads.load_reference()
    digest = ref["digests"][name]
    assert digest
    assert workloads.mismatches(copy.deepcopy(digest), digest,
                                ref["rel_tol"]) == []


@pytest.mark.parametrize("name, path, change", [
    ("fcgl-branch", ("outer_folds", 0), lambda v: v * (1 + 1e-6)),
    ("fcgl-branch", ("end_norms", 1), lambda v: -v),
    ("fcgl-branch", ("points",), lambda v: v + 1),
    ("fcgl-labelled", ("unstable",), lambda v: v - 1),
    ("pde-cycle", ("steady_periods", 0), lambda v: v + 1),
    ("pde-cycle", ("outer_folds", 1), lambda v: v * (1 - 1e-6)),
    ("sweep", ("outcomes", 0), lambda v: "indeterminate"),
])
def test_perturbed_digest_is_rejected(name, path, change):
    ref = workloads.load_reference()
    digest = copy.deepcopy(ref["digests"][name])
    holder = digest
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = change(holder[path[-1]])
    assert workloads.mismatches(digest, ref["digests"][name], ref["rel_tol"])


def test_digest_shape_changes_are_rejected():
    ref = workloads.load_reference()
    digest = copy.deepcopy(ref["digests"]["pde-cycle"])
    digest["outer_folds"] = digest["outer_folds"][:1]
    assert workloads.mismatches(digest, ref["digests"]["pde-cycle"], 1.0)
    del digest["points"]
    assert workloads.mismatches(digest, ref["digests"]["pde-cycle"], 1.0)


def test_float_within_tolerance_is_accepted():
    assert workloads.mismatches([1.0 + 1e-12], [1.0], 1e-8) == []
    assert workloads.mismatches([1], [1.0], 1e-8) == []
    assert workloads.mismatches([1.0 + 1e-7], [1.0], 1e-8)


# ---- spans ----

def test_self_time_on_synthetic_tree():
    # root(0..10) -> a(1..4) -> c(2..3); root -> b(5..9)
    parents = np.array([-1, 0, 1, 0])
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    self_t = tracer.self_times(parents, ends - starts)
    np.testing.assert_allclose(self_t, [3.0, 2.0, 1.0, 4.0])
    inside_a = tracer.within(np.array([False, True, False, False]), parents)
    assert inside_a.tolist() == [False, False, True, False]


def test_wrapped_calls_nest_and_report_results():
    t = tracer.Tracer("synthetic")
    seen = []

    def leaf(x):
        return x + 1

    leaf_w = t.wrap("leaf", leaf, seen.append)

    def inner(x):
        return leaf_w(x) + leaf_w(x)

    outer = t.wrap("outer", t.wrap("inner", inner))
    assert outer(1) == 4
    assert seen == [2, 2]
    assert [t.names[i] for i in t.name_ids] == ["outer", "inner", "leaf", "leaf"]
    assert list(t.parents) == [-1, 0, 1, 1]
    starts, ends = np.array(t.starts), np.array(t.ends)
    assert np.all(ends >= starts)
    self_t = tracer.self_times(np.array(t.parents), ends - starts)
    assert np.all(self_t >= 0)
    np.testing.assert_allclose(self_t.sum(), ends[0] - starts[0])


def test_span_file_round_trips(tmp_path):
    t = tracer.Tracer("rid")
    t.wrap("x", lambda: None)()
    t.save(str(tmp_path / "s.npz"))
    spans = tracer.load(str(tmp_path / "s.npz"))
    assert str(spans["run_id"]) == "rid"
    assert spans["names"].tolist() == ["x"]
    assert spans["parents"].tolist() == [-1]


# ---- names ----

def test_names_follow_the_benchmark_format():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert sorted(w["name"] for w in bench["workloads"]) == \
        sorted(workloads.WORKLOADS)


def test_layer_metrics_cover_every_listed_per_layer_metric():
    added_by_run = {"etd.steady_periods", "fileio.bytes",
                    "sweep.parallel_eff", "trace.overhead_s",
                    "trace.overhead_frac"}
    empty = {"names": np.array([], dtype=str),
             "name_ids": np.zeros(0, np.int32),
             "parents": np.zeros(0, np.int32),
             "starts": np.zeros(0), "ends": np.zeros(0)}
    listed = {m["name"] for m in _benchmark()["per_layer"]}
    assert set(tracer.layer_metrics(empty, {})) | added_by_run == listed


# ---- traced runs of small commands ----

SMALL = [
    ("continue", ["--override", "grid.n=64", "--override",
                  "continuation.max_points=3"], {}),
    ("sweep", ["--override", "sweep.nu_count=2", "--override",
               "sweep.p_count=1", "--override", "sweep.t_probe=5"],
     {"OSCILLON_THREADS": "1"}),
]


def _traced_counts(tmp, command, args, env_extra):
    out = os.path.join(tmp, "out")
    shutil.rmtree(out, ignore_errors=True)
    record = os.path.join(tmp, "rec.json")
    env = dict(os.environ, **env_extra)
    subprocess.run([sys.executable, os.path.join(BENCH, "launch.py"), "trace",
                    record, command, *args, "--out", out],
                   cwd=ROOT, env=env, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)
    with open(record, encoding="utf-8") as fh:
        counters = json.load(fh)["counters"]
    m = tracer.layer_metrics(tracer.load(record + ".npz"), counters)
    m["fileio.bytes"] = sum(os.path.getsize(os.path.join(out, f))
                            for f in os.listdir(out))
    return m


@pytest.mark.parametrize("command, args, env_extra", SMALL)
def test_exact_counts_repeat_across_traced_runs(tmp_path, command, args,
                                                env_extra):
    keys = ("etd.steps", "continuation.matvecs", "spectral.pad_calls",
            "fileio.bytes", "stability.labels", "sweep.probes")
    first = _traced_counts(str(tmp_path), command, args, env_extra)
    second = _traced_counts(str(tmp_path), command, args, env_extra)
    assert {k: first[k] for k in keys} == {k: second[k] for k in keys}
    assert first["etd.steps"] > 0 and first["spectral.pad_calls"] > 0


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

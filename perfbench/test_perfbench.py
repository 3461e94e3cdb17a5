"""Self-tests of the benchmark harness.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py -q

The sweep tests swap the 192-cell ``paper`` catalog for the built-in
``smoke`` one, so the whole file runs in well under a minute.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKOUT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(CHECKOUT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _spec():
    with open(os.path.join(CHECKOUT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


# -- span arithmetic ----------------------------------------------------

def test_self_time_subtracts_children_once():
    # 0: root [0, 10]; 1: child [1, 4]; 2: child [3, 6] overlaps 1;
    # 3: grandchild [2, 3] inside 1; 4: child [9, 12] runs past root.
    parent = [-1, 0, 0, 1, 0]
    start = [0.0, 1.0, 3.0, 2.0, 9.0]
    end = [10.0, 4.0, 6.0, 3.0, 12.0]
    got = tracing.self_times(parent, start, end)
    # Root: children cover [1, 6] and [9, 10] -> 6 of 10.
    assert got.tolist() == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_records_nesting_and_counts():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2, extract=float)
    outer = tracer.wrap("outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    rollup = tracing.Rollup.of(tracer)
    assert rollup.calls("inner") == 2
    assert rollup.value_sum("inner") == 14.0
    assert rollup.child_of("inner", "outer").tolist() == [False, True, True]
    assert rollup.self_sum("outer") == pytest.approx(
        rollup.total("outer") - rollup.total("inner"))
    assert rollup.outermost_total("outer", "inner") == rollup.total("outer")


def test_patcher_reaches_from_imports_and_restores():
    from repro.experiments import t3_envy
    from repro.game import nash
    original = nash.solve_nash
    tracer = tracing.Tracer()
    with tracing.traced_layers(tracer):
        assert t3_envy.solve_nash is nash.solve_nash
        assert nash.solve_nash is not original
    assert nash.solve_nash is original and t3_envy.solve_nash is original


# -- percentiles --------------------------------------------------------

def test_tail_percentile_needs_ten_beyond():
    assert workloads.tail_percentile(list(range(19))) is None
    pct, value, beyond = workloads.tail_percentile(list(range(20)))
    assert (pct, value, beyond) == (50.0, 9, 10)
    pct, value, beyond = workloads.tail_percentile(list(range(100)))
    assert (pct, value, beyond) == (90.0, 89, 10)
    pct, value, beyond = workloads.tail_percentile(list(range(1000)))
    assert (pct, value, beyond) == (99.0, 989, 10)


# -- metric names -------------------------------------------------------

def test_metric_names_are_well_formed_and_unique():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


# -- the harness end to end, on the smoke catalog -------------------------

@pytest.fixture
def smoke(tmp_path, monkeypatch):
    """A checkout-like cwd holding a worktree cache, and the smoke catalog."""
    cwd = tmp_path / "checkout"
    kernels_dir = cwd / ".greedwork_cache" / "kernels"
    kernels_dir.mkdir(parents=True)
    (kernels_dir / "gw-stale.so").write_bytes(b"not a kernel")
    monkeypatch.chdir(cwd)
    monkeypatch.setattr(workloads, "CATALOG", "smoke")
    for env in workloads.STATE_ENV:
        monkeypatch.setenv(env, "restored-after-the-test")
    return tmp_path


def _tree(path):
    return sorted((os.path.relpath(os.path.join(base, name), path),
                   os.path.getsize(os.path.join(base, name)),
                   os.path.getmtime(os.path.join(base, name)))
                  for base, _dirs, files in os.walk(path) for name in files)


def test_pass_leaves_worktree_cache_untouched(smoke):
    worktree = smoke / "checkout" / ".greedwork_cache"
    before = _tree(worktree)
    root = str(smoke / "state")
    state = workloads.setup("sweep-warm", 0, root)
    cold = workloads.run_pass("sweep-cold", 0, state, root, jobs=1)
    warm = workloads.run_pass("sweep-warm", 0, state, root)
    assert cold.digest == warm.digest
    assert warm.fresh_events == 0 and cold.fresh_events > 0
    assert _tree(worktree) == before
    assert sorted(os.listdir(smoke / "checkout")) == [".greedwork_cache"]


@pytest.mark.parametrize("workload", ["sweep-cold", "sweep-warm"])
def test_traced_run_emits_every_layer_metric(smoke, workload):
    root = str(smoke / "state")
    exact = ("numerics.", "sim.engine.events", "sim.cache.stores",
             "sweep.sources.")
    runs = []
    for _ in range(2):
        state = workloads.setup(workload, 0, root)
        out = workloads.traced(workload, 0, state, root,
                               str(smoke / "trace.npz"))
        assert out["failed"] == 0
        runs.append(out["metrics"])
    expected = {m["name"] for m in _spec()["per_layer"]}
    assert set(runs[0]) == expected
    counts = {k: v for k, v in runs[0].items() if k.startswith(exact)}
    assert counts == {k: v for k, v in runs[1].items() if k.startswith(exact)}
    assert runs[0]["numerics.objective_evals"] == 0
    cells = len(workloads.sweep_catalog(0))
    if workload == "sweep-cold":
        assert runs[0]["sim.engine.events"] > 0
        assert runs[0]["sweep.sources.fresh"] == cells
    else:
        assert runs[0]["sim.engine.events"] == 0
        assert runs[0]["sweep.sources.cache"] == workloads.REPLAYS * cells


# -- verdicts -----------------------------------------------------------

def test_only_fails_at_the_reference_seed_count(tmp_path, monkeypatch):
    class Report:
        def __init__(self, experiment_id, passed):
            self.experiment_id, self.passed = experiment_id, passed

    seeds = []

    def run_experiments(ids, seed, fast, jobs):
        seeds.append(seed)
        return [Report(i, i == "flips") for i in ids]

    monkeypatch.setattr(workloads, "run_experiments", run_experiments)
    monkeypatch.setattr(os, "environ", dict(os.environ))
    passes = [workloads.Pass(
        wall_s=1.0, raw_s=1.0, attempted=3, failed=len(failures),
        digest="d", target_met=3 - len(failures), fresh_events=0,
        cache_delta={}, cache_bytes=0, solver={}, failures=failures)
        for failures in (["broken", "flips"], ["flips"], [])]
    assert workloads.settle_verdicts(passes, str(tmp_path)) == ["flips"]
    assert seeds == [workloads.REFERENCE_SEED]
    assert [p.failures for p in passes] == [["broken"], [], []]
    assert [p.failed for p in passes] == [1, 0, 0]
    assert [p.target_met for p in passes] == [1, 2, 3]
    assert workloads.settle_verdicts(passes[1:], str(tmp_path)) == []
    assert seeds == [workloads.REFERENCE_SEED]


# -- refusals -----------------------------------------------------------

def _run(cwd, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-warm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_refuses_greedwork_override():
    env = dict(os.environ, GREEDWORK_SIM_CACHE="off")
    proc = _run(CHECKOUT, env)
    assert proc.returncode == 2
    assert proc.stdout == "" and "GREEDWORK_SIM_CACHE" in proc.stderr


def test_refuses_without_program_source(tmp_path):
    shutil.copy(os.path.join(CHECKOUT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GREEDWORK_")}
    proc = _run(tmp_path, env)
    assert proc.returncode == 2 and proc.stdout == ""

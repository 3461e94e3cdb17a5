"""Span tracer and the layer wrappers the traced run installs.

The program carries no instrumentation for this benchmark.  A traced
run wraps public functions and methods of each layer from outside:
every call records one span (name, start, end, parent) and, where the
return value carries one, a count (events simulated, Nash iterations,
ladder rungs).  Spans stay in memory as flat arrays and are rolled up
into the per-layer metrics, and written to disk, when the run ends.

A layer's *self time* is a span's duration minus the part of it that
its child spans cover, so nested calls into the same or other layers
are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

Extractor = Optional[Callable[[Any], float]]


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self._stack: List[int] = []

    def name_of(self, name: str) -> int:
        """The integer id of a span name, registering it on first use."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.value.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (the innermost open span)."""
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the ``with`` block as one span."""
        index = self.open(self.name_of(name))
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str, fn: Callable[..., Any],
             extract: Extractor = None) -> Callable[..., Any]:
        """``fn`` recording a span per call and ``extract(result)``."""
        name_id = self.name_of(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if extract is not None:
                tracer.value[index] = float(extract(result))
            return result

        return traced

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> Dict[str, np.ndarray]:
        """The spans as numpy columns."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=float),
            "end": np.frombuffer(self.end, dtype=float),
            "value": np.frombuffer(self.value, dtype=float),
        }

    def save(self, path: str) -> None:
        """Write every span to ``path`` (``.npz``; names as JSON)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(json.dumps(self.names)),
                            **self.arrays())


def self_times(parent: Sequence[int], start: Sequence[float],
               end: Sequence[float]) -> np.ndarray:
    """Per-span duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, and overlapping
    children are counted once, so the result never goes negative.
    """
    parent = np.asarray(parent, dtype=np.int64)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    covered = np.zeros(start.size)
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    current, reach = -1, 0.0
    for child in order.tolist():
        owner = int(parent[child])
        lo = max(start[child], start[owner])
        hi = min(end[child], end[owner])
        if owner != current:
            current, reach = owner, start[owner]
        lo = max(lo, reach)
        if hi > lo:
            covered[owner] += hi - lo
            reach = hi
    return end - start - covered


class Rollup:
    """Per-name aggregates over a tracer's spans."""

    def __init__(self, names: List[str],
                 cols: Dict[str, np.ndarray]) -> None:
        self.names = list(names)
        self.name_id = cols["name_id"]
        self.parent = cols["parent"]
        self.duration = cols["end"] - cols["start"]
        self.value = cols["value"]
        self.self_s = self_times(self.parent, cols["start"], cols["end"])

    @classmethod
    def of(cls, tracer: Tracer) -> "Rollup":
        """The rollup of a live tracer."""
        return cls(tracer.names, tracer.arrays())

    @classmethod
    def load(cls, path: str) -> "Rollup":
        """The rollup of a trace file written by :meth:`Tracer.save`."""
        with np.load(path) as data:
            cols = {key: data[key] for key in data.files if key != "names"}
            return cls(json.loads(str(data["names"])), cols)

    def mask(self, *names: str) -> np.ndarray:
        """Boolean mask of spans carrying any of ``names``."""
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def calls(self, *names: str) -> int:
        return int(np.count_nonzero(self.mask(*names)))

    def self_sum(self, *names: str) -> float:
        return float(self.self_s[self.mask(*names)].sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def value_sum(self, *names: str) -> float:
        return float(self.value[self.mask(*names)].sum())

    def outermost_total(self, *names: str) -> float:
        """Duration of ``names`` spans that have no ``names`` ancestor."""
        member = self.mask(*names)
        member_list = member.tolist()
        inside = [False] * len(member_list)
        # Parents always precede their children (opened first), so one
        # forward pass propagates "has a member ancestor" downwards.
        for index, owner in enumerate(self.parent.tolist()):
            if owner >= 0 and (member_list[owner] or inside[owner]):
                inside[index] = True
        outermost = member & ~np.array(inside, dtype=bool)
        return float(self.duration[outermost].sum())

    def child_of(self, child: str, owner: str) -> np.ndarray:
        """Mask of ``child`` spans whose direct parent is an ``owner``."""
        is_child = self.mask(child)
        owners = self.mask(owner)
        has_parent = self.parent >= 0
        result = np.zeros(is_child.size, dtype=bool)
        sel = is_child & has_parent
        result[sel] = owners[self.parent[sel]]
        return result


class Patcher:
    """Swaps functions and methods for traced wrappers, and back.

    A function bound elsewhere by ``from module import name`` is
    replaced in every loaded ``repro`` module that holds it, so the
    wrapper sees calls from every caller.
    """

    def __init__(self) -> None:
        self._undo: List[Callable[[], None]] = []

    def function(self, module: Any, attr: str,
                 make: Callable[[Callable[..., Any]], Callable[..., Any]]
                 ) -> None:
        original = getattr(module, attr)
        wrapped = make(original)
        for name, loaded in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            namespace = getattr(loaded, "__dict__", {})
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(loaded, key, wrapped)
                    self._undo.append(
                        functools.partial(setattr, loaded, key, original))

    def method(self, cls: type, attr: str,
               make: Callable[[Callable[..., Any]], Callable[..., Any]]
               ) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, make(original))
        self._undo.append(functools.partial(setattr, cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()


#: Span names whose time counts as solver time for ``solver.share``.
SOLVER_SPANS = ("game.best_response", "game.best_response_map",
                "game.solve_nash", "game.follower_equilibrium",
                "game.nash_mechanism", "game.find_all_nash",
                "network.congestion")

NESTED_SOLVES = ("game.follower_equilibrium", "game.nash_mechanism",
                 "game.find_all_nash")


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap the public entry points of every measured layer."""
    # Package __init__ files re-export functions under their module's
    # name (repro.game.best_response), so fetch the modules themselves.
    (best_response, nash, revelation, stackelberg, model, cache, chunked,
     runner, journal, scheduler) = [
        importlib.import_module(f"repro.{name}") for name in (
            "game.best_response", "game.nash", "game.revelation",
            "game.stackelberg", "network.model", "sim.cache",
            "sim.chunked", "sim.runner", "sweep.journal",
            "sweep.scheduler")]

    def fn(name: str, extract: Extractor = None):
        return lambda original: tracer.wrap(name, original, extract)

    patcher.function(best_response, "best_response",
                     fn("game.best_response"))
    patcher.function(best_response, "best_response_map",
                     fn("game.best_response_map"))
    patcher.function(nash, "solve_nash",
                     fn("game.solve_nash", lambda r: r.iterations))
    patcher.function(nash, "find_all_nash", fn("game.find_all_nash"))
    patcher.function(stackelberg, "follower_equilibrium",
                     fn("game.follower_equilibrium"))
    patcher.function(revelation, "nash_mechanism",
                     fn("game.nash_mechanism"))
    patcher.method(model.NetworkAllocation, "congestion",
                   fn("network.congestion"))

    patcher.function(runner, "simulate", fn("sim.simulate"))
    patcher.function(runner, "simulate_to_precision",
                     fn("sim.precision", lambda r: len(r.horizons)))
    patcher.function(runner, "control_variate_summary",
                     fn("sim.stats.cv_fit"))
    patcher.method(chunked.ChunkedSimulationEngine, "run_to",
                   fn("sim.engine.chunked", float))
    patcher.method(runner.SimulationEngine, "run_to",
                   fn("sim.engine.scalar", float))
    for attr in ("store", "store_state", "store_meta"):
        patcher.function(cache, attr, fn("sim.cache.store"))
    for attr in ("load", "peek", "load_state"):
        patcher.function(cache, attr, fn("sim.cache.read"))

    patcher.function(scheduler, "run_sweep", fn("sweep.run"))
    patcher.function(scheduler, "warm_outcome", fn("sweep.warm_probe"))
    for attr in ("write_header", "write_cell"):
        patcher.method(journal.SweepJournal, attr,
                       fn("sweep.journal.write"))


@contextmanager
def traced_layers(tracer: Tracer) -> Iterator[Tracer]:
    """Install the layer wrappers for the ``with`` block."""
    patcher = Patcher()
    try:
        install(tracer, patcher)
        yield tracer
    finally:
        patcher.restore()


def layer_metrics(rollup: Rollup, wall_s: float) -> Dict[str, float]:
    """The span-derived per-layer metrics of one traced pass."""
    kernel = rollup.mask("sim.engine.chunked")
    fallback = rollup.child_of("sim.engine.scalar", "sim.engine.chunked")
    fell_back = np.zeros(kernel.size, dtype=bool)
    fell_back[rollup.parent[fallback]] = True
    kernel &= ~fell_back
    kernel_s = float(rollup.self_s[rollup.mask("sim.engine.chunked")].sum())
    scalar_s = float(rollup.self_s[fallback].sum())
    kernel_events = float(rollup.value[kernel].sum())
    scalar_events = float(rollup.value[fallback].sum())
    events = kernel_events + scalar_events
    return {
        "game.best_response.calls": rollup.calls("game.best_response"),
        "game.best_response.self_s": rollup.self_sum("game.best_response"),
        "game.best_response_map.calls":
            rollup.calls("game.best_response_map"),
        "game.solve_nash.calls": rollup.calls("game.solve_nash"),
        "game.solve_nash.iterations": rollup.value_sum("game.solve_nash"),
        "game.nested_solves": rollup.calls(*NESTED_SOLVES),
        "network.congestion.calls": rollup.calls("network.congestion"),
        "network.congestion.self_s": rollup.self_sum("network.congestion"),
        "solver.share": (rollup.outermost_total(*SOLVER_SPANS) / wall_s
                         if wall_s > 0 else 0.0),
        "sim.engine.events": events,
        "sim.engine.kernel.self_s": kernel_s,
        "sim.engine.scalar.self_s": scalar_s,
        "sim.engine.scalar_frac": scalar_events / events if events else 0.0,
        "sim.engine.kernel.events_per_s":
            kernel_events / kernel_s if kernel_s > 0 else 0.0,
        "sim.engine.scalar.events_per_s":
            scalar_events / scalar_s if scalar_s > 0 else 0.0,
        "sim.precision.calls": rollup.calls("sim.precision"),
        "sim.precision.rungs": rollup.value_sum("sim.precision"),
        "sim.stats.cv_fit.calls": rollup.calls("sim.stats.cv_fit"),
        "sim.stats.cv_fit.self_s": rollup.self_sum("sim.stats.cv_fit"),
        "sim.cache.store.self_s": rollup.self_sum("sim.cache.store"),
        "sim.cache.read.self_s": rollup.self_sum("sim.cache.read"),
        "sweep.warm_probe.self_s": rollup.self_sum("sweep.warm_probe"),
        "sweep.journal.write.self_s": rollup.self_sum("sweep.journal.write"),
        "sweep.report.s": rollup.total("sweep.report"),
    }


def main(argv: Sequence[str]) -> int:
    """Print a trace file's spans grouped by name, most self time first."""
    rollup = Rollup.load(argv[0])
    print(f"{'span':<34} {'calls':>9} {'total_s':>10} {'self_s':>10} "
          f"{'count':>12}")
    rows = [(name, rollup.calls(name), rollup.total(name),
             rollup.self_sum(name), rollup.value_sum(name))
            for name in rollup.names]
    for name, calls, total, own, value in sorted(rows, key=lambda r: -r[3]):
        print(f"{name:<34} {calls:>9} {total:>10.3f} {own:>10.3f} "
              f"{value:>12.0f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

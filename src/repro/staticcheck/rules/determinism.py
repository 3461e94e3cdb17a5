"""GW5xx — determinism rules for the event-engine and solver layers.

The reproduction's verdicts (Shenker's envy/Nash tables, the DES
goldens) are only evidence if re-running the pipeline is bit-identical.
Two bug classes silently break that: RNG draws that slip past the
``VariateStream`` draw-order contract (breaking CRN pairing across
policies), and iteration-order or wall-clock nondeterminism feeding
numeric results.  Both are invisible to tests that only run once.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.staticcheck.core import FileContext, Finding, Rule, \
    register_rule

#: Inter-event-time draws: these define the simulation's event order
#: and must flow through ``VariateStream`` (repro.sim.arrivals).
_TRAFFIC_DRAWS = frozenset({"exponential", "poisson"})

#: Any numpy ``Generator`` draw method: consuming one of these from a
#: shared generator inside a per-user loop couples users' streams.
_GENERATOR_DRAWS = _TRAFFIC_DRAWS | frozenset({
    "random", "uniform", "normal", "standard_normal",
    "standard_exponential", "integers", "choice", "shuffle",
    "permutation", "dirichlet",
})

#: Modules where the draw-order contract is in force.  The arrivals
#: module is the contract's home (VariateStream itself draws there).
_ENGINE_PREFIXES = ("repro.sim.", "repro.network.")
_CONTRACT_HOME = "repro.sim.arrivals"

#: Layers whose outputs feed goldens/tables and must be order- and
#: clock-independent.  Presentation layers (experiments, cli) may
#: read the clock for progress reporting.
_NUMERIC_PREFIXES = ("repro.sim.", "repro.game.", "repro.numerics.",
                     "repro.network.", "repro.queueing.")

_WALL_CLOCK = frozenset({
    "time.time", "time.perf_counter", "time.monotonic",
    "time.process_time", "time.time_ns", "time.perf_counter_ns",
    "datetime.now", "datetime.datetime.now", "datetime.utcnow",
    "datetime.datetime.utcnow",
})

_UNSORTED_LISTINGS = frozenset({
    "listdir", "scandir", "iterdir", "glob", "rglob",
})

_AGGREGATORS = frozenset({"sum", "min", "max", "sorted", "list",
                          "tuple"})
#: Aggregators whose output is order-sensitive even over exact values
#: (float addition is not associative); ``min``/``max``/``sorted``
#: are order-insensitive and excluded.
_ORDER_SENSITIVE = frozenset({"sum", "list", "tuple"})


def _in_scope(module: Optional[str], prefixes: Tuple[str, ...]) -> bool:
    if module is None:
        return False
    return any(module.startswith(p) or module == p.rstrip(".")
               for p in prefixes)


def _call_dotted(node: ast.Call) -> str:
    parts: List[str] = []
    cursor = node.func
    while isinstance(cursor, ast.Attribute):
        parts.append(cursor.attr)
        cursor = cursor.value
    if isinstance(cursor, ast.Name):
        parts.append(cursor.id)
        return ".".join(reversed(parts))
    return ""


def _is_set_expression(node: ast.AST) -> bool:
    """Whether iterating ``node`` walks a hash-ordered ``set``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        dotted = _call_dotted(node)
        if dotted in ("set", "frozenset"):
            return True
        last = dotted.split(".")[-1]
        if last in ("union", "intersection", "difference",
                    "symmetric_difference"):
            return True
    return False


@register_rule
class VariateContractRule(Rule):
    """Engine-layer RNG draws must honor VariateStream (GW501).

    Rationale:
        CRN pairing holds only because *every* inter-event time in the
        engine layer flows through ``VariateStream`` in a draw order
        fixed by the arrival sequence.  A direct
        ``Generator.exponential`` call, or any draw from a shared
        generator inside a per-user loop, consumes variates in an
        order that depends on incidental control flow — paired runs
        silently decorrelate and variance-reduction claims go wrong.

    Example::

        # inside repro/sim/myengine.py
        def service_times(rng, users):
            return [rng.exponential(1.0 / mu) for mu in users]

    Fix:
        Draw through a per-purpose ``VariateStream`` (one stream per
        user, spawned from the config seed) so draw order is pinned.
        Decision draws (``random``/``integers`` outside loops, e.g.
        tie-breaking on a dedicated ``policy_rng``) are allowed.  A
        legacy engine with its own pinned draw order may suppress with
        a reason: ``# greedwork: ignore[GW501] -- <why>``.
    """

    rule_id = "GW501"
    name = "variate-stream-contract"
    description = ("inter-event-time draws in sim/network engine "
                   "modules must flow through VariateStream; shared-"
                   "generator draws inside per-user loops break CRN "
                   "pairing")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None \
                or not _in_scope(ctx.module, _ENGINE_PREFIXES) \
                or ctx.module == _CONTRACT_HOME:
            return
        loop_draws = self._loop_draws(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) \
                    or not isinstance(node.func, ast.Attribute):
                continue
            method = node.func.attr
            if method in _TRAFFIC_DRAWS:
                yield self.finding(
                    ctx, node,
                    f"direct Generator.{method} draw bypasses the "
                    f"VariateStream draw-order contract; CRN pairing "
                    f"cannot see it")
            elif method in _GENERATOR_DRAWS and id(node) in loop_draws:
                yield self.finding(
                    ctx, node,
                    f"Generator.{method} draw from a shared generator "
                    f"inside a loop: draw order depends on iteration "
                    f"count, breaking CRN pairing")

    @staticmethod
    def _loop_draws(tree: ast.Module) -> Set[int]:
        """ids of Call nodes that sit inside a loop body."""
        out: Set[int] = set()
        loops: List[ast.AST] = [
            node for node in ast.walk(tree)
            if isinstance(node, (ast.For, ast.While, ast.ListComp,
                                 ast.SetComp, ast.DictComp,
                                 ast.GeneratorExp))]
        for loop in loops:
            bodies: List[ast.AST]
            if isinstance(loop, (ast.For, ast.While)):
                bodies = list(loop.body)
            else:
                bodies = [loop.elt] if hasattr(loop, "elt") else []
                if isinstance(loop, ast.DictComp):
                    bodies = [loop.key, loop.value]
            for body in bodies:
                for sub in ast.walk(body):
                    if isinstance(sub, ast.Call):
                        out.add(id(sub))
        return out


#: Heap operations that advance a discrete-event loop one event at a
#: time (either the bare name or the last attribute segment).
@register_rule
class OrderedAggregationRule(Rule):
    """No hash-order or wall-clock inputs to numerics (GW502).

    Rationale:
        ``set`` iteration order depends on ``PYTHONHASHSEED`` for
        strings, float addition is not associative, and the wall clock
        differs every run — any of these feeding a numeric result
        makes two "identical" runs disagree in the last bits, which is
        exactly what the bit-identical goldens exist to catch.
        Directory listings (``os.listdir``, ``Path.glob``) come back
        in filesystem order, which differs across machines.

    Example::

        total = sum(weights[u] for u in {"a", "b", "c"})
        for path in root.glob("*.json"):   # filesystem order
            merge(path)

    Fix:
        Iterate ``sorted(the_set)``; wrap listings in ``sorted(...)``;
        keep wall-clock reads out of ``sim``/``game``/``numerics``/
        ``network``/``queueing`` (report timing in the presentation
        layer, or suppress with a reason when the timing value never
        reaches a numeric result):
        ``# greedwork: ignore[GW502] -- <why>``.
    """

    rule_id = "GW502"
    name = "order-determinism"
    description = ("set-iteration aggregation into numbers, unsorted "
                   "directory listings, and wall-clock reads in the "
                   "numeric layers are run-to-run nondeterministic")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None \
                or not _in_scope(ctx.module, _NUMERIC_PREFIXES):
            return
        parents = self._parent_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                yield from self._check_aggregation(ctx, node)
                yield from self._check_listing(ctx, node, parents)
                yield from self._check_clock(ctx, node)
            elif isinstance(node, ast.For) \
                    and _is_set_expression(node.iter) \
                    and self._accumulates(node):
                yield self.finding(
                    ctx, node.iter,
                    "loop accumulates over set-iteration order; "
                    "float accumulation order follows the hash seed")

    def _check_aggregation(self, ctx: FileContext,
                           node: ast.Call) -> Iterable[Finding]:
        dotted = _call_dotted(node)
        if dotted not in _ORDER_SENSITIVE:
            return
        for arg in node.args:
            iterable: Optional[ast.AST] = None
            if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                iterable = arg.generators[0].iter
            elif _is_set_expression(arg):
                iterable = arg
            if iterable is not None and _is_set_expression(iterable):
                yield self.finding(
                    ctx, node,
                    f"{dotted}() over set-iteration order is "
                    f"nondeterministic across runs; iterate "
                    f"sorted(...) instead")

    def _check_listing(self, ctx: FileContext, node: ast.Call,
                       parents: Dict[int, ast.AST]
                       ) -> Iterable[Finding]:
        dotted = _call_dotted(node)
        if not dotted or dotted.split(".")[-1] not in _UNSORTED_LISTINGS:
            return
        parent = parents.get(id(node))
        if isinstance(parent, ast.Call) \
                and isinstance(parent.func, ast.Name) \
                and parent.func.id == "sorted":
            return
        yield self.finding(
            ctx, node,
            f"{dotted.split('.')[-1]}() returns entries in "
            f"filesystem order; wrap in sorted(...) before use")

    def _check_clock(self, ctx: FileContext,
                     node: ast.Call) -> Iterable[Finding]:
        dotted = _call_dotted(node)
        if dotted in _WALL_CLOCK:
            yield self.finding(
                ctx, node,
                f"wall-clock read ({dotted}) in a numeric layer; "
                f"timing belongs in the presentation layer")

    @staticmethod
    def _accumulates(loop: ast.For) -> bool:
        for sub in ast.walk(loop):
            if isinstance(sub, ast.AugAssign) \
                    and isinstance(sub.op, (ast.Add, ast.Sub,
                                            ast.Mult)):
                return True
        return False

    @staticmethod
    def _parent_map(tree: ast.Module) -> Dict[int, ast.AST]:
        parents: Dict[int, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        return parents

"""GW004 — float-equality lint.

Exact ``==``/``!=`` between floating-point expressions is almost
always a latent bug in numerical code: it encodes an implicit
zero-tolerance that nobody reviewed.  This rule flags comparisons
where either side is *statically float-valued*:

* a float literal (``x == 0.0``);
* arithmetic over a float literal (``y != 1.0 - rho``);
* a ``float(...)`` / ``math.sqrt(...)``-style call;

and directs them through :mod:`repro.numerics.tolerances`
(``isclose``/``is_zero`` or a named ATOL/RTOL constant).

Comparisons against ``math.inf``/``np.inf``/``nan`` checks are *not*
flagged — equality with infinities is exact, and NaN handling has its
own idioms (``math.isnan``).  Chained comparisons are examined
pairwise.

Only ``repro.*`` modules are in scope.  Tests, benchmarks and examples
compare floats exactly on purpose: a pinned golden or an exact
closed-form value *is* the contract under test there.
"""

from __future__ import annotations

import ast
import math
from typing import Iterable

from repro.staticcheck.core import FileContext, Finding, Rule, register_rule

_FLOAT_CALLS = frozenset({"float"})
_MATH_FLOAT_FNS = frozenset({
    "sqrt", "exp", "log", "log2", "log10", "sin", "cos", "tan",
    "atan", "asin", "acos", "hypot", "pow", "fabs", "floor", "ceil",
    "fsum", "copysign", "expm1", "log1p",
})
_INF_NAMES = frozenset({"inf", "nan", "infty"})


def _is_infinite_literal(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return math.isinf(node.value) or math.isnan(node.value)
    if isinstance(node, ast.Attribute) and node.attr in _INF_NAMES:
        return True
    if isinstance(node, ast.Name) and node.id in _INF_NAMES:
        return True
    if isinstance(node, ast.UnaryOp):
        return _is_infinite_literal(node.operand)
    if isinstance(node, ast.Call):
        # float("inf") / float("-inf") / float("nan")
        if isinstance(node.func, ast.Name) and node.func.id == "float" \
                and len(node.args) == 1 \
                and isinstance(node.args[0], ast.Constant) \
                and isinstance(node.args[0].value, str):
            return True
    return False


def _is_floatish(node: ast.expr) -> bool:
    """Statically float-valued, excluding infinities and NaN."""
    if _is_infinite_literal(node):
        return False
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name):
            return node.func.id in _FLOAT_CALLS
        if isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) \
                and node.func.value.id in ("math", "np", "numpy"):
            return node.func.attr in _MATH_FLOAT_FNS
    return False


@register_rule
class FloatEqualityRule(Rule):
    """Flag exact ==/!= against float-valued expressions (GW004)."""

    rule_id = "GW004"
    name = "float-equality"
    description = ("== / != against float expressions in repro modules "
                   "must go through repro.numerics.tolerances "
                   "(isclose/is_zero or a named tolerance constant)")

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.tree is None or ctx.module is None \
                or not ctx.module.startswith("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands,
                                       operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_floatish(left) or _is_floatish(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    yield self.finding(
                        ctx, node,
                        f"exact float {symbol} comparison; use "
                        f"repro.numerics.tolerances (isclose/is_zero "
                        f"or a named tolerance)")

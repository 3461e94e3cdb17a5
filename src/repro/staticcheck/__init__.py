"""`greedwork check`: the repo-native static-analysis suite.

The paper's guarantees (efficiency, uniqueness, protection) hold only
when the allocation function obeys structural contracts; analogously,
the reproduction's guarantees (reproducible experiments, a layered
architecture, a uniform discipline interface, numerical safety near
the ``g(x) = x/(1-x)`` pole) hold only when the *code* obeys contracts
that ordinary linters do not know about.  This package enforces them
mechanically, with per-file rules plus whole-program rules that see
the full :class:`~repro.staticcheck.project.ProjectContext` (symbol
table, import graph, approximate call graph):

``GW001``  layer-DAG enforcement — imports must flow down the
           architecture (`numerics/queueing` → `costsharing/
           disciplines/users` → `game/sim/network` →
           `analysis/experiments` → `cli`).
``GW002``  discipline-contract conformance — everything registered in
           ``repro.disciplines.registry`` must statically implement
           the :class:`~repro.disciplines.base.AllocationFunction`
           surface and be constructible by its registered factory.
``GW003``  RNG discipline — no stdlib ``random``, no legacy
           ``np.random.*`` global state, no raw
           ``np.random.default_rng``; randomness enters through
           ``Generator`` parameters or :func:`repro.numerics.default_rng`.
``GW004``  float equality — ``==``/``!=`` against float expressions
           in repro modules must go through
           :mod:`repro.numerics.tolerances`.
``GW005``  hygiene — mutable default arguments and shadowed builtins.
``GW201``  division by ``1 - x`` requires a dominating feasibility
           guard on every path (the M/M/1 pole at ``x -> 1``).
``GW202``  ``log``/``sqrt`` of possibly-negative subtractions require
           a guard or an explicit ``abs``/``clip`` wrapper.
``GW301``  public functions/classes must be referenced by some other
           module, test, or experiment (whole-program).
``GW302``  registered disciplines must keep their allocation methods
           pure — no writes to module-level state (whole-program).

Findings are suppressible per line with ``# greedwork: ignore[GW00x]``
(comma-separate several ids; a bare ``ignore`` or ``ignore[*]``
silences every rule for that line; a comment-only pragma covers the
next statement line).  Runs are incremental (content-hash cache under
``.greedwork_cache/``), parallelizable (``--jobs``), baseline-aware
(``--baseline``/``--update-baseline``), and exportable as SARIF 2.1.0
for GitHub code scanning (``--format sarif``).  Run it as
``greedwork check`` or programmatically via :func:`run_checks`.
"""

from repro.staticcheck.baseline import (
    DEFAULT_BASELINE_NAME,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.staticcheck.cache import (
    CACHE_DIR_NAME,
    CheckCache,
    engine_signature,
    file_digest,
)
from repro.staticcheck.core import (
    CheckResult,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    get_rule,
    register_rule,
    select_rules,
)
from repro.staticcheck.project import ModuleInfo, ProjectContext, Symbol
from repro.staticcheck.reporters import (
    render_json,
    render_sarif,
    render_stats,
    render_text,
)
from repro.staticcheck.runner import (
    CheckUsageError,
    collect_files,
    run_checks,
)

__all__ = [
    "CACHE_DIR_NAME",
    "CheckCache",
    "CheckResult",
    "CheckUsageError",
    "DEFAULT_BASELINE_NAME",
    "FileContext",
    "Finding",
    "ModuleInfo",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Symbol",
    "all_rules",
    "apply_baseline",
    "collect_files",
    "engine_signature",
    "file_digest",
    "get_rule",
    "load_baseline",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_stats",
    "render_text",
    "run_checks",
    "select_rules",
    "write_baseline",
]

"""The static-analysis suite: per-rule fixtures and the repo self-check.

Each rule gets three fixtures: code that must pass, code that must fail
(with the right rule id and location), and the same failing code made
clean by a ``# greedwork: ignore[...]`` pragma.  A final test runs the
full suite over the real ``src/`` tree and asserts it is clean — the
same gate CI applies via ``greedwork check``.
"""

import io
import json
import re
import textwrap
import tokenize
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.staticcheck import (
    CheckUsageError,
    FileContext,
    all_rules,
    collect_files,
    get_rule,
    load_baseline,
    render_sarif,
    run_checks,
    select_rules,
    write_baseline,
)
from repro.staticcheck.core import ALL_RULES, module_name_for
from repro.staticcheck.rules.layers import package_of

REPO_ROOT = Path(__file__).resolve().parent.parent
REPO_SRC = REPO_ROOT / "src"
REPO_TESTS = REPO_ROOT / "tests"
SARIF_SUBSET_SCHEMA = (Path(__file__).resolve().parent / "data"
                       / "sarif-2.1.0-subset.json")

ALL_RULE_IDS = [
    "GW001", "GW002", "GW003", "GW004", "GW005",
    "GW201", "GW202",
    "GW301", "GW302",
    "GW401", "GW402", "GW403",
    "GW501", "GW502",
    "GW601", "GW602", "GW604",
]


def write_module(root: Path, relpath: str, source: str) -> Path:
    """Write a dedented module (and parents) under ``root``."""
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def findings_for(path: Path, rule_id: str, root=None):
    result = run_checks([path], rules=[get_rule(rule_id)],
                        project_root=root)
    return result


class TestFramework:
    def test_all_rules_registered(self):
        ids = [rule.rule_id for rule in all_rules()]
        assert ids == ALL_RULE_IDS

    def test_unknown_rule_id(self):
        with pytest.raises(KeyError):
            get_rule("GW999")

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = write_module(tmp_path, "broken.py", "def f(:\n")
        result = run_checks([bad])
        assert len(result.findings) == 1
        assert result.findings[0].rule_id == "GW000"

    def test_suppression_comma_list_and_star(self, tmp_path):
        source = """\
            import numpy as np
            rng = np.random.default_rng(3)  # greedwork: ignore[GW003, GW004]
            x = np.random.default_rng(4)  # greedwork: ignore[*]
            y = np.random.default_rng(5)  # greedwork: ignore
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 3

    def test_standalone_pragma_covers_next_line(self, tmp_path):
        source = """\
            import numpy as np
            # greedwork: ignore[GW003]
            rng = np.random.default_rng(3)
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_wrong_rule_id_does_not_suppress(self, tmp_path):
        source = """\
            import numpy as np
            rng = np.random.default_rng(3)  # greedwork: ignore[GW004]
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert len(result.findings) == 1

    def test_standalone_pragma_skips_blank_and_comment_lines(self, tmp_path):
        source = """\
            import numpy as np

            # greedwork: ignore[GW003] -- module-level demo generator
            # (reused by every helper below, seeded for reproducibility)

            rng = np.random.default_rng(3)
        """
        path = write_module(tmp_path, "mod.py", source)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_unparseable_file_context_is_usable(self, tmp_path):
        path = tmp_path / "broken.py"
        source = "def f(:\n    pass\n"
        path.write_text(source)
        ctx = FileContext(path, source)
        assert ctx.tree is None
        assert isinstance(ctx.parse_error, SyntaxError)
        assert ctx.suppressed_ids(1) == frozenset()

    def test_broken_file_does_not_abort_the_run(self, tmp_path):
        write_module(tmp_path, "broken.py", "def f(:\n")
        write_module(tmp_path, "bad.py", "import random\n")
        result = run_checks([tmp_path])
        assert sorted(f.rule_id for f in result.findings) == \
            ["GW000", "GW003"]
        assert result.files_checked == 2

    def test_collect_files_missing_path_errors(self, tmp_path):
        with pytest.raises(CheckUsageError, match="no such file"):
            collect_files([tmp_path / "nope.py"])

    def test_collect_files_rejects_non_python(self, tmp_path):
        notes = tmp_path / "notes.txt"
        notes.write_text("hello\n")
        with pytest.raises(CheckUsageError,
                           match="unsupported file type"):
            collect_files([notes])

    def test_select_rules_by_family_prefix(self):
        rules = select_rules(all_rules(), select=["GW4"])
        assert [r.rule_id for r in rules] == ["GW401", "GW402", "GW403"]

    def test_select_rules_normalizes_family_suffix(self):
        rules = select_rules(all_rules(), select=["GW2xx"])
        assert [r.rule_id for r in rules] == ["GW201", "GW202"]

    def test_select_rules_ignore_wins(self):
        rules = select_rules(all_rules(), select=["GW4"],
                             ignore=["GW402"])
        assert [r.rule_id for r in rules] == ["GW401", "GW403"]

    def test_select_rules_unknown_selector_raises(self):
        with pytest.raises(KeyError):
            select_rules(all_rules(), select=["GW9"])

    def test_module_name_for_maps_repro_paths(self):
        assert module_name_for(
            Path("/tmp/tree/src/repro/game/nash.py")) == "repro.game.nash"
        assert module_name_for(
            Path("/tmp/tree/src/repro/game/__init__.py")) == "repro.game"
        assert module_name_for(Path("/tmp/elsewhere/mod.py")) is None

    def test_package_of_layers(self):
        assert package_of("repro.queueing.mm1") == "queueing"
        assert package_of("repro.cli") == "cli"
        assert package_of("repro") == "<root>"
        assert package_of("numpy.linalg") is None


class TestLayerDAG:
    """GW001."""

    def test_downward_import_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/thing.py", """\
            from repro.numerics.diff import gradient
            from repro.disciplines.base import AllocationFunction
            from repro.users.utility import Utility
        """)
        assert findings_for(path, "GW001").findings == []

    def test_upward_import_fails_with_location(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad.py", """\
            import math

            from repro.experiments.base import Table
        """)
        result = findings_for(path, "GW001", root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert finding.rule_id == "GW001"
        assert finding.line == 3
        assert finding.path.endswith("src/repro/queueing/bad.py")
        assert "experiments" in finding.message

    def test_undeclared_same_layer_edge_fails(self, tmp_path):
        # sim -> network is not a declared intra-layer edge
        # (network -> sim is).
        path = write_module(tmp_path, "src/repro/sim/bad.py", """\
            from repro.network.model import Network
        """)
        result = findings_for(path, "GW001")
        assert len(result.findings) == 1

    def test_declared_same_layer_edge_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/network/ok.py", """\
            from repro.sim.packet import Packet
        """)
        assert findings_for(path, "GW001").findings == []

    def test_relative_import_resolved(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad2.py", """\
            from ..experiments import base
        """)
        result = findings_for(path, "GW001")
        assert len(result.findings) == 1
        assert "experiments" in result.findings[0].message

    def test_unknown_package_is_rejected(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad3.py", """\
            from repro.shinynewpkg.core import thing
        """)
        result = findings_for(path, "GW001")
        assert len(result.findings) == 1

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/hmm.py", """\
            from repro.experiments.base import Table  # greedwork: ignore[GW001]
        """)
        result = findings_for(path, "GW001")
        assert result.findings == []
        assert len(result.suppressed) == 1


GOOD_DISCIPLINE = """\
    import numpy as np

    from repro.disciplines.base import AllocationFunction


    class NiceAllocation(AllocationFunction):
        name = "nice"

        def __init__(self, curve=None, bias: float = 0.0) -> None:
            super().__init__(curve)
            self.bias = bias

        def congestion(self, rates):
            return np.asarray(rates, dtype=float)
"""

BASE_STUB = """\
    from abc import ABC, abstractmethod


    class AllocationFunction(ABC):
        name: str = "allocation"

        @abstractmethod
        def congestion(self, rates):
            ...
"""


class TestDisciplineContract:
    """GW002."""

    def _tree(self, tmp_path, registry_src, discipline_src=GOOD_DISCIPLINE):
        write_module(tmp_path, "src/repro/disciplines/base.py", BASE_STUB)
        write_module(tmp_path, "src/repro/disciplines/nice.py",
                     discipline_src)
        return write_module(tmp_path, "src/repro/disciplines/registry.py",
                            registry_src)

    def test_conforming_registry_passes(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {
                "nice": NiceAllocation,
                "biased": lambda: NiceAllocation(bias=0.5),
            }
        """)
        assert findings_for(registry, "GW002").findings == []

    def test_unresolvable_name_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            _FACTORIES = {"ghost": GhostAllocation}
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "cannot resolve" in result.findings[0].message

    def test_missing_congestion_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                name = "nice"
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "congestion" in result.findings[0].message

    def test_wrong_congestion_signature_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                name = "nice"

                def congestion(self, rates, extra):
                    return rates
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "exactly one required parameter" in \
            result.findings[0].message

    def test_not_subclassing_base_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            class NiceAllocation:
                name = "nice"

                def congestion(self, rates):
                    return rates
        """)
        result = findings_for(registry, "GW002")
        assert any("subclass" in f.message for f in result.findings)

    def test_required_init_param_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                name = "nice"

                def __init__(self, gamma):
                    self.gamma = gamma

                def congestion(self, rates):
                    return rates
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "zero-argument" in result.findings[0].message

    def test_lambda_with_unknown_kwarg_fails(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {
                "odd": lambda: NiceAllocation(nonexistent=1),
            }
        """)
        result = findings_for(registry, "GW002")
        assert len(result.findings) == 1
        assert "no parameter 'nonexistent'" in result.findings[0].message

    def test_instance_name_attribute_accepted(self, tmp_path):
        registry = self._tree(tmp_path, """\
            from repro.disciplines.nice import NiceAllocation

            _FACTORIES = {"nice": NiceAllocation}
        """, discipline_src="""\
            from repro.disciplines.base import AllocationFunction


            class NiceAllocation(AllocationFunction):
                def __init__(self, flip: bool = True) -> None:
                    self.name = "nice-up" if flip else "nice-down"

                def congestion(self, rates):
                    return rates
        """)
        assert findings_for(registry, "GW002").findings == []

    def test_suppressible(self, tmp_path):
        registry = self._tree(tmp_path, """\
            _FACTORIES = {
                "ghost": GhostAllocation,  # greedwork: ignore[GW002]
            }
        """)
        result = findings_for(registry, "GW002")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_real_registry_conforms(self):
        registry = REPO_SRC / "repro" / "disciplines" / "registry.py"
        result = findings_for(registry, "GW002")
        assert result.findings == []


class TestRNGDiscipline:
    """GW003."""

    def test_generator_parameter_passes(self, tmp_path):
        path = write_module(tmp_path, "ok.py", """\
            import numpy as np

            from repro.numerics.rng import default_rng


            def sample(n, rng=None):
                generator = default_rng(rng if rng is not None else 7)
                return generator.uniform(size=n)
        """)
        assert findings_for(path, "GW003").findings == []

    def test_stdlib_random_fails(self, tmp_path):
        path = write_module(tmp_path, "bad.py", """\
            import random
        """)
        result = findings_for(path, "GW003")
        assert len(result.findings) == 1
        assert result.findings[0].line == 1
        assert "stdlib" in result.findings[0].message

    def test_from_random_import_fails(self, tmp_path):
        path = write_module(tmp_path, "bad2.py", """\
            from random import shuffle
        """)
        assert len(findings_for(path, "GW003").findings) == 1

    def test_legacy_global_state_fails(self, tmp_path):
        path = write_module(tmp_path, "bad3.py", """\
            import numpy as np

            np.random.seed(42)
            x = np.random.uniform(0, 1, 10)
        """)
        result = findings_for(path, "GW003")
        assert [f.line for f in result.findings] == [3, 4]
        assert all(f.rule_id == "GW003" for f in result.findings)

    def test_raw_default_rng_fails_even_with_variable_seed(self, tmp_path):
        path = write_module(tmp_path, "bad4.py", """\
            import numpy as np


            def run(seed):
                return np.random.default_rng(seed)
        """)
        result = findings_for(path, "GW003")
        assert len(result.findings) == 1
        assert "repro.numerics.default_rng" in result.findings[0].message

    def test_aliased_numpy_detected(self, tmp_path):
        path = write_module(tmp_path, "bad5.py", """\
            import numpy as xyz

            rng = xyz.random.default_rng(0)
        """)
        assert len(findings_for(path, "GW003").findings) == 1

    def test_bare_default_rng_import_detected(self, tmp_path):
        path = write_module(tmp_path, "bad6.py", """\
            from numpy.random import default_rng

            rng = default_rng(0)
        """)
        assert len(findings_for(path, "GW003").findings) == 1

    def test_generator_annotation_not_flagged(self, tmp_path):
        path = write_module(tmp_path, "ok2.py", """\
            from typing import Optional

            import numpy as np


            def sample(rng: Optional[np.random.Generator] = None):
                return rng
        """)
        assert findings_for(path, "GW003").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "meh.py", """\
            import numpy as np

            rng = np.random.default_rng(0)  # greedwork: ignore[GW003]
        """)
        result = findings_for(path, "GW003")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestFloatEquality:
    """GW004 — fixtures live under ``src/repro/`` (the rule is gated
    on ``repro.*`` modules)."""

    def test_isclose_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/ok.py", """\
            import math

            from repro.numerics.tolerances import is_zero, isclose


            def near(a, b):
                return isclose(a, b) and not is_zero(a)
        """)
        assert findings_for(path, "GW004").findings == []

    def test_float_literal_equality_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/bad.py", """\
            def f(total):
                if total == 0.0:
                    return None
                return total != 1.0
        """)
        result = findings_for(path, "GW004")
        assert [f.line for f in result.findings] == [2, 4]
        assert all(f.rule_id == "GW004" for f in result.findings)

    def test_arithmetic_over_float_literal_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/bad2.py", """\
            def f(rho, x):
                return x == 1.0 - rho
        """)
        assert len(findings_for(path, "GW004").findings) == 1

    def test_float_call_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/bad3.py", """\
            def f(x, y):
                return float(x) == y
        """)
        assert len(findings_for(path, "GW004").findings) == 1

    def test_infinity_comparison_allowed(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/ok2.py", """\
            import math


            def f(x):
                return x == math.inf or x == float("inf")
        """)
        assert findings_for(path, "GW004").findings == []

    def test_integer_equality_allowed(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/ok3.py", """\
            def f(n):
                return n == 0 or n != 10
        """)
        assert findings_for(path, "GW004").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/analysis/meh.py", """\
            def f(total):
                return total == 0.0  # greedwork: ignore[GW004]
        """)
        result = findings_for(path, "GW004")
        assert result.findings == []
        assert len(result.suppressed) == 1

    def test_non_repro_module_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "tests/test_golden.py", """\
            def test_pinned():
                assert 0.5 + 0.25 == 0.75
        """)
        assert findings_for(path, "GW004").findings == []


class TestHygiene:
    """GW005."""

    def test_clean_function_passes(self, tmp_path):
        path = write_module(tmp_path, "ok.py", """\
            def accumulate(values, history=None):
                history = history if history is not None else []
                history.extend(values)
                return history
        """)
        assert findings_for(path, "GW005").findings == []

    def test_mutable_default_fails(self, tmp_path):
        path = write_module(tmp_path, "bad.py", """\
            def accumulate(values, history=[], table={}):
                return history
        """)
        result = findings_for(path, "GW005")
        assert len(result.findings) == 2
        assert all(f.rule_id == "GW005" for f in result.findings)
        assert all(f.line == 1 for f in result.findings)

    def test_mutable_call_default_fails(self, tmp_path):
        path = write_module(tmp_path, "bad2.py", """\
            def f(cache=dict()):
                return cache
        """)
        assert len(findings_for(path, "GW005").findings) == 1

    def test_shadowed_builtin_param_fails(self, tmp_path):
        path = write_module(tmp_path, "bad3.py", """\
            def f(list, type):
                return list, type
        """)
        assert len(findings_for(path, "GW005").findings) == 2

    def test_shadowed_builtin_assignment_fails(self, tmp_path):
        path = write_module(tmp_path, "bad4.py", """\
            sum = 3
        """)
        result = findings_for(path, "GW005")
        assert len(result.findings) == 1
        assert "'sum'" in result.findings[0].message

    def test_shadowed_builtin_loop_var_fails(self, tmp_path):
        path = write_module(tmp_path, "bad5.py", """\
            for id in range(4):
                print(id)
        """)
        assert len(findings_for(path, "GW005").findings) == 1

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "meh.py", """\
            def f(cache={}):  # greedwork: ignore[GW005]
                return cache
        """)
        result = findings_for(path, "GW005")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestPoleDivision:
    """GW201 — the g(x) = x/(1-x) pole."""

    def test_unguarded_division_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad.py", """\
            def g(load):
                return load / (1.0 - load)
        """)
        result = findings_for(path, "GW201")
        assert len(result.findings) == 1
        assert "1 - x" in result.findings[0].message
        assert "load" in result.findings[0].message

    def test_terminating_guard_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok.py", """\
            import math


            def g(load):
                if load >= 1.0:
                    return math.inf
                return load / (1.0 - load)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_assert_guard_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok2.py", """\
            def g(load):
                assert load < 1.0
                return load / (1.0 - load)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_guard_call_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok3.py", """\
            from repro.queueing.mm1 import require_stable


            def g(load):
                require_stable(load)
                return load / (1.0 - load)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_enclosing_conditional_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok4.py", """\
            import math


            def g(load):
                return load / (1.0 - load) if load < 1.0 else math.inf
        """)
        assert findings_for(path, "GW201").findings == []

    def test_vectorized_mask_guard_passes(self, tmp_path):
        # ``stable = loads < 1.0`` is the canonical numpy guard: the
        # mask binding dominates the masked division below it.
        path = write_module(tmp_path, "src/repro/queueing/ok5.py", """\
            import numpy as np


            def g(loads):
                stable = loads < 1.0
                out = np.full(loads.shape, np.inf)
                out[stable] = loads[stable] / (1.0 - loads[stable])
                return out
        """)
        assert findings_for(path, "GW201").findings == []

    def test_alias_through_assignment_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad2.py", """\
            def g(load):
                headroom = 1.0 - load
                return load / headroom
        """)
        result = findings_for(path, "GW201")
        assert len(result.findings) == 1
        assert result.findings[0].line == 3

    def test_guard_on_upstream_name_covers_derived_load(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok6.py", """\
            import math


            def g(total, service_rate):
                if total >= service_rate:
                    return math.inf
                rho = total / service_rate
                return rho / (1.0 - rho)
        """)
        assert findings_for(path, "GW201").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/meh.py", """\
            def g(load):
                return load / (1.0 - load)  # greedwork: ignore[GW201]
        """)
        result = findings_for(path, "GW201")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestDomainCall:
    """GW202."""

    def test_unguarded_sqrt_of_subtraction_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad.py", """\
            import math


            def spread(a, b):
                return math.sqrt(a - b)
        """)
        result = findings_for(path, "GW202")
        assert len(result.findings) == 1
        assert "math.sqrt()" in result.findings[0].message

    def test_abs_wrapper_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok.py", """\
            import math


            def spread(a, b):
                return math.sqrt(abs(a - b))
        """)
        assert findings_for(path, "GW202").findings == []

    def test_clip_wrapper_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok2.py", """\
            import numpy as np


            def spread(a, b):
                return np.sqrt(np.clip(a - b, 0.0, None))
        """)
        assert findings_for(path, "GW202").findings == []

    def test_dominating_guard_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok3.py", """\
            import math


            def spread(a, b):
                if a < b:
                    raise ValueError("a must dominate b")
                return math.sqrt(a - b)
        """)
        assert findings_for(path, "GW202").findings == []

    def test_log_of_subtraction_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/bad2.py", """\
            import numpy as np


            def slack(load):
                return np.log(1.0 - load)
        """)
        assert len(findings_for(path, "GW202").findings) == 1

    def test_plain_argument_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/ok4.py", """\
            import math


            def f(x):
                return math.sqrt(x)
        """)
        assert findings_for(path, "GW202").findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/queueing/meh.py", """\
            import math


            def spread(a, b):
                return math.sqrt(a - b)  # greedwork: ignore[GW202]
        """)
        result = findings_for(path, "GW202")
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestDeadPublicAPI:
    """GW301 (whole-program)."""

    def _tree(self, tmp_path):
        write_module(tmp_path, "src/repro/game/extra.py", """\
            def used_helper():
                return 1


            def orphan_helper():
                return 2


            def _private_helper():
                return 3
        """)
        write_module(tmp_path, "src/repro/game/consumer.py", """\
            from repro.game.extra import used_helper

            VALUE = used_helper()
        """)
        return tmp_path / "src"

    def test_orphan_public_function_fails(self, tmp_path):
        src = self._tree(tmp_path)
        result = run_checks([src], rules=[get_rule("GW301")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert "'orphan_helper'" in finding.message
        assert finding.path.endswith("extra.py")

    def test_reference_from_tests_counts(self, tmp_path):
        src = self._tree(tmp_path)
        write_module(tmp_path, "tests/test_extra.py", """\
            from repro.game.extra import orphan_helper

            def test_orphan():
                assert orphan_helper() == 2
        """)
        result = run_checks([src], rules=[get_rule("GW301")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        write_module(tmp_path, "src/repro/game/solo.py", """\
            # greedwork: ignore[GW301] -- public surface under construction
            def future_api():
                return 0
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW301")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestStatefulDiscipline:
    """GW302 (whole-program)."""

    def _tree(self, tmp_path, discipline_src):
        write_module(tmp_path, "src/repro/disciplines/base.py", BASE_STUB)
        return write_module(tmp_path, "src/repro/disciplines/impl.py",
                            discipline_src)

    def test_pure_discipline_passes(self, tmp_path):
        impl = self._tree(tmp_path, """\
            import numpy as np

            from repro.disciplines.base import AllocationFunction


            class PureAllocation(AllocationFunction):
                name = "pure"

                def congestion(self, rates):
                    return np.asarray(rates, dtype=float)
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_module_level_mutation_fails(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _CALLS = []


            class LoggingAllocation(AllocationFunction):
                name = "logging"

                def congestion(self, rates):
                    _CALLS.append(len(rates))
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "_CALLS" in result.findings[0].message
        assert "pure map" in result.findings[0].message

    def test_global_statement_fails(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _COUNT = 0


            class CountingAllocation(AllocationFunction):
                name = "counting"

                def congestion(self, rates):
                    global _COUNT
                    _COUNT += 1
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert len(result.findings) >= 1
        assert any("global" in f.message for f in result.findings)

    def test_non_allocation_methods_unconstrained(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _WARMED = []


            class WarmableAllocation(AllocationFunction):
                name = "warmable"

                def warm(self):
                    _WARMED.append(self.name)

                def congestion(self, rates):
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        impl = self._tree(tmp_path, """\
            from repro.disciplines.base import AllocationFunction

            _CALLS = []


            class LoggingAllocation(AllocationFunction):
                name = "logging"

                def congestion(self, rates):
                    _CALLS.append(len(rates))  # greedwork: ignore[GW302]
                    return rates
        """)
        result = run_checks([impl], rules=[get_rule("GW302")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


QUEUES_STUB = """\
    import copy


    class QueuePolicy:
        def state_snapshot(self):
            return copy.deepcopy(self)
"""


class TestSnapshotCoverage:
    """GW401 (whole-program)."""

    def _policy_tree(self, tmp_path, impl_src):
        write_module(tmp_path, "src/repro/sim/queues.py", QUEUES_STUB)
        return write_module(tmp_path, "src/repro/sim/impl.py",
                            impl_src)

    def test_inherited_deepcopy_passes(self, tmp_path):
        self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class PlainQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []

                def push(self, item):
                    self._packets.append(item)
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_override_missing_attribute_fails(self, tmp_path):
        impl = self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class LeakyQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []
                    self._served = 0

                def push(self, item):
                    self._packets.append(item)

                def complete(self):
                    self._served += 1

                def state_snapshot(self):
                    clone = LeakyQueue()
                    clone._packets = list(self._packets)
                    return clone
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "_served" in result.findings[0].message
        assert result.findings[0].path.endswith("impl.py")

    def test_complete_override_passes(self, tmp_path):
        self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class CarefulQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []
                    self._served = 0

                def push(self, item):
                    self._packets.append(item)

                def complete(self):
                    self._served += 1

                def state_snapshot(self):
                    clone = CarefulQueue()
                    clone._packets = list(self._packets)
                    clone._served = self._served
                    return clone
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_whole_self_deepcopy_override_passes(self, tmp_path):
        self._policy_tree(tmp_path, """\
            import copy

            from repro.sim.queues import QueuePolicy


            class CloningQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []

                def push(self, item):
                    self._packets.append(item)

                def state_snapshot(self):
                    return copy.deepcopy(self)
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_engine_snapshot_and_resume_gaps_fail(self, tmp_path):
        write_module(tmp_path, "src/repro/sim/miniengine.py", """\
            class MiniEngine:
                def __init__(self, horizon):
                    self.horizon = horizon
                    self.now = 0.0
                    self.count = 0

                def step(self):
                    self.now += 1.0
                    self.count += 1

                def snapshot(self):
                    return {"count": self.count,
                            "horizon": self.horizon}

                @classmethod
                def resume(cls, state):
                    engine = cls(state["horizon"])
                    engine.count = state["count"]
                    return engine
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        messages = sorted(f.message for f in result.findings)
        assert len(messages) == 2
        assert "MiniEngine.resume" in messages[0]
        assert "now" in messages[0]
        assert "MiniEngine.snapshot" in messages[1]
        assert "now" in messages[1]

    def test_suppressible_on_project_scope(self, tmp_path):
        self._policy_tree(tmp_path, """\
            from repro.sim.queues import QueuePolicy


            class LeakyQueue(QueuePolicy):
                def __init__(self):
                    self._packets = []
                    self._served = 0

                def complete(self):
                    self._served += 1

                # greedwork: ignore[GW401] -- _served is recomputed
                def state_snapshot(self):
                    clone = LeakyQueue()
                    clone._packets = list(self._packets)
                    return clone
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW401")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


ENGINE_WITH_CARRIER = """\
    from dataclasses import dataclass


    @dataclass
    class CarrierState:
        now: float
        count: int


    class Engine:
        def __init__(self):
            self.now = 0.0
            self.count = 0

        def step(self):
            self.now += 1.0
            self.count += 1

        def snapshot(self):
            return CarrierState(now=self.now, count={count_expr})
"""


class TestEngineStatePickling:
    """GW402 (whole-program)."""

    def _tree(self, tmp_path, source):
        return write_module(tmp_path, "src/repro/sim/engine.py",
                            textwrap.dedent(source))

    def test_full_capture_passes(self, tmp_path):
        self._tree(tmp_path,
                   ENGINE_WITH_CARRIER.format(count_expr="self.count"))
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_uncaptured_attribute_fails(self, tmp_path):
        self._tree(tmp_path,
                   ENGINE_WITH_CARRIER.format(count_expr="0"))
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert "count" in finding.message
        assert "CarrierState" in finding.message

    def test_unknown_carrier_field_fails(self, tmp_path):
        source = ENGINE_WITH_CARRIER.format(
            count_expr="self.count, horizon=9.0")
        self._tree(tmp_path, source)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "'horizon'" in result.findings[0].message

    def test_suppressible(self, tmp_path):
        source = ENGINE_WITH_CARRIER.format(count_expr="0").replace(
            "            return CarrierState",
            "            # greedwork: ignore[GW402] -- count derived\n"
            "            return CarrierState")
        self._tree(tmp_path, source)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW402")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


CONFIG_STUB = """\
    from dataclasses import dataclass


    @dataclass(frozen=True)
    class SimulationConfig:
        rates: tuple
        policy: str
        horizon: float
        seed: int
"""


class TestCacheKeyCompleteness:
    """GW403 (whole-program)."""

    def _tree(self, tmp_path, cache_src):
        write_module(tmp_path, "src/repro/sim/runner.py", CONFIG_STUB)
        return write_module(tmp_path, "src/repro/sim/cache.py",
                            cache_src)

    def test_fields_loop_passes(self, tmp_path):
        self._tree(tmp_path, """\
            from dataclasses import fields


            def config_key(config, version):
                payload = {}
                for spec in fields(config):
                    payload[spec.name] = getattr(config, spec.name)
                return repr(sorted(payload.items()))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_explicit_reads_missing_field_fails(self, tmp_path):
        self._tree(tmp_path, """\
            def config_key(config, version):
                return repr((config.rates, config.policy, version))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        message = result.findings[0].message
        assert "horizon" in message and "seed" in message

    def test_fields_loop_skip_typo_fails(self, tmp_path):
        self._tree(tmp_path, """\
            from dataclasses import fields


            def state_key(config, version):
                payload = {}
                for spec in fields(config):
                    if spec.name == "horzon":
                        continue
                    payload[spec.name] = getattr(config, spec.name)
                return repr(sorted(payload.items()))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        assert "'horzon'" in result.findings[0].message

    def test_fields_loop_valid_skip_passes(self, tmp_path):
        self._tree(tmp_path, """\
            from dataclasses import fields


            def state_key(config, version):
                payload = {}
                for spec in fields(config):
                    if spec.name == "horizon":
                        continue
                    payload[spec.name] = getattr(config, spec.name)
                return repr(sorted(payload.items()))
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW403")],
                            project_root=tmp_path)
        assert result.findings == []


class TestVariateContract:
    """GW501."""

    def test_direct_traffic_draw_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/engine2.py", """\
            def service_time(rng, mu):
                return float(rng.exponential(1.0 / mu))
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert len(result.findings) == 1
        assert "VariateStream" in result.findings[0].message

    def test_loop_draw_from_shared_generator_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/network/mesh.py", """\
            def jitter(rng, users):
                out = []
                for _user in users:
                    out.append(rng.normal(0.0, 1.0))
                return out
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert len(result.findings) == 1
        assert "CRN pairing" in result.findings[0].message

    def test_arrivals_module_is_exempt(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/arrivals.py", """\
            def draw(rng, mean):
                return float(rng.exponential(mean))
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert result.findings == []

    def test_game_layer_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/sampler.py", """\
            def sample(rng, n):
                return [rng.exponential(1.0) for _ in range(n)]
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/engine2.py", """\
            def service_time(rng, mu):
                # greedwork: ignore[GW501] -- legacy pinned draw order
                return float(rng.exponential(1.0 / mu))
        """)
        result = findings_for(path, "GW501", root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestOrderedAggregation:
    """GW502."""

    def test_sum_over_set_literal_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/numerics/agg.py", """\
            def total(weights):
                return sum(weights[u] for u in {"a", "b", "c"})
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1
        assert "set-iteration" in result.findings[0].message

    def test_loop_accumulation_over_set_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/mix.py", """\
            def total(users, weights):
                acc = 0.0
                for u in set(users):
                    acc += weights[u]
                return acc
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1

    def test_sorted_set_iteration_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/game/mix.py", """\
            def total(users, weights):
                return sum(weights[u] for u in sorted(set(users)))
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert result.findings == []

    def test_unsorted_listing_fails_sorted_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/scan.py", """\
            import os


            def entries(root):
                return [name for name in os.listdir(root)]


            def entries_sorted(root):
                return sorted(os.listdir(root))
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1
        assert "filesystem order" in result.findings[0].message
        assert result.findings[0].line == 5

    def test_wall_clock_in_numeric_layer_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/numerics/clock.py", """\
            import time


            def stamp():
                return time.perf_counter()
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert len(result.findings) == 1
        assert "wall-clock" in result.findings[0].message

    def test_wall_clock_in_presentation_layer_passes(self, tmp_path):
        path = write_module(tmp_path,
                            "src/repro/experiments/timing.py", """\
            import time


            def stamp():
                return time.perf_counter()
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert result.findings == []

    def test_suppressible(self, tmp_path):
        path = write_module(tmp_path, "src/repro/numerics/clock.py", """\
            import time


            def stamp():
                # greedwork: ignore[GW502] -- diagnostic only
                return time.perf_counter()
        """)
        result = findings_for(path, "GW502", root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestWorkerSharedState:
    """GW601 (whole-program)."""

    def _tree(self, tmp_path, task_src):
        write_module(tmp_path, "src/repro/sim/workerpool.py", """\
            from multiprocessing import Pool

            from repro.sim.tasks import run_task


            def run_all(items):
                with Pool(2) as pool:
                    return pool.map(run_task, items)
        """)
        return write_module(tmp_path, "src/repro/sim/tasks.py",
                            task_src)

    def test_worker_writing_module_state_fails(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def run_task(item):
                global _CALLS
                _CALLS += 1
                return item
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert len(result.findings) == 1
        finding = result.findings[0]
        assert "'_CALLS'" in finding.message
        assert "run_task" in finding.message
        assert finding.path.endswith("tasks.py")

    def test_transitively_reachable_reader_fails(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def _bump():
                global _CALLS
                _CALLS += 1


            def _observe():
                return _CALLS


            def run_task(item):
                _bump()
                return _observe()
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        names = sorted(f.message.split(" is reachable")[0]
                       for f in result.findings)
        assert names == ["_bump", "_observe"]

    def test_reading_module_constant_passes(self, tmp_path):
        self._tree(tmp_path, """\
            SCALE = {"a": 2.0}


            def run_task(item):
                return SCALE["a"] * item
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_unreachable_mutator_passes(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def run_task(item):
                return item


            def bump_outside_pool():
                global _CALLS
                _CALLS += 1
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert result.findings == []

    def test_suppressible_on_project_scope(self, tmp_path):
        self._tree(tmp_path, """\
            _CALLS = 0


            def run_task(item):
                # greedwork: ignore[GW601] -- per-process by design
                global _CALLS
                _CALLS += 1
                return item
        """)
        result = run_checks([tmp_path / "src"],
                            rules=[get_rule("GW601")],
                            project_root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestUnpicklableWorker:
    """GW602."""

    def test_lambda_to_pool_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from multiprocessing import Pool


            def run_all(items):
                with Pool(2) as pool:
                    return pool.map(lambda x: x + 1, items)
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert len(result.findings) == 1
        assert "lambda" in result.findings[0].message

    def test_nested_function_to_pool_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from concurrent.futures import ProcessPoolExecutor


            def run_all(items, scale):
                def task(x):
                    return x * scale

                with ProcessPoolExecutor() as pool:
                    return list(pool.map(task, items))
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert len(result.findings) == 1
        assert "'task'" in result.findings[0].message

    def test_lambda_binding_to_pool_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from multiprocessing import Pool


            def run_all(items):
                task = lambda x: x + 1
                with Pool(2) as pool:
                    return pool.map(task, items)
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert len(result.findings) == 1
        assert "'task'" in result.findings[0].message

    def test_module_level_function_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from multiprocessing import Pool


            def _task(x):
                return x + 1


            def run_all(items):
                with Pool(2) as pool:
                    return pool.map(_task, items)
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert result.findings == []

    def test_thread_pool_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/fanout.py", """\
            from concurrent.futures import ThreadPoolExecutor


            def run_all(items):
                with ThreadPoolExecutor() as pool:
                    return list(pool.map(lambda x: x + 1, items))
        """)
        result = findings_for(path, "GW602", root=tmp_path)
        assert result.findings == []


class TestBlockingEventLoop:
    """GW604."""

    def test_future_result_in_async_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            async def drain(futures):
                return [future.result() for future in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "blocks the event loop" in result.findings[0].message
        assert "'drain'" in result.findings[0].message

    def test_untimeouted_as_completed_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from concurrent.futures import as_completed


            async def drain(futures):
                done = []
                for future in as_completed(futures):
                    done.append(await wrap(future))
                return done
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "timeout" in result.findings[0].message

    def test_as_completed_with_timeout_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from concurrent.futures import as_completed


            async def drain(futures):
                return list(as_completed(futures, timeout=30.0))
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_sync_simulate_in_async_fails(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from repro.sim.runner import simulate_to_precision


            async def run_cell(cell):
                return simulate_to_precision(cell.config(),
                                             target_halfwidth=0.1)
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "run_in_executor" in result.findings[0].message

    def test_awaited_executor_dispatch_passes(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            import asyncio


            async def dispatch(pool, batches):
                loop = asyncio.get_running_loop()
                futures = [loop.run_in_executor(pool, run, batch)
                           for batch in batches]
                done, _ = await asyncio.wait(
                    set(futures), return_when=asyncio.FIRST_COMPLETED)
                return [await future for future in done]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_sync_def_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            from repro.sim.runner import simulate


            def run_serial(configs):
                return [simulate(config) for config in configs]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_other_package_out_of_scope(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sim/driver.py", """\
            async def drain(futures):
                return [future.result() for future in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []

    def test_nested_async_reported_once(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            async def outer(futures):
                async def inner(future):
                    return future.result()

                return [await inner(f) for f in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert len(result.findings) == 1
        assert "'inner'" in result.findings[0].message

    def test_suppression_with_reason(self, tmp_path):
        path = write_module(tmp_path, "src/repro/sweep/sched.py", """\
            async def drain(futures):
                return [future.result()  # greedwork: ignore[GW604] -- futures are all done here
                        for future in futures]
        """)
        result = findings_for(path, "GW604", root=tmp_path)
        assert result.findings == []
        assert len(result.suppressed) == 1


class TestStateFlowLayer:
    """The attribute-level state model underlying GW4xx/GW6xx."""

    def _project(self, tmp_path, files):
        from repro.staticcheck.project import ProjectContext

        for relpath, source in files.items():
            write_module(tmp_path, relpath, source)
        src = tmp_path / "src"
        contexts = [FileContext(p, p.read_text(), project_root=tmp_path)
                    for p in collect_files([src])]
        return ProjectContext(contexts, project_root=tmp_path)

    def test_class_state_merges_bases(self, tmp_path):
        project = self._project(tmp_path, {
            "src/repro/sim/base.py": """\
                class Base:
                    def __init__(self):
                        self.a = 0

                    def bump_a(self):
                        self.a += 1
            """,
            "src/repro/sim/child.py": """\
                from repro.sim.base import Base


                class Child(Base):
                    def __init__(self):
                        super().__init__()
                        self.b = 0

                    def bump_b(self):
                        self.b += 1
            """,
        })
        model = project.class_state("repro.sim.child", "Child")
        assert set(model.init_assigned) == {"a", "b"}
        assert model.mutated_after_init == {"a", "b"}

    def test_function_summaries_track_globals(self, tmp_path):
        from repro.staticcheck.project import FunctionSummary

        project = self._project(tmp_path, {
            "src/repro/sim/mod.py": """\
                _STATE = {}
                LIMIT = 3


                def poke(key):
                    _STATE[key] = 1
                    return LIMIT
            """,
        })
        summary = project.function_summaries["repro.sim.mod:poke"]
        assert isinstance(summary, FunctionSummary)
        assert set(summary.global_writes) == {"_STATE"}
        assert "LIMIT" in summary.global_reads
        assert project.module_mutable_globals("repro.sim.mod") == \
            {"_STATE"}

    def test_worker_reachability_closure(self, tmp_path):
        project = self._project(tmp_path, {
            "src/repro/sim/pooling.py": """\
                from multiprocessing import Pool

                from repro.sim.leaf import entry


                def fan(items):
                    with Pool() as pool:
                        return pool.map(entry, items)
            """,
            "src/repro/sim/leaf.py": """\
                def entry(item):
                    return _helper(item)


                def _helper(item):
                    return item + 1
            """,
        })
        reachable = project.reachable_from_workers()
        assert "repro.sim.leaf:entry" in reachable
        assert "repro.sim.leaf:_helper" in reachable


class TestIncrementalCache:
    def _tree(self, tmp_path):
        # Private helpers so the GW301 dead-API rule stays quiet and
        # the cache assertions see a clean tree.
        write_module(tmp_path, "src/repro/sim/alpha.py", """\
            def _alpha(x):
                return x + 1
        """)
        write_module(tmp_path, "src/repro/sim/beta.py", """\
            def _beta(x):
                return x * 2
        """)
        return tmp_path / "src"

    def test_warm_run_reanalyzes_nothing(self, tmp_path):
        src = self._tree(tmp_path)
        cache_dir = tmp_path / ".cache"
        first = run_checks([src], project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert first.files_from_cache == 0
        assert first.files_analyzed == first.files_checked
        second = run_checks([src], project_root=tmp_path,
                            cache=True, cache_dir=cache_dir)
        assert second.files_checked == first.files_checked
        assert second.files_analyzed == 0
        assert second.files_from_cache == second.files_checked
        assert [f.render() for f in second.findings] == \
            [f.render() for f in first.findings]

    def test_edited_file_is_reanalyzed(self, tmp_path):
        src = self._tree(tmp_path)
        cache_dir = tmp_path / ".cache"
        run_checks([src], project_root=tmp_path,
                   cache=True, cache_dir=cache_dir)
        beta = src / "repro/sim/beta.py"
        beta.write_text(beta.read_text() + "\n\nimport random\n")
        third = run_checks([src], project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert third.files_analyzed == 1
        assert third.files_from_cache == third.files_checked - 1
        assert [f.rule_id for f in third.findings] == ["GW003"]

    def test_cached_findings_identical_to_fresh(self, tmp_path):
        write_module(tmp_path, "src/repro/sim/dirty.py", """\
            import random

            sum = 3
        """)
        src = tmp_path / "src"
        cache_dir = tmp_path / ".cache"
        fresh = run_checks([src], project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        cached = run_checks([src], project_root=tmp_path,
                            cache=True, cache_dir=cache_dir)
        assert cached.files_from_cache == cached.files_checked
        assert [f.render() for f in cached.findings] == \
            [f.render() for f in fresh.findings]

    def test_dependency_edit_invalidates_project_findings(self,
                                                          tmp_path):
        # A project-rule finding must react to edits in *other* files:
        # removing the only reference to a public symbol makes GW301
        # fire on a file that was itself served from the cache.
        write_module(tmp_path, "src/repro/game/extra.py", """\
            def used_helper():
                return 1
        """)
        consumer = write_module(tmp_path, "src/repro/game/user.py", """\
            from repro.game.extra import used_helper

            VALUE = used_helper()
        """)
        src = tmp_path / "src"
        cache_dir = tmp_path / ".cache"
        rules = [get_rule("GW301")]
        first = run_checks([src], rules=rules, project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert first.findings == []
        consumer.write_text("VALUE = 1\n")
        second = run_checks([src], rules=rules, project_root=tmp_path,
                            cache=True, cache_dir=cache_dir)
        assert second.files_analyzed == 1      # only the edited file
        assert [f.message for f in second.findings] != []
        assert second.findings[0].path.endswith("extra.py")
        # And the warm rerun serves the new project verdict entirely
        # from cache.
        third = run_checks([src], rules=rules, project_root=tmp_path,
                           cache=True, cache_dir=cache_dir)
        assert third.files_analyzed == 0
        assert [f.render() for f in third.findings] == \
            [f.render() for f in second.findings]

    def test_no_cache_flag_disables(self, tmp_path):
        src = self._tree(tmp_path)
        cache_dir = tmp_path / ".cache"
        run_checks([src], project_root=tmp_path,
                   cache=True, cache_dir=cache_dir)
        again = run_checks([src], project_root=tmp_path,
                           cache=False, cache_dir=cache_dir)
        assert again.files_from_cache == 0
        assert again.files_analyzed == again.files_checked


class TestParallelRuns:
    def test_parallel_matches_serial(self, tmp_path):
        for i in range(4):
            write_module(tmp_path, f"src/repro/sim/mod{i}.py", """\
                import random

                sum = 3
            """)
        src = tmp_path / "src"
        serial = run_checks([src], project_root=tmp_path, jobs=1)
        parallel = run_checks([src], project_root=tmp_path, jobs=2)
        assert serial.findings  # the fixtures are genuinely dirty
        assert [f.render() for f in parallel.findings] == \
            [f.render() for f in serial.findings]
        assert [f.render() for f in parallel.suppressed] == \
            [f.render() for f in serial.suppressed]
        assert parallel.files_checked == serial.files_checked


class TestSarifReport:
    def _result(self, tmp_path):
        write_module(tmp_path, "bad.py", """\
            import random
            from random import shuffle  # greedwork: ignore[GW003]
        """)
        return run_checks([tmp_path / "bad.py"], project_root=tmp_path)

    def test_document_matches_vendored_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        document = json.loads(render_sarif(self._result(tmp_path)))
        schema = json.loads(SARIF_SUBSET_SCHEMA.read_text())
        jsonschema.validate(document, schema)

    def test_structure(self, tmp_path):
        document = json.loads(render_sarif(self._result(tmp_path)))
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "greedwork-check"
        assert [r["id"] for r in run["tool"]["driver"]["rules"]] == \
            ALL_RULE_IDS
        assert run["columnKind"] in ("utf16CodeUnits",
                                     "unicodeCodePoints")
        live = [r for r in run["results"] if "suppressions" not in r]
        suppressed = [r for r in run["results"] if "suppressions" in r]
        assert len(live) == 1 and len(suppressed) == 1
        assert live[0]["ruleId"] == "GW003"
        region = live[0]["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1
        assert "greedworkFingerprint/v1" in live[0]["partialFingerprints"]
        assert suppressed[0]["suppressions"][0]["kind"] == "inSource"

    def test_baselined_findings_marked_external(self, tmp_path):
        bad = write_module(tmp_path, "bad.py", "import random\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, run_checks([bad]).findings)
        result = run_checks([bad], baseline=baseline)
        document = json.loads(render_sarif(result))
        results = document["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["suppressions"][0]["kind"] == "external"


class TestBaseline:
    def test_round_trip(self, tmp_path):
        bad = write_module(tmp_path, "bad.py", "import random\n")
        first = run_checks([bad])
        assert len(first.findings) == 1
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        second = run_checks([bad], baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == 1
        assert second.ok

    def test_baseline_survives_line_moves(self, tmp_path):
        bad = write_module(tmp_path, "bad.py", "import random\n")
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, run_checks([bad]).findings)
        bad.write_text("\"\"\"A docstring pushing the line down.\"\"\"\n"
                       "\nimport random\n")
        result = run_checks([bad], baseline=baseline)
        assert result.findings == []
        assert len(result.baselined) == 1

    def test_surplus_occurrence_still_fails(self, tmp_path):
        bad = write_module(tmp_path, "src/repro/sim/bad.py", """\
            def g(load):
                return load / (1.0 - load)
        """)
        baseline = tmp_path / "baseline.json"
        rules = [get_rule("GW201")]
        write_baseline(
            baseline,
            run_checks([bad], rules=rules,
                       project_root=tmp_path).findings)
        bad.write_text(bad.read_text() + textwrap.dedent("""\


            def h(load):
                return load / (1.0 - load)
        """))
        result = run_checks([bad], rules=rules, project_root=tmp_path,
                            baseline=baseline)
        assert len(result.baselined) == 1
        assert len(result.findings) == 1

    def test_rename_resurrects_baselined_finding(self, tmp_path):
        # Fingerprints are path-sensitive by design: moving a file is
        # a fresh review opportunity, so the debt does not follow it.
        bad = write_module(tmp_path, "src/repro/sim/old_name.py",
                           "import random\n")
        baseline = tmp_path / "baseline.json"
        rules = [get_rule("GW003")]
        first = run_checks([bad], rules=rules, project_root=tmp_path)
        write_baseline(baseline, first.findings)
        renamed = bad.with_name("new_name.py")
        bad.rename(renamed)
        result = run_checks([renamed], rules=rules,
                            project_root=tmp_path, baseline=baseline)
        assert len(result.findings) == 1
        assert result.baselined == []
        assert result.findings[0].path.endswith("new_name.py")

    def test_load_baseline_rejects_junk(self, tmp_path):
        junk = tmp_path / "junk.json"
        junk.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError):
            load_baseline(junk)


class TestCLI:
    def test_check_clean_tree_exit_zero(self, capsys):
        code = cli_main(["check", str(REPO_SRC)])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 findings" in out

    def test_check_dirty_tree_exit_nonzero(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "GW003" in out

    def test_check_json_format(self, tmp_path, capsys):
        write_module(tmp_path, "src/repro/analysis/bad.py", """\
            def f(total):
                return total == 0.0
        """)
        code = cli_main(["check", str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "GW004"
        assert payload["findings"][0]["line"] == 2

    def test_check_select_subset(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path), "--select", "GW004"])
        assert code == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        code = cli_main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in ALL_RULE_IDS:
            assert rule_id in out

    def test_check_sarif_format(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "--format", "sarif"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["version"] == "2.1.0"
        assert document["runs"][0]["results"][0]["ruleId"] == "GW003"

    def test_check_stats_on_stderr(self, tmp_path, capsys):
        write_module(tmp_path, "ok.py", """\
            VALUE = 1
        """)
        code = cli_main(["check", str(tmp_path), "--stats",
                         "--cache-dir", str(tmp_path / ".cache")])
        captured = capsys.readouterr()
        assert code == 0
        assert "files=1" in captured.err
        assert "duration_s=" in captured.err

    def test_check_update_then_use_baseline(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        baseline = tmp_path / "baseline.json"
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "--update-baseline",
                         "--baseline", str(baseline)])
        assert code == 0
        assert baseline.exists()
        capsys.readouterr()
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert code == 0
        assert "baselined" in out

    def test_check_parallel_jobs(self, tmp_path, capsys):
        write_module(tmp_path, "bad.py", """\
            import random
        """)
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "-j", "2"])
        out = capsys.readouterr().out
        assert code == 1
        assert "GW003" in out

    def test_check_unknown_selector_exit_two(self, tmp_path, capsys):
        code = cli_main(["check", str(tmp_path), "--no-cache",
                         "--select", "GW9"])
        captured = capsys.readouterr()
        assert code == 2
        assert "unknown rule selector" in captured.err

    def test_check_warm_cache_serves_all_files(self, tmp_path, capsys):
        write_module(tmp_path, "ok.py", """\
            VALUE = 1
        """)
        cache_dir = str(tmp_path / ".cache")
        cli_main(["check", str(tmp_path), "--cache-dir", cache_dir])
        capsys.readouterr()
        code = cli_main(["check", str(tmp_path), "--cache-dir",
                         cache_dir, "--stats"])
        captured = capsys.readouterr()
        assert code == 0
        assert "analyzed=0" in captured.err
        assert "cached=1" in captured.err


class TestExplainCLI:
    def test_explain_prints_docstring_sections(self, capsys):
        code = cli_main(["explain", "GW401"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GW401 (snapshot-coverage, project-scope)" in out
        for section in ("Rationale:", "Example::", "Fix:"):
            assert section in out

    def test_explain_family_prefix(self, capsys):
        code = cli_main(["explain", "GW5xx"])
        out = capsys.readouterr().out
        assert code == 0
        assert "GW501" in out and "GW502" in out

    def test_explain_unknown_rule_exits_two(self, capsys):
        code = cli_main(["explain", "GW999"])
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown rule selector" in err

    def test_new_families_carry_full_explanations(self):
        # ``explain`` renders the class docstring verbatim, so the
        # documentation contract is: every GW4xx/5xx/6xx rule ships
        # rationale, a minimal triggering example, and the approved
        # fix or suppression pattern in its docstring.
        import inspect

        for rule_id in ALL_RULE_IDS:
            if not rule_id.startswith(("GW4", "GW5", "GW6")):
                continue
            doc = inspect.getdoc(type(get_rule(rule_id)))
            for section in ("Rationale:", "Example::", "Fix:"):
                assert section in doc, (rule_id, section)


class TestRepoIsClean:
    """The gate CI applies: the shipped tree has zero findings."""

    def test_full_suite_over_src(self):
        result = run_checks([REPO_SRC], project_root=REPO_ROOT)
        messages = [f.render() for f in result.findings]
        assert messages == []
        assert result.files_checked > 90

    def test_full_suite_over_src_and_tests(self):
        result = run_checks([REPO_SRC, REPO_TESTS],
                            project_root=REPO_ROOT)
        messages = [f.render() for f in result.findings]
        assert messages == []
        assert result.files_checked > 140

    def test_every_pragma_names_a_registered_rule(self):
        """A pragma naming an unknown id suppresses nothing, silently.

        Only real comments count: pragmas quoted in docstrings and in
        fixture sources are strings.  Family prefixes select rules on
        the command line but do not suppress, so they are not accepted
        here either.
        """
        pragma = re.compile(
            r"#\s*greedwork:\s*ignore(?:\[(?P<ids>[^\]]*)\])?")
        known = {rule.rule_id for rule in all_rules()} | {ALL_RULES}
        stale = []
        paths = [REPO_ROOT / name
                 for name in ("src", "tests", "benchmarks", "examples")]
        for path in collect_files(paths):
            source = path.read_text(encoding="utf-8")
            for token in tokenize.generate_tokens(
                    io.StringIO(source).readline):
                match = pragma.search(token.string) \
                    if token.type == tokenize.COMMENT else None
                if match is None or match.group("ids") is None:
                    continue
                for rule_id in match.group("ids").split(","):
                    rule_id = rule_id.strip()
                    if rule_id and rule_id not in known:
                        stale.append(f"{path.relative_to(REPO_ROOT)}:"
                                     f"{token.start[0]}: {rule_id}")
        assert stale == []

"""Shared infrastructure: findings, file contexts, suppression, registry.

A *rule* inspects one :class:`FileContext` (path, source, parsed AST,
module name) and yields :class:`Finding` objects.  The runner parses
``# greedwork: ignore[...]`` pragmas and drops findings they cover, so
rules never need to reason about suppression themselves.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Type

#: Sentinel rule id meaning "every rule" in a suppression pragma.
ALL_RULES = "*"

_PRAGMA = re.compile(
    r"#\s*greedwork:\s*ignore(?:\[(?P<ids>[^\]]*)\])?")


@dataclass(frozen=True)
class Finding:
    """One diagnostic: a rule violation at a source location."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str

    def sort_key(self) -> tuple:
        """Stable report ordering: path, then location, then rule."""
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        """GCC-style one-line rendering (``path:line:col: RULE msg``)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.rule_id} {self.message}")

    def fingerprint(self) -> str:
        """Location-insensitive identity used by baseline files.

        Deliberately omits the line/column so that unrelated edits
        moving a known finding do not un-baseline it.
        """
        return f"{self.rule_id}::{self.path}::{self.message}"

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for the cache and JSON reporters."""
        return {"rule": self.rule_id, "path": self.path,
                "line": self.line, "col": self.col,
                "message": self.message}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(rule_id=str(payload["rule"]), path=str(payload["path"]),
                   line=int(payload["line"]), col=int(payload["col"]),
                   message=str(payload["message"]))


class FileContext:
    """Everything a rule may want to know about one source file.

    A file that does not parse still yields a usable context:
    ``tree`` is ``None`` and ``parse_error`` carries the
    ``SyntaxError``, so one broken file can be reported as a ``GW000``
    finding without aborting the rest of the run.
    """

    def __init__(self, path: Path, source: str,
                 project_root: Optional[Path] = None) -> None:
        self.path = path
        self.project_root = project_root
        self.source = source
        self.lines = source.splitlines()
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.parse_error = exc
        self.module = module_name_for(path)
        self.display_path = display_path_for(path, project_root)
        self._suppressions = _parse_suppressions(self.lines)

    def suppressed_ids(self, line: int) -> FrozenSet[str]:
        """Rule ids suppressed on a 1-based source line.

        A pragma suppresses the line it sits on; a pragma on an
        otherwise-blank line also covers the line directly below it,
        so long statements can carry the comment above them.
        """
        return self._suppressions.get(line, frozenset())

    def is_suppressed(self, finding: Finding) -> bool:
        """Whether a pragma on the finding's line covers its rule."""
        ids = self.suppressed_ids(finding.line)
        return ALL_RULES in ids or finding.rule_id in ids


def module_name_for(path: Path) -> Optional[str]:
    """Dotted module name for files living under a ``repro`` package.

    Uses the *last* path component named ``repro`` so that temporary
    project trees (``/tmp/.../src/repro/...``) resolve the same way as
    the real one.  Returns ``None`` for files outside any ``repro``
    package (rules that reason about the architecture skip those).
    """
    parts = path.resolve().with_suffix("").parts
    if "repro" not in parts:
        return None
    idx = len(parts) - 1 - tuple(reversed(parts)).index("repro")
    dotted = list(parts[idx:])
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


def display_path_for(path: Path, project_root: Optional[Path]) -> str:
    """Path as shown in reports: project-relative when possible."""
    if project_root is not None:
        try:
            return path.resolve().relative_to(
                project_root.resolve()).as_posix()
        except ValueError:
            pass
    return str(path)


def _parse_suppressions(lines: List[str]) -> Dict[int, FrozenSet[str]]:
    out: Dict[int, FrozenSet[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        match = _PRAGMA.search(text)
        if match is None:
            continue
        raw = match.group("ids")
        if raw is None:
            ids = frozenset({ALL_RULES})
        else:
            ids = frozenset(
                token.strip() for token in raw.split(",") if token.strip())
            if not ids:
                ids = frozenset({ALL_RULES})
        out[lineno] = out.get(lineno, frozenset()) | ids
        # A standalone pragma (comment-only line) covers the next
        # *statement* line: skip over blank and comment-only lines so
        # the pragma may sit above a decorated or documented target.
        if text[:match.start()].strip() == "":
            target = lineno + 1
            while target <= len(lines):
                stripped = lines[target - 1].strip()
                if stripped and not stripped.startswith("#"):
                    break
                target += 1
            out[target] = out.get(target, frozenset()) | ids
    return out


class Rule:
    """Base class for checks; subclasses set the class attributes."""

    rule_id: str = "GW000"
    name: str = "unnamed"
    description: str = ""
    #: ``"file"`` rules see one :class:`FileContext` at a time and may
    #: run in parallel worker processes; ``"project"`` rules see the
    #: whole :class:`~repro.staticcheck.project.ProjectContext`.
    scope: str = "file"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Yield findings for one file (suppression handled upstream)."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(rule_id=self.rule_id, path=ctx.display_path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0) + 1,
                       message=message)


class ProjectRule(Rule):
    """Base class for whole-program checks.

    A project rule receives the full
    :class:`~repro.staticcheck.project.ProjectContext` — symbol table,
    import graph, call graph — and may relate facts across files.  Its
    findings still anchor to one location, so per-line suppression
    pragmas apply exactly as they do for file rules.
    """

    scope = "project"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        """Project rules do not run per file."""
        return ()

    def check_project(self, project: "ProjectContext"
                      ) -> Iterable[Finding]:
        """Yield findings for the whole program."""
        raise NotImplementedError


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, ordered by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    """Instantiate one registered rule by id."""
    _load_builtin_rules()
    try:
        # greedwork: ignore[GW601] -- _REGISTRY is append-only at
        # import time; every worker re-imports and rebuilds the
        # identical table, so there is no divergent state.
        return _REGISTRY[rule_id]()
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown rule {rule_id!r}; known rules: {known}") from None


def _load_builtin_rules() -> None:
    # Imported lazily to avoid a cycle (rule modules import this one).
    import repro.staticcheck.rules  # noqa: F401


def select_rules(rules: Iterable[Rule],
                 select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> List[Rule]:
    """Filter rules by id or family prefix.

    A selector matches a rule when the rule id starts with it, so
    ``GW2`` (or ``GW2xx``) selects the whole numerics family while
    ``GW201`` selects one rule.  ``ignore`` wins over ``select``.
    Unknown selectors raise ``KeyError`` so typos fail loudly.
    """
    def normalize(tokens: Optional[Iterable[str]]) -> List[str]:
        out = []
        for token in tokens or ():
            token = token.strip().rstrip("x")
            if token:
                out.append(token)
        return out

    rules = list(rules)
    chosen = normalize(select)
    dropped = normalize(ignore)
    for selector in chosen + dropped:
        if not any(rule.rule_id.startswith(selector) for rule in rules):
            known = ", ".join(sorted(r.rule_id for r in rules))
            raise KeyError(f"unknown rule selector {selector!r}; "
                           f"known rules: {known}")
    out = []
    for rule in rules:
        if chosen and not any(rule.rule_id.startswith(s) for s in chosen):
            continue
        if any(rule.rule_id.startswith(s) for s in dropped):
            continue
        out.append(rule)
    return out


@dataclass
class CheckResult:
    """Outcome of running the suite over a set of files."""

    findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    #: Findings present in the accepted baseline file (known debt).
    baselined: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files whose per-file rules actually ran this invocation.
    files_analyzed: int = 0
    #: Files served entirely from the incremental cache.
    files_from_cache: int = 0
    #: Wall-clock duration of the run, in seconds.
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

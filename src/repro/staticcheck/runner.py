"""Orchestrate a check run: collect, cache, fan out, aggregate.

The pipeline per invocation:

1. expand the argument paths into ``.py`` files (loudly rejecting
   missing paths and non-Python files — see :class:`CheckUsageError`);
2. read and content-hash every file; serve per-file results from the
   incremental cache where the hash matches;
3. run per-file rules over the remainder — serially, or across worker
   processes when ``jobs > 1`` (file rules are embarrassingly
   parallel: one file in, findings out);
4. run project rules over a :class:`ProjectContext` built from the
   analyzed files plus the reference roots, unless the whole-program
   digest is unchanged in the cache;
5. subtract the accepted baseline, sort, and return a
   :class:`CheckResult`.
"""

from __future__ import annotations

import multiprocessing
import time
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.staticcheck.baseline import apply_baseline, load_baseline
from repro.staticcheck.cache import (
    CACHE_DIR_NAME,
    CheckCache,
    engine_signature,
    file_digest,
    project_digest,
)
from repro.staticcheck.core import (
    CheckResult,
    FileContext,
    Finding,
    ProjectRule,
    Rule,
    all_rules,
    display_path_for,
    get_rule,
)
from repro.staticcheck.project import REFERENCE_ROOTS, ProjectContext

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".pytest_cache",
                        "build", "dist", ".venv", "venv",
                        CACHE_DIR_NAME})


class CheckUsageError(ValueError):
    """The *invocation* is wrong (bad path, bad suffix), not the code."""


def collect_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files.

    Directory arguments are recursed (skipping build/VCS internals).
    A file argument must exist and end in ``.py``; anything else
    raises :class:`CheckUsageError`, matching the CLI's
    error-on-missing-path behavior so programmatic and command-line
    runs cannot silently diverge.
    """
    out: List[Path] = []
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.is_file():
            if path.suffix != ".py":
                raise CheckUsageError(
                    f"unsupported file type (expected .py): {path}")
            candidates = [path]
        else:
            raise CheckUsageError(
                f"no such file or directory: {path}")
        for candidate in candidates:
            if any(part in _SKIP_DIRS for part in candidate.parts):
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                out.append(candidate)
    return out


def _read_error_finding(path: Path, root: Path, exc: Exception) -> Finding:
    return Finding(rule_id="GW000", path=display_path_for(path, root),
                   line=1, col=1, message=f"cannot read file: {exc}")


def _reference_sources(root: Path, reference_roots: Sequence[str],
                      analyzed_resolved: Iterable[Path]
                      ) -> Dict[Path, str]:
    """Sources of reference-only files for whole-program rules.

    Scans each ``reference_roots`` subdirectory of ``root`` for
    ``.py`` files not already in ``analyzed_resolved`` (resolved
    paths), skipping build/VCS internals; unreadable files are
    silently dropped (reference context is best-effort).
    """
    analyzed = set(analyzed_resolved)
    out: Dict[Path, str] = {}
    for root_name in reference_roots:
        ref_root = root / root_name
        if not ref_root.is_dir():
            continue
        for path in sorted(ref_root.rglob("*.py")):
            if any(part in _SKIP_DIRS for part in path.parts):
                continue
            if path.resolve() in analyzed:
                continue
            try:
                out[path] = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
    return out


def _parse_error_finding(ctx: FileContext) -> Finding:
    exc = ctx.parse_error
    assert exc is not None
    return Finding(rule_id="GW000", path=ctx.display_path,
                   line=exc.lineno or 1, col=(exc.offset or 0) + 1,
                   message=f"syntax error: {exc.msg}")


def _run_file_rules(ctx: FileContext, rules: Sequence[Rule]
                    ) -> Tuple[List[Finding], List[Finding]]:
    """(findings, suppressed) of the per-file rules on one context."""
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    if ctx.parse_error is not None:
        findings.append(_parse_error_finding(ctx))
        return findings, suppressed
    for rule in rules:
        for finding in rule.check(ctx):
            if ctx.is_suppressed(finding):
                suppressed.append(finding)
            else:
                findings.append(finding)
    return findings, suppressed


def _analyze_worker(payload: Tuple[str, str, Optional[str],
                                   Tuple[str, ...]]
                    ) -> Tuple[str, List[Dict[str, object]],
                               List[Dict[str, object]]]:
    """Worker-process entry: analyze one file with named rules."""
    path_str, source, root_str, rule_ids = payload
    root = Path(root_str) if root_str is not None else None
    ctx = FileContext(Path(path_str), source, project_root=root)
    rules = [get_rule(rule_id) for rule_id in rule_ids]
    findings, suppressed = _run_file_rules(ctx, rules)
    return (ctx.display_path,
            [f.to_dict() for f in findings],
            [f.to_dict() for f in suppressed])


def run_checks(paths: Sequence[Union[str, Path]],
               rules: Optional[Sequence[Rule]] = None,
               project_root: Optional[Union[str, Path]] = None,
               *,
               jobs: int = 1,
               cache: bool = False,
               cache_dir: Optional[Union[str, Path]] = None,
               baseline: Optional[Union[str, Path]] = None,
               reference_roots: Sequence[str] = REFERENCE_ROOTS,
               ) -> CheckResult:
    """Run the suite over ``paths`` and return a :class:`CheckResult`.

    Parameters
    ----------
    paths:
        Files and/or directories (recursed) to analyse.
    rules:
        Rule instances to apply; defaults to every registered rule.
    project_root:
        Base for report-relative paths; defaults to the current
        working directory.
    jobs:
        Worker processes for per-file rules; ``<= 1`` runs serially,
        ``0`` means one per CPU.
    cache:
        Enable the content-hash incremental cache (off by default for
        programmatic use; the CLI turns it on).
    cache_dir:
        Cache location; defaults to ``<project_root>/.greedwork_cache``.
    baseline:
        Path to an accepted-findings baseline; matching findings land
        in ``result.baselined`` instead of failing the run.
    reference_roots:
        Project-root subdirectories scanned as reference-only context
        for whole-program rules.
    """
    started = time.perf_counter()
    active = list(rules) if rules is not None else all_rules()
    file_rules = [r for r in active if not isinstance(r, ProjectRule)]
    project_rules = [r for r in active if isinstance(r, ProjectRule)]
    root = Path(project_root) if project_root is not None else Path.cwd()
    result = CheckResult()

    # -- 1. collect and read ------------------------------------------------
    sources: Dict[Path, str] = {}
    hashes: Dict[str, str] = {}          # display path -> content hash
    display: Dict[Path, str] = {}
    for path in collect_files(paths):
        result.files_checked += 1
        display_path = display_path_for(path, root)
        display[path] = display_path
        try:
            sources[path] = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            result.findings.append(_read_error_finding(path, root, exc))
            continue
        hashes[display_path] = file_digest(sources[path])

    # -- 2. cache setup -----------------------------------------------------
    check_cache: Optional[CheckCache] = None
    if cache:
        signature = engine_signature([r.rule_id for r in file_rules])
        directory = Path(cache_dir) if cache_dir is not None \
            else root / CACHE_DIR_NAME
        check_cache = CheckCache(directory, signature)

    contexts: Dict[Path, FileContext] = {}

    def context_for(path: Path) -> FileContext:
        if path not in contexts:
            contexts[path] = FileContext(path, sources[path],
                                         project_root=root)
        return contexts[path]

    # -- 3. per-file rules (cache, then serial or parallel) -----------------
    to_analyze: List[Path] = []
    for path in sources:
        display_path = display[path]
        if check_cache is not None:
            hit = check_cache.get_file(display_path,
                                       hashes[display_path])
            if hit is not None:
                result.findings.extend(hit[0])
                result.suppressed.extend(hit[1])
                result.files_from_cache += 1
                continue
        to_analyze.append(path)

    result.files_analyzed = len(to_analyze)
    if jobs == 0:
        jobs = multiprocessing.cpu_count()
    if jobs > 1 and len(to_analyze) > 1 and file_rules:
        rule_ids = tuple(r.rule_id for r in file_rules)
        payloads = [(str(path), sources[path], str(root), rule_ids)
                    for path in to_analyze]
        with multiprocessing.Pool(min(jobs, len(payloads))) as pool:
            outcomes = pool.map(_analyze_worker, payloads)
        for path, (display_path, found, kept) in zip(to_analyze,
                                                     outcomes):
            findings = [Finding.from_dict(f) for f in found]
            suppressed = [Finding.from_dict(f) for f in kept]
            result.findings.extend(findings)
            result.suppressed.extend(suppressed)
            if check_cache is not None:
                check_cache.put_file(display_path,
                                     hashes[display_path],
                                     findings, suppressed)
    else:
        for path in to_analyze:
            ctx = context_for(path)
            findings, suppressed = _run_file_rules(ctx, file_rules)
            result.findings.extend(findings)
            result.suppressed.extend(suppressed)
            if check_cache is not None:
                check_cache.put_file(ctx.display_path,
                                     hashes[ctx.display_path],
                                     findings, suppressed)

    # -- 4. project rules ---------------------------------------------------
    if project_rules:
        reference = _reference_sources(root, reference_roots,
                                      (p.resolve() for p in sources))
        scope_hashes = dict(hashes)
        for path, source in reference.items():
            scope_hashes[display_path_for(path, root)] = \
                file_digest(source)
        digest = project_digest(scope_hashes,
                                [r.rule_id for r in project_rules])
        hit = check_cache.get_project(digest) \
            if check_cache is not None else None
        if hit is not None:
            result.findings.extend(hit[0])
            result.suppressed.extend(hit[1])
        else:
            analyzed_ctxs = [context_for(path) for path in sources]
            reference_ctxs = [
                FileContext(path, source, project_root=root)
                for path, source in reference.items()]
            project = ProjectContext(analyzed_ctxs, reference_ctxs,
                                     project_root=root)
            by_path = {ctx.display_path: ctx for ctx in analyzed_ctxs}
            project_findings: List[Finding] = []
            project_suppressed: List[Finding] = []
            for rule in project_rules:
                for finding in rule.check_project(project):
                    ctx = by_path.get(finding.path)
                    if ctx is None:
                        continue        # reference-only file
                    if ctx.is_suppressed(finding):
                        project_suppressed.append(finding)
                    else:
                        project_findings.append(finding)
            result.findings.extend(project_findings)
            result.suppressed.extend(project_suppressed)
            if check_cache is not None:
                check_cache.put_project(digest, project_findings,
                                        project_suppressed)

    # -- 5. baseline, ordering, bookkeeping ---------------------------------
    if baseline is not None:
        accepted = load_baseline(baseline)
        result.findings, result.baselined = apply_baseline(
            result.findings, accepted)
    if check_cache is not None:
        check_cache.save()
    result.findings.sort(key=lambda f: f.sort_key())
    result.suppressed.sort(key=lambda f: f.sort_key())
    result.baselined.sort(key=lambda f: f.sort_key())
    result.duration_s = time.perf_counter() - started
    return result

"""Content-hash-keyed incremental result cache.

Results are keyed by (engine signature, file content hash), so a warm
run re-analyzes only files whose *content* changed — touching mtimes,
moving the checkout, or re-ordering arguments costs nothing.  The
engine signature hashes the ``staticcheck`` package sources plus the
active rule ids: editing any rule, or changing ``--select``/
``--ignore``, invalidates everything at once rather than serving
findings a different engine produced.

Whole-program results are cached separately under a *project digest* —
the hash of every (path, content-hash) pair the
:class:`~repro.staticcheck.project.ProjectContext` would see — since
one changed file can change any project-rule finding anywhere.

The cache lives in ``.greedwork_cache/`` under the project root
(override with ``cache_dir``; disable with ``--no-cache``).  A corrupt
or version-skewed cache file is discarded silently: the cache is an
accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.staticcheck.core import Finding

#: Default cache directory name, created under the project root.
CACHE_DIR_NAME = ".greedwork_cache"

#: Bump to invalidate every cache regardless of content hashes.
CACHE_SCHEMA_VERSION = 1

_FindingPair = Tuple[List[Finding], List[Finding]]

_engine_source_digest: Optional[str] = None


def file_digest(source: str) -> str:
    """Content hash of one source file."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _staticcheck_sources_digest() -> str:
    """Hash of the analysis engine's own sources (memoized)."""
    global _engine_source_digest
    if _engine_source_digest is None:
        digest = hashlib.sha256()
        package_dir = Path(__file__).resolve().parent
        for path in sorted(package_dir.rglob("*.py")):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
        _engine_source_digest = digest.hexdigest()
    return _engine_source_digest


def engine_signature(rule_ids: Sequence[str]) -> str:
    """Cache key component tying results to engine + rule selection."""
    digest = hashlib.sha256()
    digest.update(str(CACHE_SCHEMA_VERSION).encode())
    digest.update(_staticcheck_sources_digest().encode())
    digest.update(",".join(sorted(rule_ids)).encode())
    return digest.hexdigest()


def project_digest(file_hashes: Dict[str, str],
                   rule_ids: Sequence[str]) -> str:
    """Digest of the whole program a project rule would observe."""
    digest = hashlib.sha256()
    digest.update(",".join(sorted(rule_ids)).encode())
    for display_path in sorted(file_hashes):
        digest.update(display_path.encode())
        digest.update(file_hashes[display_path].encode())
    return digest.hexdigest()


def _encode_pair(findings: Sequence[Finding],
                 suppressed: Sequence[Finding]) -> Dict[str, object]:
    return {"findings": [f.to_dict() for f in findings],
            "suppressed": [f.to_dict() for f in suppressed]}


def _decode_pair(payload: Dict[str, object]) -> _FindingPair:
    return ([Finding.from_dict(f) for f in payload["findings"]],
            [Finding.from_dict(f) for f in payload["suppressed"]])


class CheckCache:
    """One cache directory, bound to one engine signature."""

    def __init__(self, directory: Path, signature: str) -> None:
        self.directory = Path(directory)
        self.signature = signature
        self.path = self.directory / "cache.json"
        self._files: Dict[str, Dict[str, object]] = {}
        self._project: Dict[str, object] = {}
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict):
            return
        if payload.get("signature") != self.signature:
            return                      # engine or rule set changed
        files = payload.get("files")
        project = payload.get("project")
        if isinstance(files, dict):
            self._files = files
        if isinstance(project, dict):
            self._project = project

    # -- per-file results ---------------------------------------------------

    def get_file(self, display_path: str,
                 digest: str) -> Optional[_FindingPair]:
        """Cached (findings, suppressed) if the content hash matches."""
        entry = self._files.get(display_path)
        if not entry or entry.get("hash") != digest:
            return None
        try:
            return _decode_pair(entry)
        except (KeyError, TypeError, ValueError):
            return None

    def put_file(self, display_path: str, digest: str,
                 findings: Sequence[Finding],
                 suppressed: Sequence[Finding]) -> None:
        """Record one file's results under its content hash."""
        entry = _encode_pair(findings, suppressed)
        entry["hash"] = digest
        self._files[display_path] = entry
        self._dirty = True

    # -- whole-program results ----------------------------------------------

    def get_project(self, digest: str) -> Optional[_FindingPair]:
        """Cached project-rule results if the project digest matches."""
        if self._project.get("digest") != digest:
            return None
        try:
            return _decode_pair(self._project)
        except (KeyError, TypeError, ValueError):
            return None

    def put_project(self, digest: str,
                    findings: Sequence[Finding],
                    suppressed: Sequence[Finding]) -> None:
        """Record whole-program results under the project digest."""
        self._project = _encode_pair(findings, suppressed)
        self._project["digest"] = digest
        self._dirty = True

    # -- persistence --------------------------------------------------------

    def save(self) -> None:
        """Atomically persist to disk (no-op when nothing changed)."""
        if not self._dirty:
            return
        payload = {"signature": self.signature,
                   "files": self._files,
                   "project": self._project}
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(payload), encoding="utf-8")
            tmp.replace(self.path)
        except OSError:
            pass                        # cache is best-effort only
        self._dirty = False

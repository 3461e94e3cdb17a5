"""Accepted-findings baseline: land new rules without a flag-day.

A baseline file records the findings a team has *accepted as known
debt* so a new rule family can gate new regressions immediately while
existing violations are burned down over time.  Entries are counted
fingerprints — ``rule::path::message`` without line numbers — so
unrelated edits that merely move a finding do not resurrect it, while
a *new* occurrence of the same pattern in the same file still fails
once the baselined count is exhausted.

Workflow::

    greedwork check src --update-baseline        # accept current debt
    greedwork check src --baseline .greedwork_baseline.json

Fixing a baselined finding never breaks the build (extra baseline
entries are simply unused); reintroducing one does.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.staticcheck.core import Finding

#: Conventional baseline filename at the project root.
DEFAULT_BASELINE_NAME = ".greedwork_baseline.json"

BASELINE_SCHEMA_VERSION = 1


def load_baseline(path: Union[str, Path]) -> Dict[str, int]:
    """Fingerprint -> accepted count.  Raises ``ValueError`` on junk."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError(f"not a greedwork baseline file: {path}")
    entries = payload["entries"]
    if not isinstance(entries, dict):
        raise ValueError(f"malformed baseline entries in {path}")
    return {str(fp): int(count) for fp, count in entries.items()}


def write_baseline(path: Union[str, Path],
                   findings: Sequence[Finding]) -> None:
    """Accept ``findings`` as the new baseline."""
    counts: Dict[str, int] = {}
    for finding in findings:
        fp = finding.fingerprint()
        counts[fp] = counts.get(fp, 0) + 1
    payload = {"version": BASELINE_SCHEMA_VERSION,
               "entries": dict(sorted(counts.items()))}
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


def apply_baseline(findings: Sequence[Finding],
                   accepted: Dict[str, int]
                   ) -> Tuple[List[Finding], List[Finding]]:
    """Split findings into (still failing, baselined).

    Consumes accepted counts per fingerprint in report order, so if a
    file gains an *additional* identical violation beyond the accepted
    count, the surplus one fails the build.
    """
    remaining = dict(accepted)
    failing: List[Finding] = []
    baselined: List[Finding] = []
    for finding in sorted(findings, key=lambda f: f.sort_key()):
        fp = finding.fingerprint()
        if remaining.get(fp, 0) > 0:
            remaining[fp] -= 1
            baselined.append(finding)
        else:
            failing.append(finding)
    return failing, baselined

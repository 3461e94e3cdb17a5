"""Benchmarks of the ``greedwork check`` engine.

The suite's usefulness depends on it being cheap enough to run on
every edit: a cold run re-analyzes the whole tree, and a warm run must
come entirely from the content-hash cache (``analyzed=0`` — CI gates
on this).  These benchmarks time both so the engine's wall-time
trajectory is tracked per commit, not just asserted once.

Running this file as a script times the matrix without pytest and
appends the rows to ``BENCH_staticcheck.json``::

    PYTHONPATH=src python benchmarks/bench_staticcheck.py \\
        -o BENCH_staticcheck.json

Each row carries the file/finding counters next to the wall time so a
slowdown can be attributed (more files analyzed vs. slower rules).
"""

import argparse
import json
import tempfile
import time
from pathlib import Path

from repro.staticcheck import run_checks

#: The paths the repo's own CI gates run the suite over.
CHECK_PATHS = ("src", "tests", "benchmarks", "examples")


def measure_staticcheck(rounds: int = 3):
    """Best-of-``rounds`` timings for a cold and a warm check.

    Uses a throwaway cache directory so the run never perturbs the
    repository's real ``.greedwork_cache``.  Returns one row per kind
    with the wall time and the run counters.
    """
    root = Path(__file__).resolve().parent.parent
    paths = [root / p for p in CHECK_PATHS]
    runs = []
    with tempfile.TemporaryDirectory(prefix="gwbench-") as cache_dir:
        for kind, fresh_cache in (("check-cold", True),
                                  ("check-warm", False)):
            best = float("inf")
            counters = {}
            for _ in range(rounds):
                if fresh_cache:
                    for entry in Path(cache_dir).glob("*"):
                        entry.unlink()
                started = time.perf_counter()
                result = run_checks(paths, project_root=root,
                                    cache=True,
                                    cache_dir=Path(cache_dir))
                elapsed = time.perf_counter() - started
                if elapsed < best:
                    best = elapsed
                    counters = {
                        "files": result.files_checked,
                        "analyzed": result.files_analyzed,
                        "cached": result.files_from_cache,
                        "findings": len(result.findings),
                    }
                if fresh_cache:
                    break               # cold timing is one-shot by nature
            row = {"kind": kind, "seconds": round(best, 6)}
            row.update(counters)
            runs.append(row)
    return runs


def test_check_warm_fully_cached():
    """A warm run over the repo tree analyzes zero files."""
    rows = {row["kind"]: row for row in measure_staticcheck(rounds=1)}
    assert rows["check-warm"]["analyzed"] == 0


def append_trajectory(path: str, runs) -> None:
    """Append run records to the ``BENCH_staticcheck.json`` trajectory."""
    document = {"benchmark": "staticcheck", "runs": []}
    try:
        with open(path) as handle:
            existing = json.load(handle)
        if isinstance(existing.get("runs"), list):
            document["runs"] = existing["runs"]
    except (OSError, ValueError):
        pass
    document["runs"].extend(runs)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")


def main(argv=None) -> int:
    """Script mode: time the engine matrix, append the trajectory."""
    parser = argparse.ArgumentParser(
        description="greedwork check engine benchmark")
    parser.add_argument("-o", "--output",
                        default="BENCH_staticcheck.json",
                        help="trajectory file to append to")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per cell (best is kept)")
    args = parser.parse_args(argv)
    runs = measure_staticcheck(rounds=args.rounds)
    print(f"{'kind':12s} {'seconds':>9s} {'files':>6s} {'analyzed':>9s} "
          f"{'findings':>9s}")
    for run in runs:
        print(f"{run['kind']:12s} {run['seconds']:9.4f} "
              f"{run['files']:6d} {run['analyzed']:9d} "
              f"{run['findings']:9d}")
    append_trajectory(args.output, runs)
    print(f"appended {len(runs)} run(s) to {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

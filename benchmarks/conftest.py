"""Shared fixtures for the ``bench_*`` microbenchmarks.

Experiments are timed end to end by perfbench (``experiments.<id>.s``
on the ``paper-fast`` workload, see ``perfbench/README.md``); the
modules here time the hot code paths of single layers.
"""

import pytest

from repro.sim import cache as sim_cache


@pytest.fixture(autouse=True)
def _sim_cache_off():
    """Benchmarks measure the engine, never the simulation cache.

    Without this, every round after the first would return the cached
    result of the first and the benchmark would time pickle loading.
    """
    sim_cache.set_enabled(False)
    yield
    sim_cache.set_enabled(None)

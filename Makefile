# Convenience targets for the greedwork reproduction.

PYTHON ?= python
STRICT_PKGS = -p repro.queueing -p repro.costsharing -p repro.disciplines

.PHONY: install test test-fast bench bench-micro bench-solver \
        bench-stats bench-staticcheck bench-sweep perfbench experiments \
        report examples clean lint lint-ruff lint-mypy check check-sarif

install:
	$(PYTHON) -m pip install -e '.[test]'

lint: lint-ruff lint-mypy check

# ruff/mypy are optional locally (install via `pip install -e '.[dev]'`);
# CI always has them.  `greedwork check` is stdlib-only and always runs.
lint-ruff:
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src; \
	else \
		echo "ruff not installed; skipping (pip install -e '.[dev]')"; \
	fi

lint-mypy:
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --strict $(STRICT_PKGS); \
	else \
		echo "mypy not installed; skipping (pip install -e '.[dev]')"; \
	fi

check:
	PYTHONPATH=src $(PYTHON) -m repro check src tests benchmarks \
		examples --stats

check-sarif:
	PYTHONPATH=src $(PYTHON) -m repro check src tests benchmarks \
		examples --format sarif -o greedwork.sarif
	@echo "wrote greedwork.sarif"

test:
	$(PYTHON) -m pytest tests/

test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The end-to-end benchmark (BENCHMARK.json): every workload, untraced.
perfbench:
	python3 perfbench/run.py --workload all --seed 0 --seconds 15 --trace 0

# Event-loop throughput matrix; appends to the BENCH_sim.json
# trajectory so engine changes are comparable across commits.
bench-micro:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_micro.py -o BENCH_sim.json

# Solver matrix (best response / Nash solve / adversarial search,
# vectorized vs scalar); appends to the BENCH_solver.json trajectory.
bench-solver:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_solver.py -o BENCH_solver.json

# Events-to-target-CI matrix (fixed horizon vs control variates vs
# CRN pairing vs sequential stopping); appends to BENCH_sim.json.
bench-stats:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_stats.py -o BENCH_sim.json

# Sweep-orchestrator phases (cold utilization, warm dedup, journal
# resume) over the ~200-cell paper catalog; appends BENCH_sweep.json
# and writes the cold run's Pareto artifact to sweep_report.json.
bench-sweep:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_sweep.py -o BENCH_sweep.json

# Static-analysis wall time (cold and warm check);
# appends to the BENCH_staticcheck.json trajectory.
bench-staticcheck:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_staticcheck.py \
		-o BENCH_staticcheck.json

experiments:
	$(PYTHON) -m repro run all --fast

report:
	$(PYTHON) -m repro report -o REPORT.md

examples:
	for script in examples/*.py; do $(PYTHON) $$script || exit 1; done

clean:
	rm -rf build dist *.egg-info .pytest_cache .benchmarks \
		.greedwork_cache greedwork.sarif BENCH_sim.json \
		BENCH_solver.json BENCH_staticcheck.json BENCH_sweep.json \
		sweep_report.json
	find . -name __pycache__ -type d -exec rm -rf {} +

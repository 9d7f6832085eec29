# Test / benchmark entry points.  PYTHONPATH=src keeps the repo runnable
# without an editable install.
#
# Two gates, one local and one hosted:
#
#   make tier1   — the local correctness gate (must stay green before every
#                  push): lint + pytest + a perf-regression comparison against
#                  the *local* frozen baseline.  The baseline is machine-local
#                  (wall times don't transfer between machines), so on a fresh
#                  checkout the comparison reports "unarmed" (exit 3 from
#                  scripts/bench_compare.py) with arming instructions instead
#                  of silently passing.
#   make ci      — exactly what .github/workflows/ci.yml runs per Python
#                  version: lint + pytest + examples + tier2-bench,
#                  *without* the baseline comparison (CI machines have no
#                  frozen baseline; the bench step is non-blocking there and
#                  the report is uploaded as a build artifact instead).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: tier1 ci examples tier2-bench bench bench-compare bench-baseline lint profile

## lint: fast static checks — byte-compile everything, pyflakes when installed,
## and fail if a generated artifact (BENCH report, store directory) is tracked
lint:
	$(PYTHON) -m compileall -q src tests examples scripts benchmarks
	@if $(PYTHON) -c "import pyflakes" 2>/dev/null; then \
		$(PYTHON) -m pyflakes src tests examples scripts; \
	else \
		echo "pyflakes not installed; skipped"; \
	fi
	$(PYTHON) scripts/check_tracked_artifacts.py

## tier1: the correctness gate (must stay green) — lint, tests, and a perf
## regression check against the local pipeline baseline (>20% fails).  The
## benchmark reports are gitignored: on a fresh checkout the comparison exits
## with the distinct "no baseline" status (3) and prints arming instructions
## ('make tier2-bench' then 'make bench-baseline'), which is a warning here,
## not a pass.
tier1: lint
	$(PYTHON) -m pytest -x -q
	@$(PYTHON) scripts/bench_compare.py benchmarks/BENCH_baseline.json benchmarks/BENCH_pipeline.json; \
	status=$$?; \
	if [ $$status -eq 3 ]; then \
		echo "tier1: perf gate skipped (unarmed)"; \
	elif [ $$status -ne 0 ]; then \
		exit $$status; \
	fi

## ci: what the hosted workflow runs per Python version — lint + full tests
## (coverage-gated when pytest-cov is installed, and under the workflow's
## hard per-test timeout when pytest-timeout is, exactly as the workflow
## enforces) + the examples + the pipeline benchmark, without the
## machine-local baseline comparison.  The bench step is non-blocking,
## exactly like the workflow's continue-on-error (wall-clock assertions are
## too noisy to gate on arbitrary machines).
COV_FAIL_UNDER ?= 75
ci: lint
	@timeout_flags=""; \
	if $(PYTHON) -c "import pytest_timeout" 2>/dev/null; then \
		timeout_flags="--timeout=300 --timeout-method=thread"; \
	else \
		echo "ci: pytest-timeout not installed; running tests without the per-test timeout"; \
	fi; \
	if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		$(PYTHON) -m pytest -q --cov=repro --cov-report=term --cov-report=xml:coverage.xml --cov-fail-under=$(COV_FAIL_UNDER) $$timeout_flags; \
	else \
		echo "ci: pytest-cov not installed; running tests without the coverage gate"; \
		$(PYTHON) -m pytest -q $$timeout_flags; \
	fi
	@$(MAKE) --no-print-directory examples
	@$(PYTHON) -m pytest benchmarks/bench_pipeline.py -q \
		|| echo "ci: bench step failed (non-blocking, mirrors hosted CI)"

## examples: run every examples/*.py, the in-repo callers that keep public
## names alive, so a deletion that breaks one fails here instead of passing
## lint.  Each runs against a store and HOME in a fresh temp directory
## (2-3 s for all four on 2 vCPUs)
examples:
	@tmp=$$(mktemp -d); status=0; \
	for example in examples/*.py; do \
		echo "examples: $$example"; \
		REPRO_STORE_DIR=$$tmp/store HOME=$$tmp $(PYTHON) $$example > $$tmp/out.txt \
			|| { cat $$tmp/out.txt; status=1; break; }; \
	done; \
	rm -rf $$tmp; exit $$status

## bench-baseline: freeze the current pipeline report as the local baseline
bench-baseline:
	@if [ -f benchmarks/BENCH_pipeline.json ]; then \
		cp benchmarks/BENCH_pipeline.json benchmarks/BENCH_baseline.json; \
		echo "baseline frozen from benchmarks/BENCH_pipeline.json"; \
	else \
		echo "no benchmarks/BENCH_pipeline.json yet; run 'make tier2-bench' first"; \
		exit 1; \
	fi

## tier2-bench: pipeline benchmark smoke (emits benchmarks/BENCH_pipeline.json)
tier2-bench:
	$(PYTHON) -m pytest benchmarks/bench_pipeline.py -q

## profile: where do the cycles go — cProfile a representative transplant and
## emit the machine-readable hotspot report next to the bench report (both are
## gitignored; CI uploads them together as build artifacts)
profile:
	$(PYTHON) scripts/profile_hotspots.py --json benchmarks/PROFILE_hotspots.json

## bench: the full benchmark campaign (tables, figures, pipeline).  The files
## are globbed explicitly because pytest's default discovery pattern
## (test_*.py) would collect nothing from bench_*.py
bench:
	$(PYTHON) -m pytest benchmarks/bench_*.py -q

## bench-compare: diff the current pipeline report against a saved baseline
## usage: make bench-compare BASELINE=benchmarks/BENCH_baseline.json
BASELINE ?= benchmarks/BENCH_baseline.json
bench-compare:
	$(PYTHON) scripts/bench_compare.py $(BASELINE) benchmarks/BENCH_pipeline.json

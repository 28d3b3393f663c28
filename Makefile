# Convenience targets for the reproduction repo.
#
# `make verify` is the one-shot health check: tier-1 tests, the
# simulator-throughput smoke (both engines: decoded and warp), the
# end-to-end tracing smoke, the
# fault-injection smoke, the multi-tenant serving smoke, the
# per-construct microbenchmark smoke and the serve-resilience chaos
# smoke (the same cells run under the `simperf`, `trace`, `faults`,
# `serve`, `micro` and `chaos` pytest markers), followed by the
# noise-aware perf-regression gate (`bench compare`, see README
# "Perf tracking").

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test verify simperf trace faults serve micro chaos compare figures perfbench clean

test:
	$(PYTHON) -m pytest -q

verify: test
	$(PYTHON) -m repro.bench simperf --quick --out -
	$(PYTHON) -m repro.bench trace --smoke
	$(PYTHON) -m repro.bench faults --smoke
	$(PYTHON) -m repro.bench serve --smoke --out -
	$(PYTHON) -m repro.bench micro --smoke
	$(PYTHON) -m repro.bench chaos --smoke
	$(PYTHON) -m repro.bench compare --baseline
	@echo "verify: OK"

simperf:
	$(PYTHON) -m repro.bench simperf

trace:
	$(PYTHON) -m repro.bench trace --smoke

faults:
	$(PYTHON) -m repro.bench faults

serve:
	$(PYTHON) -m repro.bench serve

micro:
	$(PYTHON) -m repro.bench micro

chaos:
	$(PYTHON) -m repro.bench chaos

compare:
	$(PYTHON) -m repro.bench compare --baseline

figures:
	$(PYTHON) -m repro.bench all

# One short pass of every end-to-end benchmark workload (see
# perfbench/README.md); fails on the first nonzero exit.
PERFBENCH_WORKLOADS = compile-cold sweep-decoded sweep-warp serve-mixed

perfbench:
	@for w in $(PERFBENCH_WORKLOADS); do \
		echo "perfbench: $$w"; \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 0 || exit 1; \
	done

# `clean` deliberately keeps .repro-bench/ — the perf history's value
# is its persistence across checkouts; delete it explicitly if needed.
clean:
	rm -rf .repro-cache .pytest_cache TRACE_*.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +

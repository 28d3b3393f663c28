# Convenience targets for the reproduction repo.
#
# `make verify` is the one-shot health check: tier-1 tests (which also
# carry the trace, fault-matrix, micro and serve-chaos checks, under the
# `trace`, `faults`, `micro` and `chaos` pytest markers), the
# paper-shape tests under benchmarks/ (timing off; they also pin the
# Fig. 13 ablation runs) and one short pass of every end-to-end
# benchmark workload (`perfbench`: checks correctness and the modeled
# run and compile pins of both engines and the service).  micro's
# modeled costs are pinned exactly by tier-1 (`tests/bench/test_micro.py`);
# see README "Perf tracking".  `make trace` and `micro` run the CLIs
# on their own.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test verify trace micro figures perfbench clean

test:
	$(PYTHON) -m pytest -q

verify: test perfbench
	$(PYTHON) -m pytest benchmarks/ --benchmark-disable -q
	@echo "verify: OK"

trace:
	$(PYTHON) -m repro.bench trace --app testsnap

micro:
	$(PYTHON) -m repro.bench micro

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

# `clean` removes what building, testing and tracing leave behind.
clean:
	rm -rf .repro-cache .pytest_cache TRACE_*.json
	find . -name __pycache__ -type d -prune -exec rm -rf {} +

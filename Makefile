# Convenience targets for the Scale4Edge reproduction.
#
# PYTHONPATH is pointed at src/ so every target works from a clean
# checkout without an editable install (matching the tier-1 verify
# command in ROADMAP.md).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-report bench-smoke perfbench-smoke fuzz-smoke jit-smoke service-smoke observe-smoke cluster-smoke verify-smoke examples experiments clean

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Headline performance numbers (MIPS, mutants/s, QTA overhead) written
# to BENCH_emulator.json at the repo root.
bench-report:
	$(PYTHON) benchmarks/bench_report.py

# Fast subset of the report for CI smoke runs.
bench-smoke:
	$(PYTHON) benchmarks/bench_report.py --smoke

# Same-host benchmark smoke: every perfbench workload for 3 s, each under
# a hard timeout.  perfbench exits non-zero on any failed output check
# (cross-backend RunResult/UART/dirty-page equality, JIT and trace
# engagement, zero verify escalations).  A traced campaigns pass adds
# the pooled-versus-inline fuzz and verify checks.
perfbench-smoke:
	@for workload in guest-loops campaigns served-jobs; do \
		echo "=== perfbench $$workload ==="; \
		timeout 120 $(PYTHON) perfbench/run.py --workload $$workload \
			--seed 1 --seconds 3 --trace 0 || exit 1; \
	done
	@echo "=== perfbench campaigns (traced) ==="
	timeout 120 $(PYTHON) perfbench/run.py --workload campaigns \
		--seed 1 --seconds 3 --trace 1

# Bounded fuzzing smoke: coverage growth + triage parse + determinism.
fuzz-smoke:
	$(PYTHON) examples/fuzz_smoke.py

# Compiled-tier smoke: JIT engages on F1, results byte-identical to the
# interpreter, speedup above the floor.
jit-smoke:
	$(PYTHON) examples/jit_smoke.py

# Batch-service smoke: `repro serve` in a subprocess, a fault campaign
# over HTTP byte-identical to the direct run.
service-smoke:
	$(PYTHON) examples/service_smoke.py

# Observability smoke: /metrics, event tailing, trace propagation and
# `repro top` against a live service.
observe-smoke:
	$(PYTHON) examples/observe_smoke.py

# Cluster-fabric smoke: coordinator + 2 worker nodes, sharded seeded
# campaign byte-identical to the single-process run, graceful drain.
cluster-smoke:
	$(PYTHON) examples/cluster_smoke.py

# Differential verification smoke: clean interp~compiled matrix over a
# seeded corpus, then a seeded-bug canary must be caught, lockstep-
# pinpointed, and minimized.
verify-smoke:
	$(PYTHON) examples/verify_smoke.py

# Run every example script (each asserts its own expected behaviour).
examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		$(PYTHON) $$ex || exit 1; \
	done

# Regenerate the experiment tables referenced by EXPERIMENTS.md.
experiments: bench
	@echo; echo "tables written to benchmarks/out/:"; ls benchmarks/out/

clean:
	rm -rf benchmarks/out .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

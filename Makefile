# Developer entry points for the Poseidon reproduction.

PYTHON ?= python

.PHONY: test test-reference properties golden coverage bench \
	bench-smoke bench-e2e-smoke regress serve-sweep fleet-sweep faults passes-sweep \
	ntt-cores lint examples tables profile quicktest all

test:
	$(PYTHON) -m pytest tests/

# Same tier-1 suite on the per-limb reference kernel backend (the
# oracle; `test` runs the default numpy backend): end-to-end proof the
# two backends are interchangeable.
test-reference:
	REPRO_KERNEL_BACKEND=reference $(PYTHON) -m pytest tests/ -x -q

# Hypothesis suite under the derandomized CI profile.
properties:
	$(PYTHON) -m pytest tests/properties -q --hypothesis-profile=ci

# Recompute the big-int golden vectors (only when definitions change).
golden:
	$(PYTHON) tests/golden/regenerate.py

# Kernel-layer and serving/engine coverage with the CI floors
# (needs pytest-cov).
coverage:
	$(PYTHON) -m pytest -q tests/ntt tests/rns tests/kernels \
		tests/golden tests/properties --hypothesis-profile=ci \
		--cov=repro.ntt --cov=repro.rns --cov=repro.kernels \
		--cov-report=term-missing --cov-fail-under=80
	$(PYTHON) -m pytest -q tests/serve tests/sim \
		--cov=repro.serve --cov=repro.sim \
		--cov-report=term-missing --cov-fail-under=75

quicktest:
	$(PYTHON) -m pytest tests/ -x -q -k "not bootstrap and not properties"

lint:
	$(PYTHON) -m ruff check src tests benchmarks examples

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Fast perf sanity check: the CI bench-smoke job runs exactly this.
bench-smoke:
	$(PYTHON) benchmarks/regress.py --smoke

# End-to-end benchmark smoke (benchmarks/e2e): its own test suite, then
# one quick sample of all five workloads with every output check.
bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q
	$(PYTHON) benchmarks/e2e/run.py --quick --repeats 1

# Full fixed suite vs the checked-in baseline (fails on >10% slowdown).
regress:
	$(PYTHON) benchmarks/regress.py

# cProfile the event-driven engine under a heavy serve trace; use
# --raw wall numbers for before/after scheduler comparisons.
profile:
	$(PYTHON) benchmarks/profile_engine.py --raw

# Open-system load sweep: throughput-vs-p99 knee curve + shape checks.
serve-sweep:
	$(PYTHON) benchmarks/bench_serving_sweep.py

# Fleet scaling sweep: instance count x routing policy, with the
# near-linear-scaling and affinity-beats-round-robin gates.
fleet-sweep:
	$(PYTHON) benchmarks/bench_fleet_scaling.py

# Chaos gate: mid-run instance crash + cold restart under steady load,
# with conservation, bounded-p99, queue-recovery and determinism gates.
faults:
	$(PYTHON) benchmarks/bench_fault_recovery.py

# Compiler pass-pipeline sweep: pass sets x Table VI workloads, with
# the full-pipeline-improves-makespan and determinism gates.
passes-sweep:
	$(PYTHON) benchmarks/bench_passes.py

# NTT core cross-design comparison: variant x (N, L, lanes, bandwidth)
# winner map, with default-variant byte-determinism and validator gates.
ntt-cores:
	$(PYTHON) benchmarks/bench_ntt_cores.py

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/private_statistics.py
	$(PYTHON) examples/encrypted_convolution.py
	$(PYTHON) examples/hfauto_walkthrough.py
	$(PYTHON) examples/batch_serving.py
	$(PYTHON) examples/open_system_serving.py
	$(PYTHON) examples/fleet_serving.py
	$(PYTHON) examples/accelerator_simulation.py

tables:
	$(PYTHON) -m repro.cli summary
	$(PYTHON) -m repro.cli table4
	$(PYTHON) -m repro.cli fig10

all: test bench

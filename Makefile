# Convenience targets for the guest-blockchain reproduction.

PYTHON ?= python

.PHONY: install test lint bench bench-smoke perf-gates figures examples \
	cluster-smoke chaos-smoke accountability-smoke wallclock-smoke \
	fabric-smoke state-smoke lc-update-smoke all

install:
	pip install -e . && pip install pytest pytest-benchmark hypothesis

test:
	$(PYTHON) -m pytest tests/

# Style/correctness lint (install with: pip install ruff).
lint:
	ruff check src/ tests/ benchmarks/ examples/ bench/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The perf ledger's own tests plus every workload at 1/10 scale: keeps
# bench/ (BENCHMARK.json's harness) running when src/ is refactored
# under it (bench/README.md).
bench-smoke:
	$(PYTHON) -m pytest bench -q && python3 bench/run.py --smoke

# The perf regression gates that read no clock (docs/PERFORMANCE.md):
# calls per trie lifecycle, Hash objects per proof round trip (one per
# folded level), transactions per light-client update and how
# they are submitted, derivations per immutable instance, transactions
# and payload bytes per batched delivery, the traffic the kept caches
# and the event heap are sized for (cache hits, cancellations, repeated
# proofs), events per simulated hour with nothing to do (no host
# slot past the last receipt, no validator-set preimage rebuilt), and
# the relayer's dead waits (a packet in its header's counterparty block,
# a send read at its block's instant, an update in one wave, at most
# one cover per finalised guest block and none with nothing due, live
# or replayed by a restart), and a world's footprint (bytes allocated building it, bytes in its
# checkpoint, bytes held as account data: an account is its size; the
# history a loaded link keeps at 2T against T).
# Counts are a function of the code alone, so a failure here names the
# layer that grew.  All eight also run in tier-1.
perf-gates:
	PYTHONPATH=src $(PYTHON) -m pytest -q tests/test_trie_call_budget.py \
		tests/test_lc_update_budget.py tests/test_derive_once_budget.py \
		tests/test_delivery_budget.py tests/test_traffic_audit.py \
		tests/test_idle_budget.py tests/test_relay_wait_budget.py \
		tests/test_footprint_budget.py

# Print every reproduced table/figure to the terminal (~1 min): the
# rows `python -m repro.experiments --help` marks as part of `all`.
figures:
	$(PYTHON) -m repro.experiments

examples:
	for script in examples/*.py; do $(PYTHON) $$script; done

# The throughput smoke sweep sharded over 2 workers (throughput* and
# state-* take --cluster-workers) + one replay-divergence audit.  Writes
# BENCH_throughput_smoke.json and BENCH_replay_audit.json.
cluster-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments throughput-smoke \
		--cluster-workers 2 --run-dir results/cluster-smoke
	PYTHONPATH=src $(PYTHON) -m repro.experiments replay-audit \
		--audit-seeds 401

# Fault-storm convergence check with a fault-free twin (docs/CHAOS.md).
chaos-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments chaos-smoke

# Equivocation storm: every seeded safety violation must end in an
# attributable on-chain slash, bit-reproducibly across three seeds
# (docs/ACCOUNTABILITY.md).  Writes BENCH_accountability_smoke.json.
accountability-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments accountability-smoke

# Wall-clock hot-path gate: a scaled soak must clear the packets/sec
# floor (docs/PERFORMANCE.md).  Writes BENCH_wallclock_smoke.json.
wallclock-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments wallclock-smoke

# Scaled multi-guest fabric sweep: 1/2-guest star partitioning plus the
# 2-hop routed transfer, with schema and conservation checks, the gate
# on establishment time not growing with the guest count (links open
# concurrently), and the fabric-order case (the route's links listed in
# route order and with the guest-guest link last).  docs/FABRIC.md;
# writes BENCH_topology_smoke.json.
fabric-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments topology-smoke

# Sealing-scheduler comparison at smoke scale: every scheduler must
# land on the same root; rent-aware must hold its live-byte budget
# (docs/STATE.md).  Writes BENCH_state_smoke.json.
state-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments state-smoke

# Fig. 4/5 over six simulated hours, both update plans: the paper's
# must stay at 30-43 transactions per update, the relayer's default at
# 17 or fewer, and each must cost 0.1 c x (transactions + signatures)
# (EXPERIMENTS.md).  Writes BENCH_fig4.json and BENCH_fig5.json.
lc-update-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.experiments fig4 fig5 \
		--duration-hours 6

all: lint test bench figures

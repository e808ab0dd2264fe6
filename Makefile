# Developer entry points.  `make check` is what CI would run: the
# worxlint architecture gates plus the tier-1 test suite.

PYTHON    ?= python
PYTHONPATH := src

.PHONY: check lint test bench bench-smoke perf-smoke \
	perf-compare mem-ledger chaos chaos-federation serve

check: lint test

# worxlint: layer DAG, determinism, encapsulation, subscriber safety,
# handler hygiene, thread and lock discipline.  Rules and suppression
# pragmas are documented in the "worxlint" section of DESIGN.md.
lint:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli lint

test:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest -x -q

bench:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Tiny E16 scaling cell (200 nodes, 60 sim-seconds) plus the tiny E17
# gateway cell (200 nodes, 2 s of real serving): seconds-long canaries
# for hot-path and serving regressions.  tests/test_bench_smoke.py runs
# the same cells inside tier-1 with generous wall-clock budgets.
bench-smoke:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_e16_scaling.py --tiny
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_e17_gateway.py --tiny
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_e18_federation.py --tiny
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) benchmarks/bench_e19_failover.py --tiny

# The repo benchmark (BENCHMARK.json, benchmarks/perf/README.md) at
# smoke size: all four workloads, ~12 s.
perf-smoke:
	$(PYTHON) benchmarks/perf/run.py --tiny

# Diff two saved benchmark runs; exits 1 when B is worse than A beyond
# a metric's bound:  make perf-compare A=before.json B=after.json
perf-compare:
	$(PYTHON) benchmarks/perf/run.py --compare $(A) $(B)

# What one managed node costs the server process: RSS per node,
# tracemalloc KB and blocks per node by src/repro module, GC-tracked
# objects per node and which types they are (growth between an N/4- and
# an N/2-node build) — and the collector section: over TICKS further agent
# ticks, collections per generation with total and longest pause, kernel
# events per update, us per update with the collector on and off, one
# full collection as built and after gc.freeze(), and one all-hosts
# JSON /v1/query: ms, collections per generation, bytes
# (benchmarks/mem_ledger.py; --src measures another checkout for the
# "before" row):  make mem-ledger N=2000 TICKS=4
N ?= 2000
TICKS ?= 4
mem-ledger:
	$(PYTHON) benchmarks/mem_ledger.py --nodes $(N) --ticks $(TICKS)

# Serve a simulated cluster's state over HTTP on 127.0.0.1:8137:
# /v1/summary /v1/hosts /v1/query /v1/events /v1/history /v1/watch /stats.
serve:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli serve --nodes 100

# Self-healing drill: inject a mixed fault campaign and fail unless
# every fault reaches a terminal outcome with zero defused errors.
chaos:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli chaos --nodes 40 --faults 12

# Control-plane self-healing drill (tier-1 also runs the gateway half of
# this via tests/test_bench_smoke.py and tests/test_faults.py): node
# faults plus two shard kills over an 8-shard federation — fails unless
# both kills score failed-over with every node re-owned by a survivor.
chaos-federation:
	PYTHONPATH=$(PYTHONPATH) $(PYTHON) -m repro.cli chaos --nodes 64 \
		--faults 8 --shards 8 --shard-kills 2 --interval 5 \
		--horizon 300 --settle 1800

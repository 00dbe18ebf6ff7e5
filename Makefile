GO ?= go

# Coverage profiles land under a git-ignored build directory, never at
# the repo root.
COVER_DIR ?= .cover

.PHONY: check vet build benchmark-build race test fuzz cover bench replay

# check runs everything CI needs: static analysis, a full build of both
# modules, the race-sensitive engine/cache/trace suites, a short fuzz
# smoke, the tier-1 test suite, the repro-bundle replay, and the coverage
# floors.
check: vet build benchmark-build race test replay fuzz cover

# vet is three gates: formatting, the stock toolchain vet, and
# xemem-vet — the in-tree analyzer suite (cmd/xemem-vet) that enforces
# the simulator's determinism, cost-charging, resource-pairing,
# map-ordering, hook-state, partition-isolation, and
# snapshot-completeness invariants. -timing prints the per-analyzer
# wall-clock and the .vetcache hit rate; a warm rerun after an edit
# re-analyzes only the edited package and its import-graph dependents.
vet:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/xemem-vet -timing ./...

build:
	$(GO) build ./...

# The benchmark/ directory is a separate module that builds against this
# one through a replace directive, so ./... above never reaches it. Build
# and vet it explicitly: an API change in the root module must not
# silently break the benchmark.
benchmark-build:
	cd benchmark && $(GO) build ./... && $(GO) vet ./...

# The scheduler's direct actor-to-actor handoff, the frame-list cache,
# and the tracer (invoked from every dispatch) are the
# concurrency-sensitive parts: run their packages under the race
# detector explicitly, plus the trace-enabled experiment suites.
# The TestParallel* family runs under -race: the sweep runner
# (TestParallelIdentity), the per-world conservative parallel engine
# (TestParallelWorldIdentity), and the fault × parallel matrix
# (TestParallelFaultMatrix), each held byte-identical to its serial
# reference.
race:
	$(GO) test -race ./internal/sim ./internal/sim/trace ./internal/xpmem ./internal/coll ./internal/experiments/sweep ./internal/fault ./internal/cluster ./internal/rdma
	$(GO) test -race ./internal/experiments -run 'TestGolden|TestTracing|TestFig6Explain|TestParallel|TestFaultSweep|TestClusterSweep|TestCollSweep'

test:
	$(GO) test ./...

# Short fuzz smoke over the two guest-memory-map structures (the full
# corpora replay in `test`; this explores a little beyond them).
fuzz:
	$(GO) test ./internal/rbtree -fuzz=FuzzOps -fuzztime=10s
	$(GO) test ./internal/radix -fuzz=FuzzOps -fuzztime=10s

# Coverage floors for the load-bearing packages: the sim engine, the
# XPMEM API layer, the cross-enclave plumbing (router, nameserver), and
# the static-analysis framework the rest of the tree's invariants lean
# on — each group holds its own >=80% floor.
cover:
	@mkdir -p $(COVER_DIR)
	$(GO) test -coverprofile=$(COVER_DIR)/cover.out ./internal/sim/... ./internal/xpmem ./internal/router ./internal/nameserver
	$(GO) tool cover -func=$(COVER_DIR)/cover.out | tail -1
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=80; \
	if [ "$${total%.*}" -lt "$$floor" ]; then \
		echo "coverage $$total% is below the $$floor% floor"; exit 1; \
	fi
	$(GO) test -short -coverprofile=$(COVER_DIR)/analysis.out ./internal/analysis
	$(GO) tool cover -func=$(COVER_DIR)/analysis.out | tail -1
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/analysis.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=80; \
	if [ "$${total%.*}" -lt "$$floor" ]; then \
		echo "analysis coverage $$total% is below the $$floor% floor"; exit 1; \
	fi

# Replay every checked-in repro bundle through the CLI: each bundle
# pins a (snapshot hash, trace digest) pair the current tree must
# reproduce bit-exactly (DESIGN.md §12). TestReplayBundle runs the
# same verification in-process; this step proves the shipping
# xemem-bench binary does too.
replay:
	@set -e; for b in internal/experiments/testdata/repro/*.json; do \
		$(GO) run ./cmd/xemem-bench -replay $$b; \
	done

# Engine fast-path benchmark (BENCH_engine.json), sweep benchmark
# (serial vs parallel wall-clock plus hot-path allocs/op,
# BENCH_sweep.json), the fault-injection sweep (protocol degradation
# under message loss and enclave crashes, BENCH_fault.json — fully
# deterministic: reruns are byte-identical), the parallel-engine
# scaling grid (partition-count × actor-count, serial vs parallel
# wall-clock with digest identity, BENCH_parallel.json), the
# cluster-scale name-service sweep (flat vs sharded lookup latency
# across node counts, BENCH_cluster.json — also byte-identical on
# rerun), and the hierarchical-collective sweep (bcast/allreduce
# latency across hierarchy depth × enclave mix × message size with the
# zero-copy/CICO switchover and registration-cache counters,
# BENCH_coll.json — byte-identical on rerun at any worker count), and
# the snapshot-fork benchmark (snapshot-forked vs re-bootstrapped fig9
# cells with digest identity, BENCH_snapshot.json).
bench:
	$(GO) run ./cmd/xemem-bench -json
	$(GO) run ./cmd/xemem-bench -sweep-json
	$(GO) run ./cmd/xemem-bench -fault-json
	$(GO) run ./cmd/xemem-bench -parallel-json
	$(GO) run ./cmd/xemem-bench -cluster-json
	$(GO) run ./cmd/xemem-bench -coll-json
	$(GO) run ./cmd/xemem-bench -snapshot-json

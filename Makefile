GO ?= go

# Coverage profiles land under a git-ignored build directory, never at
# the repo root.
COVER_DIR ?= .cover

.PHONY: check vet build benchmark-build race test examples cli fuzz cover bench replay

# check runs everything CI needs: static analysis, a full build of both
# modules, the race-sensitive engine/cache/trace suites, a short fuzz
# smoke, the tier-1 test suite, a run of every example program and of
# every command, the repro-bundle replay, and the coverage floors.
check: vet build benchmark-build race test examples cli replay fuzz cover

# vet is three gates: formatting, the stock toolchain vet, and
# xemem-vet — the in-tree analyzer suite (cmd/xemem-vet) that enforces
# the simulator's determinism (including: no go statement outside
# tests), cost-charging, resource-pairing, map-ordering (exporters and
# world-end audits), hook-state, and partition-isolation invariants.
# Every run loads and type-checks the
# whole module (standard library from compiler export data, under a
# second on 2 CPUs) and fails on a package that does not type-check.
vet:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/xemem-vet ./...

build:
	$(GO) build ./...

# The benchmark/ directory is a separate module that builds against this
# one through a replace directive, so ./... above never reaches it. Build
# and vet it explicitly: an API change in the root module must not
# silently break the benchmark.
benchmark-build:
	cd benchmark && $(GO) build ./... && $(GO) vet ./...

# The scheduler's coroutine handoff and the tracer (invoked from every
# dispatch) are the concurrency-sensitive parts: run their packages under
# the race detector explicitly, plus the trace-enabled experiment suites.
# Each actor is a coroutine on its own goroutine, resumed only from the
# goroutine that called Run; the detector treats every coroutine switch
# as a synchronization point, so state touched outside one shows up as a
# race. xproto and core are here
# because a delivered message is a pointer handed from the sending
# actor's coroutine to the receiving kernel's.
race:
	$(GO) test -race ./internal/sim ./internal/sim/trace ./internal/xproto ./internal/core ./internal/xpmem ./internal/coll ./internal/fault ./internal/cluster ./internal/rdma
	$(GO) test -race ./internal/experiments -run 'TestGolden|TestTracing|TestFig6Explain|TestFaultSweep|TestClusterSweep|TestCollSweep'

test:
	$(GO) test ./...

# Run every program under examples/: build compiles them, this proves
# each still runs to a zero exit (quickstart and topology exercise
# name-server lookups from the hosting enclave and from remote ones).
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d; \
	done

# Run each command once at a small setting (xemem-bench: every figure at
# -fast counts): a CLI that panics, exits non-zero or breaks its -metrics
# export fails here. xemem-vet already runs under vet.
cli:
	@mkdir -p $(COVER_DIR)
	$(GO) run ./cmd/xemem-topo
	$(GO) run ./cmd/xemem-insitu -runs 1
	$(GO) run ./cmd/xemem-bench -experiment all -fast -metrics $(COVER_DIR)/metrics.json

# Short fuzz smoke over the two guest-memory-map structures, the page
# table against its per-page oracle, and physical memory's eight-lane
# in-place add (the collectives' reduce) against the byte loop (the full
# corpora replay in `test`; this explores a little beyond them).
fuzz:
	$(GO) test ./internal/rbtree -fuzz=FuzzOps -fuzztime=10s
	$(GO) test ./internal/radix -fuzz=FuzzOps -fuzztime=10s
	$(GO) test ./internal/pagetable -fuzz=FuzzMapUnmap -fuzztime=10s
	$(GO) test ./internal/mem -fuzz=FuzzAddBytes -fuzztime=10s

# Coverage floors for the load-bearing packages: the sim engine, the
# XPMEM API layer, the cross-enclave plumbing (router, nameserver), the
# static-analysis framework the rest of the tree's invariants lean on,
# and the guest memory map (rbtree, palacios, radix), whose page runs
# and their per-page fallbacks set the charge of every VM attach — each
# group holds its own >=80% floor.
cover:
	@mkdir -p $(COVER_DIR)
	$(GO) test -coverprofile=$(COVER_DIR)/cover.out ./internal/sim/... ./internal/xpmem ./internal/router ./internal/nameserver
	$(GO) tool cover -func=$(COVER_DIR)/cover.out | tail -1
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/cover.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=80; \
	if [ "$${total%.*}" -lt "$$floor" ]; then \
		echo "coverage $$total% is below the $$floor% floor"; exit 1; \
	fi
	$(GO) test -coverprofile=$(COVER_DIR)/analysis.out ./internal/analysis
	$(GO) tool cover -func=$(COVER_DIR)/analysis.out | tail -1
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/analysis.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=80; \
	if [ "$${total%.*}" -lt "$$floor" ]; then \
		echo "analysis coverage $$total% is below the $$floor% floor"; exit 1; \
	fi
	$(GO) test -coverprofile=$(COVER_DIR)/memmap.out ./internal/rbtree ./internal/palacios ./internal/radix
	$(GO) tool cover -func=$(COVER_DIR)/memmap.out | tail -1
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/memmap.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=80; \
	if [ "$${total%.*}" -lt "$$floor" ]; then \
		echo "guest memory map coverage $$total% is below the $$floor% floor"; exit 1; \
	fi

# Replay every checked-in repro bundle through the CLI: each bundle
# pins the trace digest at the end of each of 16 virtual-time windows
# and at the end of the run, which the current tree must reproduce
# bit-exactly, and each replay audits the ended world (DESIGN.md §12).
# TestReplayBundle runs the same verification in-process; this step
# proves the shipping xemem-bench binary does too.
replay:
	@set -e; for b in internal/experiments/testdata/repro/*.json; do \
		$(GO) run ./cmd/xemem-bench -replay $$b; \
	done

# Regenerate every checked-in BENCH_<name>.json from its entry in the
# one artifact table, experiments.Artifacts, at full counts: engine (host ns and allocs per dispatch
# and per 1 GB attach, and the full-figure regeneration), fault
# (protocol degradation under message loss and enclave crashes), cluster
# (flat vs sharded name-service lookups across node counts) and coll
# (hierarchical bcast/allreduce across depth, enclave mix and size). The
# fault, cluster and coll files are byte-identical on rerun, apart from
# the host header.
bench:
	$(GO) run ./cmd/xemem-bench -bench all

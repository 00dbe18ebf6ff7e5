GO ?= go

# Coverage profiles land under a git-ignored build directory, never at
# the repo root.
COVER_DIR ?= .cover

.PHONY: check vet build benchmark-build race test benchsmoke examples cli fuzz cover bench replay

# check runs everything CI needs: static analysis, a full build of both
# modules and the benchmark/ module's tests, the race-sensitive
# engine/cache/trace suites, a short fuzz smoke, the tier-1 test suite,
# one pass of every benchmark, a run of every example program and of
# every command, the repro-bundle replay, and the coverage floors.
check: vet build benchmark-build race test benchsmoke examples cli replay fuzz cover

# vet is four gates: formatting, the stock toolchain vet, xemem-vet —
# the in-tree analyzer suite (cmd/xemem-vet) that enforces
# the simulator's determinism (including: no go statement outside
# tests), cost-charging, resource-pairing, map-ordering (exporters and
# world-end audits), hook-state, and partition-isolation invariants —
# and a fused multiply-add scan. Every xemem-vet run loads and
# type-checks the whole module (standard library from compiler export
# data, under a second on 2 CPUs) and fails on a package that does not
# type-check. The scan cross-compiles the module for arm64, whose
# compiler fuses x*y + z, and fails on any fused instruction outside
# internal/hpccg and internal/stream (their fusions only touch example
# data): a fused site makes virtual time depend on the CPU (DESIGN.md
# §5). About 16 s on 2 CPUs with an empty build cache, 1-4 s warm.
vet:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/xemem-vet ./...
	@mkdir -p $(COVER_DIR)
	@GOARCH=arm64 $(GO) build -gcflags='xemem/...=-S' -o /dev/null ./... > $(COVER_DIR)/arm64.s 2>&1 || \
		{ grep -v '^[[:space:]]' $(COVER_DIR)/arm64.s | head -20; exit 1; }
	@fused=$$(grep -E '[[:space:]]FN?M(ADD|SUB)[SD][[:space:]]' $(COVER_DIR)/arm64.s | grep -vE '/internal/(hpccg|stream)/[^/]*\.go:'); \
	if [ -n "$$fused" ]; then \
		echo "fused multiply-add outside internal/hpccg and internal/stream; round the product with float64(...):"; \
		echo "$$fused"; exit 1; \
	fi

build:
	$(GO) build ./...

# The benchmark/ directory is a separate module that builds against this
# one through a replace directive, so ./... above never reaches it. Build,
# vet and test it explicitly (its tests take about 2 s): an API change in
# the root module must not silently break the benchmark.
benchmark-build:
	cd benchmark && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

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

# Run every go test benchmark once. They hold every host-time number of
# the simulator (dispatch, the 1 GB attach, the -fast artifact
# regeneration, the ablations): a benchmark that fails or panics fails
# here. About 6 s on 2 CPUs.
benchsmoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run every program under examples/: build compiles them, this proves
# each still runs to a zero exit (quickstart and topology exercise
# name-server lookups from the hosting enclave and from remote ones).
examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d; \
	done

# Run each command once at a small setting (xemem-bench: every artifact,
# the paper's figures and the fault, cluster and coll sweeps, at -fast
# counts): a CLI that panics, exits non-zero or breaks its -metrics
# export fails here, and so does an xemem-bench that accepts -trace with
# -replay (a bundle replay cannot export a trace; it must exit 2).
# xemem-vet already runs under vet.
cli:
	@mkdir -p $(COVER_DIR)
	$(GO) run ./cmd/xemem-topo
	$(GO) run ./cmd/xemem-insitu -runs 1
	$(GO) run ./cmd/xemem-bench -experiment all -fast -metrics $(COVER_DIR)/metrics.json
	$(GO) build -o $(COVER_DIR)/xemem-bench ./cmd/xemem-bench
	@$(COVER_DIR)/xemem-bench -replay internal/experiments/testdata/repro/fault.json -trace $(COVER_DIR)/replay.json; \
	status=$$?; if [ $$status -ne 2 ]; then echo "xemem-bench -replay -trace exited $$status, want 2"; exit 1; fi

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
# the guest memory map (rbtree, palacios, radix), whose page runs and
# their per-page fallbacks set the charge of every VM attach, and the
# memory substrate (mem, pagetable, proc): frame backing, page tables
# and address spaces under every attach — each group holds its own
# >=80% floor.
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
	$(GO) test -coverprofile=$(COVER_DIR)/substrate.out ./internal/mem ./internal/pagetable ./internal/proc
	$(GO) tool cover -func=$(COVER_DIR)/substrate.out | tail -1
	@total=$$($(GO) tool cover -func=$(COVER_DIR)/substrate.out | tail -1 | awk '{print $$3}' | tr -d '%'); \
	floor=80; \
	if [ "$${total%.*}" -lt "$$floor" ]; then \
		echo "memory substrate coverage $$total% is below the $$floor% floor"; exit 1; \
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
# one artifact table, experiments.Artifacts, at full counts: the paper's
# Figs. 5-9 and Table 2 (fig5, fig6, table2, fig7, fig8, fig9), then
# fault (protocol degradation under message loss and enclave crashes),
# cluster (flat vs sharded name-service lookups across node counts) and
# coll (hierarchical bcast/allreduce across depth, enclave mix and size).
# Each file is a pure function of the seed and byte-identical on rerun
# on any machine (vet's fused multiply-add scan keeps it so); host time
# lives in the go test benchmarks (benchsmoke) and in benchmark/. About
# 3.5 s on 2 CPUs.
bench:
	$(GO) run ./cmd/xemem-bench -bench all

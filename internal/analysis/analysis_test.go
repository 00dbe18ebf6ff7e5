package analysis_test

import (
	"path/filepath"
	"strings"
	"testing"

	"xemem/internal/analysis"
)

// want is one expected diagnostic: a position (file relative to the
// fixture root, 1-based line), the analyzer that must report it, and a
// substring its message must contain.
type want struct {
	file     string
	line     int
	analyzer string
	substr   string
}

// fixtureTests drives every analyzer over its fixture mini-module and
// asserts the exact diagnostic set: each triggering construct is
// flagged, each suppressed or idiomatic construct is silent (silence is
// asserted implicitly — an unexpected diagnostic fails the test).
var fixtureTests = []struct {
	fixture string
	wants   []want
}{
	{
		fixture: "determinism",
		wants: []want{
			{"internal/sim/clock.go", 6, "determinism", "import of math/rand"},
			{"internal/sim/clock.go", 13, "determinism", "time.Now reads the host clock"},
			{"internal/sim/clock.go", 14, "determinism", "time.Since reads the host clock"},
			{"internal/sim/clock.go", 20, "determinism", "os.Getpid is host/process-dependent"},
			{"internal/sim/clock.go", 26, "determinism", "go statement"},
			{"internal/sim/clock.go", 28, "determinism", "go statement"},
			// The wallclock directive on Detach's go statement excuses
			// host-clock reads only.
			{"internal/sim/clock.go", 36, "determinism", "go statement"},
			// clock_test.go's go statement is in a test file — silent.
			// bench.go: both reads carry //xemem:wallclock — silent.
			// shadow.go: time.Now there is a parameter's virtual clock,
			// not the time package — silent.
		},
	},
	{
		fixture: "chargecheck",
		wants: []want{
			// Used flows into Charge through two locals in sub.DoWork;
			// LeaseCheck is charged by the lease-expiry probe in lease.go;
			// Excused carries a directive. Dead and LeaseExpiry survive —
			// the TTL is only compared against the clock, and a deadline
			// comparison is a read, not a charge sink.
			{"internal/sim/sim.go", 15, "chargecheck", "Costs.Dead is never charged"},
			{"internal/sim/sim.go", 27, "chargecheck", "Costs.LeaseExpiry is never charged"},
			{"internal/sim/sim.go", 39, "chargecheck", "Costs.PickedDead is never charged"},
			{"internal/sim/sim.go", 52, "chargecheck", "writes Actor.now directly"},
			// pollTick is on the clock path; next, a scheduler-shaped
			// writer under any other name, is not.
			{"internal/sim/sim.go", 60, "chargecheck", "Actor.next writes Actor.now directly"},
			// WarpExcused is suppressed end-of-line. Helper (laundered
			// through sub.chargeAll's sunk parameter) and Picked (returned
			// by sub.pick into a Charge) are charged interprocedurally.
		},
	},
	{
		fixture: "paircheck",
		wants: []want{
			{"internal/app/app.go", 9, "paircheck", "GetWith result discarded"},
			{"internal/app/app.go", 14, "paircheck", "AttachWith handle bound to _"},
			{"internal/app/app.go", 20, "paircheck", `GetWith handle "apid" is only ever read`},
			{"internal/app/app.go", 57, "paircheck", "AttachWith result discarded"},
			{"internal/app/coll.go", 19, "paircheck", "AttachCached handle bound to _"},
			{"internal/app/coll.go", 35, "paircheck", `register handle "b" is only ever read`},
			{"internal/app/helper.go", 33, "paircheck", "is only ever read"},
			// LeakExcused is suppressed; Paired/Transfers/TransfersVar
			// release or transfer ownership and must stay silent — as
			// must PairedViaHelper, whose release happens
			// inside the retire helper. The registration-cache pairs:
			// PairedCached detaches, PairedBinding unregisters, and
			// TransfersBinding parks the binding in caller-owned state —
			// all silent.
		},
	},
	{
		fixture: "maporder",
		wants: []want{
			{"internal/trace/encode.go", 22, "maporder", "ranges over a map on an exporter-feeding path"},
			// shard.go: the lease map is the unordered half of a shard
			// layout; EncodeLeases ranges it raw (flagged — the replica
			// slices above it are ordered and silent), encodeLeasesSorted
			// collects and sorts.
			{"internal/trace/shard.go", 24, "maporder", "ranges over a map on an exporter-feeding path"},
			{"internal/trace/trace.go", 13, "maporder", "ranges over a map on an exporter-feeding path"},
			// zone.go sits outside any trace package: Audit is in scope
			// by name and flagged; auditSorted sorts first.
			{"internal/zone/zone.go", 19, "maporder", "ranges over a map on an exporter-feeding path"},
			// WriteSorted and encodeSorted (filtered collect) use the
			// collect-then-sort idiom, WriteExcused/encodeExcused are
			// suppressed, and acct.Total is outside the exporter scope.
		},
	},
	{
		fixture: "hookstate",
		wants: []want{
			{"internal/lib/lib.go", 11, "hookstate", "package-level hook lib.Hook"},
			{"internal/lib/lib.go", 32, "hookstate", "package-level hook lib.PartHooks"},
			{"internal/lib/lib.go", 37, "hookstate", "package-level hook lib.HookByPart"},
			{"internal/lib/lib.go", 43, "hookstate", "package-level hook lib.Chain"},
			{"internal/other/other.go", 10, "hookstate", "package-level hook lib.Hook"},
			// InstallExcused is suppressed; cmd/tool is package main;
			// Counter is not func-typed.
		},
	},
	{
		fixture: "partition",
		wants: []want{
			{"internal/app/app.go", 13, "partition", "Now called on an actor other than the running one"},
			{"internal/app/app.go", 14, "partition", "Advance called on an actor other than the running one"},
			{"internal/app/app.go", 15, "partition", "RNG called on an actor other than the running one"},
			{"internal/app/app.go", 37, "partition", "Now called on an actor other than the running one"},
			// Identity reads, own-receiver Unblock, the two-actor Helper,
			// build-time Build, and the suppressed Excused stay silent.
		},
	},
	{
		fixture: "directive",
		wants: []want{
			{"internal/lib/lib.go", 7, "directive", "needs a ' -- <reason>'"},
			{"internal/lib/lib.go", 12, "directive", `unknown analyzer "frobcheck"`},
			{"internal/lib/lib.go", 18, "directive", "only be excused via //xemem:wallclock"},
			{"internal/lib/lib.go", 23, "directive", `unknown //xemem: directive "//xemem:frobnicate"`},
			{"internal/lib/lib.go", 28, "directive", "needs a ' -- <reason>'"},
		},
	},
}

func TestFixtures(t *testing.T) {
	for _, tt := range fixtureTests {
		t.Run(tt.fixture, func(t *testing.T) {
			m, err := analysis.Load(filepath.Join("testdata", tt.fixture))
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			diags := analysis.Run(m, analysis.All())

			matched := make([]bool, len(diags))
			for _, w := range tt.wants {
				found := false
				for i, d := range diags {
					if matched[i] {
						continue
					}
					rel, err := filepath.Rel(m.Root, d.Pos.Filename)
					if err != nil {
						rel = d.Pos.Filename
					}
					if filepath.ToSlash(rel) == w.file && d.Pos.Line == w.line &&
						d.Analyzer == w.analyzer && strings.Contains(d.Message, w.substr) {
						matched[i] = true
						found = true
						break
					}
				}
				if !found {
					t.Errorf("missing diagnostic: %s:%d: %s: ...%s...", w.file, w.line, w.analyzer, w.substr)
				}
			}
			for i, d := range diags {
				if !matched[i] {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
		})
	}
}

// TestWallclockSuppressionForms pins the two directive placements the
// determinism fixture relies on: end-of-line (suppresses its own line)
// and standalone comment (suppresses the line below).
func TestWallclockSuppressionForms(t *testing.T) {
	m, err := analysis.Load(filepath.Join("testdata", "determinism"))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	for _, d := range analysis.Run(m, analysis.All()) {
		if filepath.Base(d.Pos.Filename) == "bench.go" {
			t.Errorf("annotated wall-clock read still flagged: %s", d)
		}
	}
}

// TestNames pins the allow-directive vocabulary: the analyzer names are
// load-bearing in source annotations across the tree, so renaming one is
// a breaking change this test makes deliberate.
func TestNames(t *testing.T) {
	got := strings.Join(analysis.Names(), " ")
	const only = "determinism chargecheck paircheck maporder hookstate partition"
	if got != only {
		t.Fatalf("analyzer suite = %q, want %q", got, only)
	}
}

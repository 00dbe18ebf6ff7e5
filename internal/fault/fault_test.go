package fault_test

import (
	"errors"
	"fmt"
	"testing"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/fault"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

// scenarioResult captures everything observable about one faulted run:
// the trace digest, the injector's own accounting, and the outcome of
// every API call the workload made (success or the exact error text).
type scenarioResult struct {
	digest   trace.Digest
	stats    fault.Stats
	faults   []trace.FaultStat
	outcomes []string
}

// runScenario boots a node (Linux + one co-kernel), installs an
// injector for plan, and drives a fixed producer/consumer workload of
// `rounds` lookup→get→attach→read→detach→release cycles from the Linux
// side against a co-kernel export. Every error is recorded, never
// fatal: under lossy plans some operations are expected to exhaust
// their retry budget, and the test's claim is that WHICH ones do is a
// pure function of (seed, plan).
func runScenario(t *testing.T, seed uint64, plan fault.Plan, rounds int) scenarioResult {
	t.Helper()
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 2 << 30})
	tr := trace.NewTracer(fmt.Sprintf("fault-scenario-%d", seed))
	tr.SetKeepEvents(false)
	node.World().SetObserver(tr)

	inj := fault.New(node.World(), plan)
	ck, err := node.BootCoKernel("lwk", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()

	exp, heap, err := node.KittenProcess(ck, "producer", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	res := scenarioResult{}
	note := func(op string, err error) {
		if err != nil {
			res.outcomes = append(res.outcomes, op+": "+err.Error())
		} else {
			res.outcomes = append(res.outcomes, op+": ok")
		}
	}

	node.Spawn("producer", func(a *sim.Actor) {
		if _, err := exp.Write(heap.Base, []byte("fault payload")); err != nil {
			t.Error(err)
			return
		}
		_, err := exp.Make(a, heap.Base, 16<<12, xpmem.PermRead, "fault-data")
		note("make", err)
	})
	att, _ := node.LinuxProcess("consumer", 1)
	node.Spawn("consumer", func(a *sim.Actor) {
		var segid xpmem.Segid
		if !a.Retry(20*sim.Microsecond, a.Now()+50*sim.Millisecond, func() bool {
			s, err := att.Lookup(a, "fault-data")
			if err != nil {
				return false
			}
			segid = s
			return true
		}) {
			res.outcomes = append(res.outcomes, "lookup: never resolved")
			return
		}
		for i := 0; i < rounds; i++ {
			apid, err := att.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: 200 * sim.Microsecond})
			note("get", err)
			if err != nil {
				continue
			}
			va, err := att.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 16 << 12, Perm: xpmem.PermRead, Timeout: 500 * sim.Microsecond})
			note("attach", err)
			if err == nil {
				buf := make([]byte, len("fault payload"))
				_, rerr := att.Read(va, buf)
				note("read", rerr)
				note("detach", att.Detach(a, va))
			}
			note("release", att.Release(a, segid, apid))
		}
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
	res.digest = tr.Digest()
	res.stats = inj.Stats()
	res.faults = tr.Faults()
	return res
}

// TestSameSeedSamePlanIdentical is the subsystem's core contract: an
// identical (seed, plan) pair replays the identical run — the same
// SHA-256 over the full event stream, the same injector decisions, and
// the same per-call outcomes — even under heavy loss, delay, and a
// name-server outage.
func TestSameSeedSamePlanIdentical(t *testing.T) {
	plan := fault.Plan{
		DropProb:  0.05,
		DelayProb: 0.2,
		DelayMax:  5 * sim.Microsecond,
		NSOutages: []fault.Window{{Start: 300 * sim.Microsecond, End: 500 * sim.Microsecond}},
	}
	a := runScenario(t, 42, plan, 12)
	b := runScenario(t, 42, plan, 12)
	if a.digest.SHA256 != b.digest.SHA256 {
		t.Fatalf("digests differ across identical runs:\n  %+v\n  %+v", a.digest, b.digest)
	}
	if a.stats != b.stats {
		t.Fatalf("injector stats differ: %+v vs %+v", a.stats, b.stats)
	}
	if len(a.outcomes) != len(b.outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(a.outcomes), len(b.outcomes))
	}
	for i := range a.outcomes {
		if a.outcomes[i] != b.outcomes[i] {
			t.Fatalf("outcome %d differs: %q vs %q", i, a.outcomes[i], b.outcomes[i])
		}
	}
	// The plan was lossy enough to actually bite.
	if a.stats.Drops == 0 || a.stats.Delays == 0 {
		t.Fatalf("plan injected nothing: %+v", a.stats)
	}
	if a.stats.DelayTime == 0 {
		t.Fatalf("delays carried no virtual time: %+v", a.stats)
	}
}

// TestSeedChangesSchedule: the injector draws from the world's seeded
// RNG tree, so a different seed yields a different fault schedule (and
// digest). This is probabilistic in principle but deterministic per
// seed pair, so the assertion is stable once it holds.
func TestSeedChangesSchedule(t *testing.T) {
	plan := fault.Plan{DropProb: 0.1, DelayProb: 0.3}
	a := runScenario(t, 1, plan, 10)
	b := runScenario(t, 2, plan, 10)
	if a.digest.SHA256 == b.digest.SHA256 {
		t.Fatalf("different seeds produced identical digests: %s", a.digest.SHA256)
	}
}

// TestFaultCountersReachTrace: injected faults surface as "fault-"
// counters in the tracer (and therefore perturb the digest), and
// Faults() reports them sorted.
func TestFaultCountersReachTrace(t *testing.T) {
	plan := fault.Plan{DropProb: 0.15}
	res := runScenario(t, 7, plan, 12)
	if res.stats.Drops == 0 {
		t.Fatalf("no drops at 15%% loss over 12 rounds: %+v", res.stats)
	}
	var dropEvents uint64
	for i, f := range res.faults {
		if i > 0 && res.faults[i-1].Name >= f.Name {
			t.Fatalf("Faults() not sorted: %q before %q", res.faults[i-1].Name, f.Name)
		}
		if len(f.Name) > len("fault-drop:") && f.Name[:len("fault-drop:")] == "fault-drop:" {
			dropEvents += f.Count
		}
	}
	if dropEvents != uint64(res.stats.Drops) {
		t.Fatalf("trace counted %d drops, injector %d", dropEvents, res.stats.Drops)
	}
	// A lossless rerun must digest differently (the drop events are part
	// of the hashed stream) and report no fault counters at all.
	clean := runScenario(t, 7, fault.Plan{}, 12)
	if clean.digest.SHA256 == res.digest.SHA256 {
		t.Fatal("dropping messages did not perturb the digest")
	}
	if len(clean.faults) != 0 {
		t.Fatalf("zero plan produced fault counters: %+v", clean.faults)
	}
}

// TestServiceDownWindows pins the outage-window semantics: half-open
// [Start, End).
func TestServiceDownWindows(t *testing.T) {
	w := sim.NewWorld(1)
	inj := fault.New(w, fault.Plan{NSOutages: []fault.Window{
		{Start: 100, End: 200},
		{Start: 500, End: 600},
	}})
	cases := []struct {
		t    sim.Time
		down bool
	}{
		{0, false}, {99, false}, {100, true}, {199, true}, {200, false},
		{499, false}, {500, true}, {599, true}, {600, false}, {1000, false},
	}
	for _, c := range cases {
		if got := inj.NameServerDown(c.t); got != c.down {
			t.Errorf("NameServerDown(%d) = %v, want %v", c.t, got, c.down)
		}
	}
}

// TestNSOutageBackoff: a Make issued while the name server is dark
// backs off in virtual time and completes once the window ends; the
// retries are visible in the module's stats and the outage drops in the
// trace would be, had any remote request hit the window.
func TestNSOutageBackoff(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 11, MemBytes: 1 << 30})
	fault.New(node.World(), fault.Plan{
		NSOutages: []fault.Window{{Start: 0, End: 250 * sim.Microsecond}},
	})

	sess, p := node.LinuxProcess("maker", 1)
	region, err := xemem.AllocLinux(node.Linux(), p, "buf", 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	var segid xpmem.Segid
	node.Spawn("maker", func(a *sim.Actor) {
		s, err := sess.Make(a, region.Base, 4096, xpmem.PermRead, "during-outage")
		if err != nil {
			t.Errorf("Make during NS outage: %v", err)
			return
		}
		segid = s
		if a.Now() < 250*sim.Microsecond {
			t.Errorf("Make completed at %v, inside the outage window", a.Now())
		}
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
	if segid == 0 {
		t.Fatal("Make never completed")
	}
	if node.LinuxModule().Stats.NSRetries == 0 {
		t.Fatal("no NS backoff retries recorded during the outage")
	}
}

// TestOutageOutlastsBudget: an outage longer than the full backoff
// budget surfaces as ErrTimeout, typed and matchable.
func TestOutageOutlastsBudget(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 12, MemBytes: 1 << 30})
	fault.New(node.World(), fault.Plan{
		NSOutages: []fault.Window{{Start: 0, End: sim.Second}},
	})
	sess, p := node.LinuxProcess("maker", 1)
	region, err := xemem.AllocLinux(node.Linux(), p, "buf", 4096, true)
	if err != nil {
		t.Fatal(err)
	}
	node.Spawn("maker", func(a *sim.Actor) {
		_, err := sess.Make(a, region.Base, 4096, xpmem.PermRead, "never")
		if !errors.Is(err, xpmem.ErrTimeout) {
			t.Errorf("Make under unbounded outage = %v, want ErrTimeout", err)
		}
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDelayDefaulting: DelayProb without DelayMax gets the documented
// 10 µs default rather than a zero bound.
func TestDelayDefaulting(t *testing.T) {
	res := runScenario(t, 5, fault.Plan{DelayProb: 0.5}, 6)
	if res.stats.Delays == 0 {
		t.Fatalf("no delays at 50%% probability: %+v", res.stats)
	}
	if res.stats.DelayTime == 0 {
		t.Fatal("delays were injected with zero duration — DelayMax default missing")
	}
	if max := sim.Time(res.stats.Delays) * (10*sim.Microsecond + 1); res.stats.DelayTime > max {
		t.Fatalf("total delay %v exceeds %d × default bound", res.stats.DelayTime, res.stats.Delays)
	}
}

// TestBootFailsUnderTotalLoss: a co-kernel whose every bootstrap message
// is dropped exhausts its ping and ID attempts and marks itself crashed.
// Calls from its processes then fail with ErrEnclaveDown instead of
// hanging, the run ends, and the ended world still audits clean.
func TestBootFailsUnderTotalLoss(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 3, MemBytes: 1 << 30})
	inj := fault.New(node.World(), fault.Plan{DropProb: 1})
	ck, err := node.BootCoKernel("lwk", 256<<20)
	if err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	sess, heap, err := node.KittenProcess(ck, "maker", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	node.Spawn("maker", func(a *sim.Actor) {
		_, err := sess.Make(a, heap.Base, 4096, xpmem.PermRead, "unreachable")
		if !errors.Is(err, core.ErrEnclaveDown) {
			t.Errorf("Make from a co-kernel that never booted = %v, want ErrEnclaveDown", err)
		}
	})
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
	if !ck.Module.Stopped() {
		t.Fatal("co-kernel survived a bootstrap that lost every message")
	}
	if err := node.World().Audit(); err != nil {
		t.Fatal(err)
	}
}

package cluster

import (
	"fmt"
	"strings"
	"testing"

	"xemem/internal/nameserver"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

const exchangePayload = "bytes across the interconnect"

// runExchange builds a cluster and runs one cross-node exchange: a
// producer on the last node's co-kernel exports and publishes a segment,
// a consumer on node 0's management enclave looks it up, attaches, reads
// it back, and re-gets it to exercise the lease cache. It returns the
// run's tracer (digest plus, when keepEvents is set, the event stream)
// and the built cluster for stats assertions.
func runExchange(t *testing.T, seed uint64, nodes, shards int, keepEvents bool) (*trace.Tracer, *Cluster) {
	t.Helper()
	w := sim.NewWorld(seed)
	tr := trace.NewTracer(fmt.Sprintf("cluster/n%d/s%d", nodes, shards))
	tr.SetKeepEvents(keepEvents)
	w.SetObserver(tr)
	cl, err := NewInWorld(w, Config{Nodes: nodes, Shards: shards, CoKernels: true})
	if err != nil {
		t.Fatal(err)
	}

	last := cl.Nodes[nodes-1]
	prodSess, heap, err := last.X.KittenProcess(last.CK, "producer", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	consSess, consProc := cl.Nodes[0].X.LinuxProcess("consumer", 1)

	const segBytes = 64 << 12
	w.Spawn("producer", func(a *sim.Actor) {
		cl.WaitReady(a)
		if _, err := prodSess.Write(heap.Base, []byte(exchangePayload)); err != nil {
			t.Error(err)
			return
		}
		if _, err := prodSess.Make(a, heap.Base, segBytes, xpmem.PermRead, "cseg"); err != nil {
			t.Error(err)
		}
	})
	var got string
	w.Spawn("consumer", func(a *sim.Actor) {
		cl.WaitReady(a)
		var segid xpmem.Segid
		a.Poll(20*sim.Microsecond, func() bool {
			s, err := consSess.Lookup(a, "cseg")
			if err != nil {
				return false
			}
			segid = s
			return true
		})
		if shards > 0 {
			if home := nameserver.ShardOf(segid, shards); home < 0 || home >= shards {
				t.Errorf("segid %d homes to shard %d of %d", segid, home, shards)
			}
		}
		apid, err := consSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := consSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: segBytes, Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, len(exchangePayload))
		if _, err := consProc.AS.Read(va, buf); err != nil {
			t.Error(err)
			return
		}
		got = string(buf)
		if err := consSess.Detach(a, va); err != nil {
			t.Error(err)
			return
		}
		if err := consSess.Release(a, segid, apid); err != nil {
			t.Error(err)
			return
		}
		// A second get within the lease TTL must resolve from the cache.
		apid2, err := consSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		if err := consSess.Release(a, segid, apid2); err != nil {
			t.Error(err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got != exchangePayload {
		t.Fatalf("consumer read %q across the fabric", got)
	}
	return tr, cl
}

func TestClusterFlatExchange(t *testing.T) {
	_, cl := runExchange(t, 7, 2, 0, false)
	root := cl.Nodes[0].X.LinuxModule()
	if root.NS == nil || root.NS.SegidAllocs == 0 {
		t.Fatal("flat cluster did not allocate through the root name server")
	}
	if cl.Nodes[0].CK.Module.Sharded() {
		t.Fatal("flat cluster module reports sharded")
	}
}

func TestClusterShardedExchange(t *testing.T) {
	_, cl := runExchange(t, 7, 4, 2, false)
	cons := cl.Nodes[0].X.LinuxModule()
	ss := cons.ShardStats
	if ss.LeaseMisses == 0 {
		t.Fatalf("no lease miss recorded: %+v", ss)
	}
	if ss.LeaseHits == 0 {
		t.Fatalf("second get did not hit the lease cache: %+v", ss)
	}
	// The producing co-kernel allocated through a shard replica; some
	// replica's instance must carry the registration before removal.
	var registered int
	for _, n := range cl.Nodes {
		if m := n.X.LinuxModule(); m.NS != nil {
			registered += m.NS.LiveSegids()
		}
	}
	if registered == 0 {
		t.Fatal("no shard replica holds the segment registration")
	}
	if len(cl.Map.Replicas) != 2 {
		t.Fatalf("shard map has %d shards", len(cl.Map.Replicas))
	}
}

// TestShardCountersReachTrace: the lease-cache and shard-routing
// counters flow through sim.Observer into the tracer's event stream —
// so they are part of the hashed digest, and a run whose lease behaviour
// changes cannot digest identically.
func TestShardCountersReachTrace(t *testing.T) {
	tr, cl := runExchange(t, 7, 4, 2, true)
	counts := map[string]int{}
	for _, e := range tr.Events() {
		if e.Kind == trace.EvCount {
			counts[e.Op]++
		}
	}
	for _, name := range []string{"lease-hit", "lease-miss", "shard-sync"} {
		if counts[name] == 0 {
			t.Errorf("counter %q never reached the trace: %v", name, counts)
		}
	}
	var routed int
	for name, n := range counts {
		if strings.HasPrefix(name, "shard-route:") {
			routed += n
		}
	}
	if routed == 0 {
		t.Errorf("no shard-route:* counter reached the trace: %v", counts)
	}
	// The traced counts agree with the module-side stats the sweep sums.
	var hits, misses int
	for _, m := range cl.Modules() {
		hits += m.ShardStats.LeaseHits
		misses += m.ShardStats.LeaseMisses
	}
	if counts["lease-hit"] != hits || counts["lease-miss"] != misses {
		t.Errorf("trace counted %d hits / %d misses, modules %d / %d",
			counts["lease-hit"], counts["lease-miss"], hits, misses)
	}
}

// TestClusterDigestStability pins the determinism contract: identical
// configurations replay byte-identically.
func TestClusterDigestStability(t *testing.T) {
	tr1, _ := runExchange(t, 11, 4, 2, false)
	tr2, _ := runExchange(t, 11, 4, 2, false)
	d1, d2 := tr1.Digest(), tr2.Digest()
	if d1 != d2 {
		t.Fatalf("replay diverged:\n%+v\n%+v", d1, d2)
	}
}

package fault_test

import (
	"errors"
	"fmt"
	"testing"

	"xemem/internal/cluster"
	"xemem/internal/core"
	"xemem/internal/fault"
	"xemem/internal/nameserver"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

// Cluster cells of the fault matrix: shard-replica outages and stale
// lease-cache entries, the two failure shapes the sharded name service
// adds on top of the single-node matrix. Cluster setup (bootstrap over
// the fabric plus serial queue-pair charges) takes longer than a
// single-node boot, so these cells crash later.
const (
	clusterCrashAt = 3 * sim.Millisecond
	clusterAfter   = clusterCrashAt + 100*sim.Microsecond
	clusterSeg     = 16 << 12
)

// nameForShard returns a published name whose home shard is k of s.
func nameForShard(t *testing.T, k, s int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		name := fmt.Sprintf("seg-%d", i)
		if nameserver.ShardOfName(name, s) == k {
			return name
		}
	}
	t.Fatalf("no candidate name homes to shard %d of %d", k, s)
	return ""
}

// TestShardOutageFailsOver: the primary replica of a shard crashes; a
// consumer resolving a name homed there must fail over to the backup
// replica and succeed — and the run must digest identically on rerun.
func TestShardOutageFailsOver(t *testing.T) {
	// Shard 1's primary lives on node 2 (placement: shard k replica r on
	// node k*R+r), so crashing it leaves node 0's root and node 3's
	// backup intact.
	name := nameForShard(t, 1, 2)
	run := func() trace.Digest {
		w := sim.NewWorld(21)
		tr := trace.NewTracer("cluster-matrix-failover")
		tr.SetKeepEvents(false)
		w.SetObserver(tr)
		cl, err := cluster.NewInWorld(w, cluster.Config{Nodes: 4, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		victim := cl.Nodes[2].X.LinuxModule()
		inj := fault.New(w, fault.Plan{Crashes: []fault.Crash{{At: clusterCrashAt, Module: victim.Name()}}})
		inj.Arm()

		prod, heap, err := cl.Nodes[1].X.KittenProcess(cl.Nodes[1].CK, "prod", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		cons, _ := cl.Nodes[0].X.LinuxProcess("cons", 1)
		w.Spawn("prod", func(a *sim.Actor) {
			cl.WaitReady(a)
			if _, err := prod.Write(heap.Base, []byte("failover")); err != nil {
				t.Error(err)
				return
			}
			if _, err := prod.Make(a, heap.Base, clusterSeg, xpmem.PermRead, name); err != nil {
				t.Error(err)
			}
		})
		w.Spawn("cons", func(a *sim.Actor) {
			cl.WaitReady(a)
			// Pre-crash: the lookup resolves at the primary.
			if !a.Retry(20*sim.Microsecond, a.Now()+sim.Millisecond, func() bool {
				_, err := cons.Lookup(a, name)
				return err == nil
			}) {
				t.Error("pre-crash lookup never resolved")
				return
			}
			a.AdvanceTo(clusterAfter)
			// Post-crash: the primary is dead; the replica list must carry
			// the lookup to the backup, typed success not typed failure.
			segid, err := cons.Lookup(a, name)
			if err != nil {
				t.Errorf("post-crash lookup = %v, want failover success", err)
				return
			}
			apid, err := cons.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: sim.Millisecond})
			if err != nil {
				t.Errorf("post-crash get = %v, want success (owner alive)", err)
				return
			}
			if err := cons.Release(a, segid, apid); err != nil {
				t.Error(err)
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		if !victim.Stopped() {
			t.Fatal("victim replica not marked crashed")
		}
		if cl.Nodes[0].X.LinuxModule().ShardStats.ShardFailovers == 0 {
			t.Fatal("consumer never advanced along the replica list")
		}
		return tr.Digest()
	}
	if first, second := run(), run(); first.SHA256 != second.SHA256 {
		t.Fatalf("faulted run not reproducible:\n  %+v\n  %+v", first, second)
	}
}

// TestShardOutageExhaustsReplicas: with a replication factor of one, the
// home shard's only replica crashing leaves the name unresolvable — the
// failure must surface as typed ErrEnclaveDown, not a hang or a
// misleading no-such-segment.
func TestShardOutageExhaustsReplicas(t *testing.T) {
	name := nameForShard(t, 1, 2)
	run := func() trace.Digest {
		w := sim.NewWorld(22)
		tr := trace.NewTracer("cluster-matrix-outage")
		tr.SetKeepEvents(false)
		w.SetObserver(tr)
		cl, err := cluster.NewInWorld(w, cluster.Config{Nodes: 2, Shards: 2, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		victim := cl.Nodes[1].X.LinuxModule()
		inj := fault.New(w, fault.Plan{Crashes: []fault.Crash{{At: clusterCrashAt, Module: victim.Name()}}})
		inj.Arm()

		prod, heap, err := cl.Nodes[0].X.KittenProcess(cl.Nodes[0].CK, "prod", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		cons, _ := cl.Nodes[0].X.LinuxProcess("cons", 1)
		w.Spawn("prod", func(a *sim.Actor) {
			cl.WaitReady(a)
			if _, err := prod.Make(a, heap.Base, clusterSeg, xpmem.PermRead, name); err != nil {
				t.Error(err)
			}
		})
		w.Spawn("cons", func(a *sim.Actor) {
			cl.WaitReady(a)
			if !a.Retry(20*sim.Microsecond, a.Now()+sim.Millisecond, func() bool {
				_, err := cons.Lookup(a, name)
				return err == nil
			}) {
				t.Error("pre-crash lookup never resolved")
				return
			}
			a.AdvanceTo(clusterAfter)
			if _, err := cons.Lookup(a, name); !errors.Is(err, xpmem.ErrEnclaveDown) {
				t.Errorf("lookup with every replica dead = %v, want ErrEnclaveDown", err)
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.Digest()
	}
	if first, second := run(), run(); first.SHA256 != second.SHA256 {
		t.Fatalf("faulted run not reproducible:\n  %+v\n  %+v", first, second)
	}
}

// TestStaleLeaseSurfacesTimeout: a consumer holding a valid lease when
// the segment's owner dies — and, unlike the fanout path, never told
// about the death (only the victim is registered with the injector) —
// must hit the full stale-lease sequence: lease hit, request into the
// void, lease dropped as stale, re-resolution at the shard (which also
// still believes the owner alive), and a fresh request that times out
// for real. The surfaced error is attributable ErrTimeout.
func TestStaleLeaseSurfacesTimeout(t *testing.T) {
	run := func() trace.Digest {
		w := sim.NewWorld(23)
		tr := trace.NewTracer("cluster-matrix-stale-lease")
		tr.SetKeepEvents(false)
		w.SetObserver(tr)
		cl, err := cluster.NewInWorld(w, cluster.Config{
			Nodes: 4, Shards: 2,
			// A TTL outlasting the whole run: the lease goes stale through
			// owner death, never through expiry.
			LeaseTTL: sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The victim dies without announcing it: survivors learn
		// nothing, so leases dangle. The installed injector bounds every
		// request's wait.
		fault.New(w, fault.Plan{})
		victim := cl.Nodes[1].CK.Module
		w.Spawn("crash", func(a *sim.Actor) {
			a.SetDaemon()
			a.AdvanceTo(clusterCrashAt)
			victim.Crash(a)
		})

		prod, heap, err := cl.Nodes[1].X.KittenProcess(cl.Nodes[1].CK, "prod", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		cons, _ := cl.Nodes[0].X.LinuxProcess("cons", 1)
		consMod := cl.Nodes[0].X.LinuxModule()
		w.Spawn("prod", func(a *sim.Actor) {
			cl.WaitReady(a)
			if _, err := prod.Make(a, heap.Base, clusterSeg, xpmem.PermRead, "stale-lease"); err != nil {
				t.Error(err)
			}
		})
		w.Spawn("cons", func(a *sim.Actor) {
			cl.WaitReady(a)
			var segid xpmem.Segid
			if !a.Retry(20*sim.Microsecond, a.Now()+sim.Millisecond, func() bool {
				s, err := cons.Lookup(a, "stale-lease")
				if err != nil {
					return false
				}
				segid = s
				return true
			}) {
				t.Error("pre-crash lookup never resolved")
				return
			}
			// Populate the lease cache with the owner while it lives.
			apid, err := cons.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: sim.Millisecond})
			if err != nil {
				t.Errorf("pre-crash get = %v", err)
				return
			}
			if err := cons.Release(a, segid, apid); err != nil {
				t.Error(err)
				return
			}
			stale := consMod.ShardStats.LeaseStale
			a.AdvanceTo(clusterAfter)
			if _, err := cons.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead, Timeout: 200 * sim.Microsecond}); !errors.Is(err, core.ErrTimeout) {
				t.Errorf("get through dangling lease = %v, want ErrTimeout", err)
			}
			if consMod.ShardStats.LeaseStale != stale+1 {
				t.Errorf("stale-lease repair did not fire: LeaseStale %d -> %d", stale, consMod.ShardStats.LeaseStale)
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return tr.Digest()
	}
	if first, second := run(), run(); first.SHA256 != second.SHA256 {
		t.Fatalf("faulted run not reproducible:\n  %+v\n  %+v", first, second)
	}
}

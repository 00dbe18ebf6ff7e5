package core_test

// Name-service path tests: a name-service command fails with the same
// typed error from every placement relative to the name service, and
// the sharded remove and the root's forwarded-request refusals do what
// they say.

import (
	"errors"
	"fmt"
	"testing"

	"xemem"
	"xemem/internal/cluster"
	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/linuxos"
	"xemem/internal/nameserver"
	"xemem/internal/pagetable"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// nsCaller is one enclave issuing name-service commands: its module and
// a process with a page-aligned buffer to export.
type nsCaller struct {
	name string
	mod  *core.Module
	p    *proc.Process
	va   pagetable.VA
}

func linuxCaller(t *testing.T, name string, l *linuxos.Linux, mod *core.Module) nsCaller {
	t.Helper()
	p := l.NewProcess(name, 1)
	r, err := l.Alloc(p, name, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	return nsCaller{name: name, mod: mod, p: p, va: r.Base}
}

func kittenCaller(t *testing.T, name string, ck *pisces.CoKernel) nsCaller {
	t.Helper()
	p, heap, err := ck.OS.NewProcess(name, 4)
	if err != nil {
		t.Fatal(err)
	}
	return nsCaller{name: name, mod: ck.Module, p: p, va: heap.Base}
}

// wantOpErr fails unless err is an *OpError labelled op and name around
// the sentinel want.
func wantOpErr(t *testing.T, who string, err, want error, op, name string) {
	t.Helper()
	var oe *core.OpError
	if !errors.As(err, &oe) || !errors.Is(err, want) || oe.Op != op || oe.Name != name {
		t.Errorf("%s: got %v (%T), want *OpError{Op: %q, Name: %q} around %v", who, err, err, op, name, want)
	}
}

// checkNSErrors has owner publish taken, then has every caller make a
// segment under the same name and look up missing: each must get the
// same typed errors, and the failed make must leave the owner's binding
// intact.
func checkNSErrors(t *testing.T, a *sim.Actor, owner nsCaller, callers []nsCaller, taken, missing string) {
	segid, err := owner.mod.Make(a, owner.p, owner.va, extent.PageSize, xproto.PermRead, taken)
	if err != nil {
		t.Errorf("%s: make %q: %v", owner.name, taken, err)
		return
	}
	for _, c := range callers {
		_, err := c.mod.Make(a, c.p, c.va, extent.PageSize, xproto.PermRead, taken)
		wantOpErr(t, c.name+" duplicate make", err, core.ErrPermission, "publish", taken)
		_, err = c.mod.Lookup(a, missing)
		wantOpErr(t, c.name+" missing lookup", err, core.ErrNoSuchSegid, "lookup", missing)
		if got, err := c.mod.Lookup(a, taken); err != nil || got != segid {
			t.Errorf("%s: lookup %q after the failed make = %d, %v; want %d", c.name, taken, got, err, segid)
		}
	}
}

// TestNSErrorsIndependentOfPlacement: a duplicate-name Make and a
// missing-name Lookup fail identically from the enclave hosting the name
// server, a co-kernel one hop out, a VM guest two hops out, and, in a
// sharded cluster, from the primary replica of the names' home shard and
// from a co-kernel hosting no shard.
func TestNSErrorsIndependentOfPlacement(t *testing.T) {
	t.Run("node", func(t *testing.T) {
		n := xemem.NewNode(xemem.NodeConfig{Seed: 3, MemBytes: 1 << 30})
		ck, err := n.BootCoKernel("kitten", 128<<20)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := n.BootVMOnCoKernel("vm", ck, 32<<20, 1)
		if err != nil {
			t.Fatal(err)
		}
		owner := linuxCaller(t, "owner", n.Linux(), n.LinuxModule())
		callers := []nsCaller{
			linuxCaller(t, "ns-host", n.Linux(), n.LinuxModule()),
			kittenCaller(t, "kitten", ck),
			linuxCaller(t, "vm-guest", vm.Guest, vm.Module),
		}
		n.Spawn("driver", func(a *sim.Actor) {
			checkNSErrors(t, a, owner, callers, "taken", "missing")
		})
		if err := n.Run(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("sharded", func(t *testing.T) {
		// Shard 1's primary replica is node 2's management enclave.
		taken, missing := nameForShard(t, "taken", 1, 2), nameForShard(t, "missing", 1, 2)
		w := sim.NewWorld(3)
		cl, err := cluster.NewInWorld(w, cluster.Config{Nodes: 4, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		host := cl.Nodes[2].X
		owner := kittenCaller(t, "owner", cl.Nodes[3].CK)
		callers := []nsCaller{
			linuxCaller(t, "shard-host", host.Linux(), host.LinuxModule()),
			kittenCaller(t, "non-host", cl.Nodes[0].CK),
		}
		w.Spawn("driver", func(a *sim.Actor) {
			cl.WaitReady(a)
			checkNSErrors(t, a, owner, callers, taken, missing)
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
	})
}

// nameForShard returns a name with the given prefix whose home shard is
// k of n.
func nameForShard(t *testing.T, prefix string, k, n int) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		if name := fmt.Sprintf("%s-%d", prefix, i); nameserver.ShardOfName(name, n) == k {
			return name
		}
	}
	t.Fatalf("no %s-* name homes to shard %d of %d", prefix, k, n)
	return ""
}

// TestShardedRemove: a sharded Remove, issued by an owner hosting the
// segid's home-shard primary and by an owner hosting no shard, retires
// the registration at the primary and its backup, and a later Get from
// a third enclave fails with ErrNoSuchSegid.
func TestShardedRemove(t *testing.T) {
	w := sim.NewWorld(5)
	cl, err := cluster.NewInWorld(w, cluster.Config{Nodes: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	host := cl.Nodes[2].X
	owners := []nsCaller{
		linuxCaller(t, "shard-host", host.Linux(), host.LinuxModule()),
		kittenCaller(t, "non-host", cl.Nodes[1].CK),
	}
	getter := cl.Nodes[3].CK.Module
	gp, _, err := cl.Nodes[3].CK.OS.NewProcess("getter", 1)
	if err != nil {
		t.Fatal(err)
	}
	segids := make([]xproto.Segid, len(owners))
	w.Spawn("driver", func(a *sim.Actor) {
		cl.WaitReady(a)
		for i, o := range owners {
			segid, err := o.mod.Make(a, o.p, o.va, extent.PageSize, xproto.PermRead, "")
			if err != nil {
				t.Errorf("%s: make: %v", o.name, err)
				return
			}
			segids[i] = segid
			if err := o.mod.Remove(a, o.p, segid); err != nil {
				t.Errorf("%s: remove: %v", o.name, err)
				return
			}
		}
		a.Advance(100 * sim.Microsecond) // let the removes and their syncs land
		for i, segid := range segids {
			_, err := getter.GetWith(a, gp, segid, core.GetOpts{})
			if !errors.Is(err, core.ErrNoSuchSegid) {
				t.Errorf("%s: get after remove: %v, want ErrNoSuchSegid", owners[i].name, err)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i, segid := range segids {
		k := nameserver.ShardOf(segid, len(cl.Map.Replicas))
		for r := range cl.Map.Replicas[k] {
			ns := cl.Nodes[2*k+r].X.LinuxModule().NS
			if _, ok := ns.Owner(segid); ok {
				t.Errorf("%s: segid %d still registered at shard %d replica %d", owners[i].name, segid, k, r)
			}
		}
	}
}

// TestForwardedRequestRefusals: a Get or Attach forwarded to the root
// name server for a segid it cannot resolve is answered there — not found
// for an unknown segid, enclave down for one whose owner crashed — and
// the requester gets the matching typed error.
func TestForwardedRequestRefusals(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	owner := n.addKitten(t, "owner", 32<<20)
	req := n.addKitten(t, "requester", 32<<20)
	kp, heap, err := owner.OS.NewProcess("exp", 4)
	if err != nil {
		t.Fatal(err)
	}
	rp, _, err := req.OS.NewProcess("req", 1)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(t *testing.T, a *sim.Actor, segid xproto.Segid, want error) {
		if _, err := req.Module.GetWith(a, rp, segid, core.GetOpts{}); !errors.Is(err, want) {
			t.Errorf("get segid %d: %v, want %v", segid, err, want)
		}
		if _, err := req.Module.AttachWith(a, rp, segid, 1, core.AttachOpts{}); !errors.Is(err, want) {
			t.Errorf("attach segid %d: %v, want %v", segid, err, want)
		}
	}
	n.w.Spawn("driver", func(a *sim.Actor) {
		probe(t, a, xproto.Segid(0xbadf00d), core.ErrNoSuchSegid)
		segid, err := owner.Module.Make(a, kp, heap.Base, extent.PageSize, xproto.PermRead, "")
		if err != nil {
			t.Error(err)
			return
		}
		// Only the name server learns of the crash, so the requester
		// still sends its commands there.
		owner.Module.Crash(a)
		n.lmod.OnEnclaveDown(a, owner.Module.EnclaveID())
		probe(t, a, segid, core.ErrEnclaveDown)
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
}

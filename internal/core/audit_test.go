package core_test

import (
	"fmt"
	"strings"
	"testing"

	"xemem/internal/cluster"
	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/nameserver"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// TestWorldEndAuditMutations ends a world holding one live local
// attachment and one detached remote one, checks that the audit passes,
// then breaks one invariant at a time: each broken world must fail the
// audit with an error naming the component and the invariant, and
// restoring the state must make it pass again.
func TestWorldEndAuditMutations(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck := n.addKitten(t, "kitten0", 64<<20)
	const pages = 8
	kp, heap, err := ck.OS.NewProcess("exporter", 64)
	if err != nil {
		t.Fatal(err)
	}
	lexp := n.linux.NewProcess("lexp", 1)
	latt := n.linux.NewProcess("latt", 2)
	lbuf, err := n.linux.Alloc(lexp, "buf", pages, true)
	if err != nil {
		t.Fatal(err)
	}
	var remote, local, gone xproto.Segid
	var localVA pagetable.VA
	n.w.Spawn("driver", func(a *sim.Actor) {
		rw := xproto.PermRead | xproto.PermWrite
		var err error
		if remote, err = ck.Module.Make(a, kp, heap.Base, pages*extent.PageSize, rw, "remote"); err != nil {
			t.Error(err)
			return
		}
		apid, err := n.lmod.GetWith(a, latt, remote, core.GetOpts{Perm: rw})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := n.lmod.AttachWith(a, latt, remote, apid, core.AttachOpts{Perm: rw})
		if err != nil {
			t.Error(err)
			return
		}
		if err := n.lmod.Detach(a, latt, va); err != nil {
			t.Error(err)
			return
		}
		if local, err = n.lmod.Make(a, lexp, lbuf.Base, pages*extent.PageSize, rw, "local"); err != nil {
			t.Error(err)
			return
		}
		if apid, err = n.lmod.GetWith(a, latt, local, core.GetOpts{Perm: rw}); err != nil {
			t.Error(err)
			return
		}
		if localVA, err = n.lmod.AttachWith(a, latt, local, apid, core.AttachOpts{Perm: rw}); err != nil {
			t.Error(err)
			return
		}
		if _, err := latt.AS.Write(localVA, []byte("touch")); err != nil {
			t.Error(err)
		}
		if gone, err = n.lmod.Make(a, lexp, lbuf.Base, extent.PageSize, rw, ""); err != nil {
			t.Error(err)
			return
		}
		if err := n.lmod.Remove(a, lexp, gone); err != nil {
			t.Error(err)
		}
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n.w.Audit(); err != nil {
		t.Fatalf("consistent world failed its audit: %v", err)
	}
	pt := latt.AS.PageTable()
	mapped, flags, _, ok := pt.Walk(localVA)
	if !ok {
		t.Fatal("the write left the local attachment unmapped")
	}
	remap := func(f extent.PFN) {
		if err := pt.Unmap(localVA, 1); err != nil {
			t.Fatal(err)
		}
		if err := pt.Map(localVA, f, flags); err != nil {
			t.Fatal(err)
		}
	}
	someLink := n.lmod.Links()[0]
	kid := ck.Module.EnclaveID()

	for _, tc := range []struct {
		name         string
		break_, heal func()
		want         string
	}{
		{"leaked pin",
			func() { n.pm.Pin(heap.Backing) },
			func() { _ = n.pm.Unpin(heap.Backing) },
			"audit core: host memory node0: 1 extent(s) still pinned with every attachment detached"},
		{"bumped attaches",
			func() { core.BumpAttaches(ck.Module, remote, 1) },
			func() { core.BumpAttaches(ck.Module, remote, -1) },
			"audit core: module kitten0: segment " + fmt.Sprint(remote) + ": attaches is 1, but 0 live"},
		{"remapped local PTE",
			func() { remap(mapped + 1) },
			func() { remap(mapped) },
			"audit core: module linux: local attachment of segid " + fmt.Sprint(local)},
		{"stale registration",
			func() { n.lmod.NS.SyncRegister(0x9999, ck.Module.EnclaveID()) },
			func() { n.lmod.NS.SyncRemove(0x9999) },
			"audit core: module linux: name server registers segid 39321 to enclave 2, which does not hold it"},
		{"name without registration",
			func() { _ = n.lmod.NS.BindName("ghost", 0x1234) },
			func() { n.lmod.NS.SyncRemove(0x1234) },
			"audit core: module linux: name server: segid 4660 is named but not registered"},
		{"unregistered segment",
			func() { n.lmod.NS.SyncRemove(local) },
			func() {
				n.lmod.NS.SyncRegister(local, n.lmod.EnclaveID())
				_ = n.lmod.NS.BindName("local", local)
			},
			"audit core: module linux: live segment " + fmt.Sprint(local) + " is not registered to it"},
		{"removed segment still registered",
			func() { n.lmod.NS.SyncRegister(gone, n.lmod.EnclaveID()) },
			func() { n.lmod.NS.SyncRemove(gone) },
			fmt.Sprintf("audit core: module linux: name server still registers segid %d, which its owner removed", gone)},
		{"shared enclave ID",
			func() { ck.Module.R.SetSelf(n.lmod.EnclaveID()) },
			func() { ck.Module.R.SetSelf(kid) },
			"audit core: modules linux and kitten0 both hold enclave ID 1"},
		{"route to itself",
			func() { n.lmod.R.Learn(n.lmod.EnclaveID(), someLink) },
			func() { n.lmod.R.Forget(n.lmod.EnclaveID()) },
			"audit core: module linux: router holds a route to its own enclave 1"},
		{"route to nowhere",
			func() { n.lmod.R.Learn(77, someLink) },
			func() { n.lmod.R.Forget(77) },
			"audit core: module linux: router holds a route to enclave 77, which no module holds"},
		{"stranded hop",
			func() { _ = n.lmod.R.TrackHop(5, someLink) },
			func() { n.lmod.R.TakeHop(5) },
			"audit core: module linux: router has 1 hop-routed request(s) outstanding"},
	} {
		tc.break_()
		err := n.w.Audit()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit = %v, want %q", tc.name, err, tc.want)
		}
		tc.heal()
		if err := n.w.Audit(); err != nil {
			t.Fatalf("%s: healed world still fails: %v", tc.name, err)
		}
	}
}

// TestWorldEndAuditShards ends a two-node sharded cluster world after a
// cross-node attach, detach and lease-cached get, checks that the audit
// passes, then breaks the shard state one invariant at a time.
func TestWorldEndAuditShards(t *testing.T) {
	w := sim.NewWorld(7)
	cl, err := cluster.NewInWorld(w, cluster.Config{Nodes: 2, Shards: 2, Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	prod, heap, err := cl.Nodes[1].X.KittenProcess(cl.Nodes[1].CK, "producer", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	cons, _ := cl.Nodes[0].X.LinuxProcess("consumer", 1)
	var segid xproto.Segid
	w.Spawn("driver", func(a *sim.Actor) {
		cl.WaitReady(a)
		var err error
		if segid, err = prod.Make(a, heap.Base, 16*extent.PageSize, xproto.PermRead, "cseg"); err != nil {
			t.Error(err)
			return
		}
		apid, err := cons.GetWith(a, segid, core.GetOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		va, err := cons.AttachWith(a, segid, apid, core.AttachOpts{Perm: xproto.PermRead})
		if err != nil {
			t.Error(err)
			return
		}
		if err := cons.Detach(a, va); err != nil {
			t.Error(err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if err := w.Audit(); err != nil {
		t.Fatalf("consistent cluster failed its audit: %v", err)
	}
	consMod := cons.Module()
	owner := prod.Module().EnclaveID()
	home := nameserver.ShardOf(segid, 2)
	foreign := cl.Nodes[1-home].X.LinuxModule() // hosts the other shard only
	shared := *cl.Map
	_, hadName := foreign.NS.Binding("cseg")

	for _, tc := range []struct {
		name         string
		break_, heal func()
		want         string
	}{
		{"foreign registration",
			func() { foreign.NS.SyncRegister(segid, owner) },
			func() {
				foreign.NS.SyncRemove(segid) // drops the name too: rebind it
				if hadName {
					_ = foreign.NS.BindName("cseg", segid)
				}
			},
			fmt.Sprintf("name server registers segid %d outside the shards it serves", segid)},
		{"diverged shard map",
			func() { consMod.SetShardMap(&shared) },
			func() { consMod.SetShardMap(cl.Map) },
			"holds a shard map other modules do not share"},
		{"replica without an instance",
			func() { cl.Map.Replicas[home] = append(cl.Map.Replicas[home], prod.Module().EnclaveID()) },
			func() { cl.Map.Replicas[home] = cl.Map.Replicas[home][:1] },
			fmt.Sprintf("shard %d: replica enclave %d", home, owner)},
		{"lease to a non-owner",
			func() { core.SetLease(consMod, segid, consMod.EnclaveID()) },
			func() { core.SetLease(consMod, segid, xproto.NoEnclave) },
			fmt.Sprintf("lease for segid %d names enclave %d, which does not own it", segid, consMod.EnclaveID())},
	} {
		tc.break_()
		err := w.Audit()
		if err == nil || !strings.Contains(err.Error(), "audit core: ") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: audit = %v, want %q", tc.name, err, tc.want)
		}
		tc.heal()
		if err := w.Audit(); err != nil {
			t.Fatalf("%s: healed world still fails: %v", tc.name, err)
		}
	}
}

package core_test

import (
	"fmt"
	"testing"

	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/pagetable"
	"xemem/internal/palacios"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// pv converts a byte offset to a virtual-address delta.
func pv(off uint64) pagetable.VA { return pagetable.VA(off) }

// TestProtocolRandomizedWorkload drives three enclaves (two co-kernels
// and a VM guest) through long, randomized, interleaved sequences of the
// full XPMEM operation set, then verifies the global invariants:
//
//   - every attachment observed consistent data (the exporter seeds each
//     page of each segment with a recognizable pattern);
//   - after all actors detach and release everything, no frame pin
//     survives anywhere on the node;
//   - the name server's live-segment registry drains to empty after
//     removals;
//   - no kernel dropped or failed to decode a message.
func TestProtocolRandomizedWorkload(t *testing.T) {
	n := newTestNode(t)
	n.lmod.Start()
	ck0 := n.addKitten(t, "kitten0", 128<<20)
	ck1 := n.addKitten(t, "kitten1", 128<<20)
	vm, err := palacios.Launch("vm0", n.w, n.costs, n.pm, n.linux.Zone(), 128<<20, 1, n.lmod, palacios.RBTree)
	if err != nil {
		t.Fatal(err)
	}

	// Exporters: one process per kitten, each exporting 8 named segments
	// of varying sizes, seeded with per-segment patterns.
	kp0, heap0, err := ck0.OS.NewProcess("exp0", 512)
	if err != nil {
		t.Fatal(err)
	}
	kp1, heap1, err := ck1.OS.NewProcess("exp1", 512)
	if err != nil {
		t.Fatal(err)
	}

	seedPattern := func(tt *testing.T, write func(off uint64, b []byte) error, tag byte, pages uint64) {
		for p := uint64(0); p < pages; p++ {
			if err := write(p*extent.PageSize, []byte{tag, byte(p), tag ^ 0xff}); err != nil {
				tt.Fatal(err)
			}
		}
	}
	seedPattern(t, func(off uint64, b []byte) error {
		_, err := kp0.AS.Write(heap0.Base+pv(off), b)
		return err
	}, 0xA0, 512)
	seedPattern(t, func(off uint64, b []byte) error {
		_, err := kp1.AS.Write(heap1.Base+pv(off), b)
		return err
	}, 0xB0, 512)

	// The two exporters publish segments covering sub-ranges.
	n.w.Spawn("exporter0", func(a *sim.Actor) {
		for i := 0; i < 8; i++ {
			pages := uint64(8 << (i % 4)) // 8..64 pages
			off := uint64(i) * 64
			name := fmt.Sprintf("seg0-%d", i)
			if _, err := ck0.Module.Make(a, kp0, heap0.Base+pv(off*extent.PageSize), pages*extent.PageSize, xproto.PermRead|xproto.PermWrite, name); err != nil {
				t.Error(err)
				return
			}
		}
	})
	n.w.Spawn("exporter1", func(a *sim.Actor) {
		for i := 0; i < 8; i++ {
			pages := uint64(8 << (i % 4))
			off := uint64(i) * 64
			name := fmt.Sprintf("seg1-%d", i)
			if _, err := ck1.Module.Make(a, kp1, heap1.Base+pv(off*extent.PageSize), pages*extent.PageSize, xproto.PermRead|xproto.PermWrite, name); err != nil {
				t.Error(err)
				return
			}
		}
	})

	// Attackers: Linux natives and the VM guest, randomly cycling
	// lookup → get → attach → verify → detach → release.
	attackersDone := 0
	attacker := func(name string, mod *core.Module, p *proc.Process, verify bool) {
		n.w.Spawn(name, func(a *sim.Actor) {
			rng := a.RNG()
			// Wait for all 16 exports.
			a.PollDeadline(50*sim.Microsecond, sim.Forever, func() bool {
				_, err0 := mod.Lookup(a, "seg0-7")
				_, err1 := mod.Lookup(a, "seg1-7")
				return err0 == nil && err1 == nil
			})
			for op := 0; op < 60; op++ {
				segName := fmt.Sprintf("seg%d-%d", rng.Intn(2), rng.Intn(8))
				segid, err := mod.Lookup(a, segName)
				if err != nil {
					t.Errorf("%s: lookup %s: %v", name, segName, err)
					return
				}
				apid, err := mod.GetWith(a, p, segid, core.GetOpts{Perm: xproto.PermRead})
				if err != nil {
					t.Errorf("%s: get: %v", name, err)
					return
				}
				va, err := mod.AttachWith(a, p, segid, apid, core.AttachOpts{Bytes: 8 * extent.PageSize, Perm: xproto.PermRead})
				if err != nil {
					t.Errorf("%s: attach %s: %v", name, segName, err)
					return
				}
				if verify {
					var want byte = 0xA0
					if segName[3] == '1' {
						want = 0xB0
					}
					buf := make([]byte, 3)
					if _, err := p.AS.Read(va, buf); err != nil {
						t.Errorf("%s: read: %v", name, err)
						return
					}
					if buf[0] != want || buf[2] != want^0xff {
						t.Errorf("%s: data corruption on %s: % x", name, segName, buf)
						return
					}
				}
				a.Advance(sim.Time(rng.Uint64n(uint64(100 * sim.Microsecond))))
				if err := mod.Detach(a, p, va); err != nil {
					t.Errorf("%s: detach: %v", name, err)
					return
				}
				if err := mod.Release(a, p, segid, apid); err != nil {
					t.Errorf("%s: release: %v", name, err)
					return
				}
			}
			attackersDone++
		})
	}

	lp1 := n.linux.NewProcess("att1", 1)
	lp2 := n.linux.NewProcess("att2", 2)
	gp := vm.Guest.NewProcess("attg", 0)
	attacker("linux-att1", n.lmod, lp1, true)
	attacker("linux-att2", n.lmod, lp2, true)
	attacker("guest-att", vm.Module, gp, true)

	// Drain: once every attacker has finished, remove all exports.
	n.w.Spawn("cleanup", func(a *sim.Actor) {
		a.PollDeadline(100*sim.Microsecond, sim.Forever, func() bool { return attackersDone == 3 })
		for i := 0; i < 8; i++ {
			s0, err := ck0.Module.Lookup(a, fmt.Sprintf("seg0-%d", i))
			if err == nil {
				if err := ck0.Module.Remove(a, kp0, s0); err != nil {
					t.Error(err)
				}
			}
			s1, err := ck1.Module.Lookup(a, fmt.Sprintf("seg1-%d", i))
			if err == nil {
				if err := ck1.Module.Remove(a, kp1, s1); err != nil {
					t.Error(err)
				}
			}
		}
		a.Advance(sim.Millisecond) // let stragglers drain
	})
	if err := n.w.Run(); err != nil {
		t.Fatal(err)
	}

	// Invariants.
	for _, heap := range []struct {
		backing extent.List
	}{{heap0.Backing}, {heap1.Backing}} {
		for i := uint64(0); i < heap.backing.Pages(); i += 7 {
			f, _ := heap.backing.Page(i)
			if n.pm.Pinned(f) != 0 {
				t.Fatalf("frame %#x still pinned after full drain", uint64(f))
			}
		}
	}
	if live := n.lmod.NS.LiveSegids(); live != 0 {
		t.Fatalf("%d segids survive removal", live)
	}
	for _, m := range []*core.Module{n.lmod, ck0.Module, ck1.Module, vm.Module} {
		if m.Stats.DecodeErrors != 0 {
			t.Fatalf("%s: %d decode errors", m.Name(), m.Stats.DecodeErrors)
		}
	}
}

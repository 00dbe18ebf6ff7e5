package rdma

import (
	"testing"

	"xemem/internal/sim"
)

func TestBandwidthApproachesLine(t *testing.T) {
	w := sim.NewWorld(1)
	costs := w.Costs()
	dev := NewDevice("ib0")
	vf := dev.NewVF("vf0")
	var bw float64
	w.Spawn("tester", func(a *sim.Actor) {
		got, err := vf.BandwidthTest(a, 128<<20, 20)
		if err != nil {
			t.Error(err)
			return
		}
		bw = got
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Large transfers approach but never exceed the configured line rate.
	if bw > costs.RDMABandwidth {
		t.Fatalf("measured %.3g B/s exceeds line rate %.3g", bw, costs.RDMABandwidth)
	}
	if bw < 0.8*costs.RDMABandwidth {
		t.Fatalf("measured %.3g B/s, far below line rate %.3g", bw, costs.RDMABandwidth)
	}
}

func TestSmallTransfersOverheadBound(t *testing.T) {
	w := sim.NewWorld(1)
	dev := NewDevice("ib0")
	vf := dev.NewVF("vf0")
	var small, large float64
	w.Spawn("tester", func(a *sim.Actor) {
		s, err := vf.BandwidthTest(a, 4096, 100)
		if err != nil {
			t.Error(err)
			return
		}
		small = s
		l, err := vf.BandwidthTest(a, 64<<20, 10)
		if err != nil {
			t.Error(err)
			return
		}
		large = l
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if small >= large {
		t.Fatalf("small transfers (%.3g) should be overhead-bound below large (%.3g)", small, large)
	}
}

func TestSharedWireSerializes(t *testing.T) {
	w := sim.NewWorld(1)
	costs := w.Costs()
	dev := NewDevice("ib0")
	vfA, vfB := dev.NewVF("a"), dev.NewVF("b")
	var aBW, bBW float64
	w.Spawn("a", func(a *sim.Actor) {
		got, _ := vfA.BandwidthTest(a, 32<<20, 20)
		aBW = got
	})
	w.Spawn("b", func(a *sim.Actor) {
		got, _ := vfB.BandwidthTest(a, 32<<20, 20)
		bBW = got
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Two VFs share the device: each gets roughly half the line rate.
	if aBW > 0.65*costs.RDMABandwidth || bBW > 0.65*costs.RDMABandwidth {
		t.Fatalf("contending VFs exceeded fair share: %.3g / %.3g", aBW, bBW)
	}
}

// fabricStream times reps back-to-back transfers over the given fabric
// pairs, one actor per pair, returning each actor's finish time.
func fabricStream(t *testing.T, f *Fabric, pairs [][2]int, size, reps int) []sim.Time {
	t.Helper()
	w := sim.NewWorld(1)
	finish := make([]sim.Time, len(pairs))
	for i, p := range pairs {
		i, p := i, p
		w.Spawn("stream", func(a *sim.Actor) {
			for r := 0; r < reps; r++ {
				if err := f.Transfer(a, p[0], p[1], size); err != nil {
					t.Error(err)
					return
				}
			}
			finish[i] = a.Now()
		})
	}
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return finish
}

func TestFabricDisjointPairsStream(t *testing.T) {
	// 0->1 alone, then 0->1 and 2->3 together: disjoint pairs share no
	// wire, so adding the second stream must not slow the first.
	solo := fabricStream(t, NewFabric("f", 4), [][2]int{{0, 1}}, 32<<20, 10)
	both := fabricStream(t, NewFabric("f", 4), [][2]int{{0, 1}, {2, 3}}, 32<<20, 10)
	if both[0] != solo[0] || both[1] != solo[0] {
		t.Fatalf("disjoint pairs interfered: solo %v, together %v", solo[0], both)
	}
}

func TestFabricSharedIngressSerializes(t *testing.T) {
	// Each sender alternates its own egress and the destination ingress,
	// so one port sustains two interleaved senders; three oversubscribe
	// it (demand 1.5x capacity) and must back up behind each other.
	disjoint := fabricStream(t, NewFabric("f", 6),
		[][2]int{{0, 3}, {1, 4}, {2, 5}}, 32<<20, 10)
	hot := fabricStream(t, NewFabric("f", 6),
		[][2]int{{0, 3}, {1, 3}, {2, 3}}, 32<<20, 10)
	var dMax, hMax sim.Time
	for i := range hot {
		if disjoint[i] > dMax {
			dMax = disjoint[i]
		}
		if hot[i] > hMax {
			hMax = hot[i]
		}
	}
	if float64(hMax) < 1.4*float64(dMax) {
		t.Fatalf("hot ingress did not serialize: disjoint %v, hot %v", disjoint, hot)
	}
}

func TestFabricInvalidTransfers(t *testing.T) {
	f := NewFabric("f", 2)
	w := sim.NewWorld(1)
	w.Spawn("tester", func(a *sim.Actor) {
		for _, c := range []struct {
			src, dst, n int
		}{
			{0, 0, 4096}, // loopback
			{-1, 1, 4096},
			{0, 2, 4096},
			{0, 1, 0},
		} {
			if err := f.Transfer(a, c.src, c.dst, c.n); err == nil {
				t.Errorf("transfer %d->%d of %d bytes accepted", c.src, c.dst, c.n)
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidWrite(t *testing.T) {
	w := sim.NewWorld(1)
	dev := NewDevice("ib0")
	vf := dev.NewVF("vf0")
	w.Spawn("tester", func(a *sim.Actor) {
		if err := vf.Write(a, 0); err == nil {
			t.Error("zero-byte write accepted")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

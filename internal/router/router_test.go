package router

import (
	"testing"

	"xemem/internal/sim"
	"xemem/internal/xproto"
)

type stubLink string

func (s stubLink) Send(*sim.Actor, *xproto.Message) {}
func (s stubLink) String() string                   { return string(s) }

func TestRouteLearnedAndDefault(t *testing.T) {
	r := New()
	r.SetSelf(3)
	up := stubLink("up")
	down := stubLink("down")
	r.SetNSLink(up)
	r.Learn(7, down)

	if l, ok := r.Route(7); !ok || l != down {
		t.Fatalf("Route(7) = %v %v", l, ok)
	}
	// Unknown enclave: default toward the name server.
	if l, ok := r.Route(99); !ok || l != up {
		t.Fatalf("Route(99) = %v %v", l, ok)
	}
}

func TestRouteUndeliverableAtNS(t *testing.T) {
	r := New()
	r.SetSelf(xproto.NameServerID)
	if _, ok := r.Route(42); ok {
		t.Fatal("NS with no route should report undeliverable")
	}
	if !r.HasPathToNS() {
		t.Fatal("the NS trivially has a path to itself")
	}
}

func TestHasPathToNS(t *testing.T) {
	r := New()
	if r.HasPathToNS() {
		t.Fatal("fresh router should have no NS path")
	}
	r.SetNSLink(stubLink("up"))
	if !r.HasPathToNS() {
		t.Fatal("NS link set but no path reported")
	}
}

func TestLearnIgnoresZero(t *testing.T) {
	r := New()
	r.Learn(xproto.NoEnclave, stubLink("x"))
	if len(r.KnownEnclaves()) != 0 {
		t.Fatal("NoEnclave should not be learnable")
	}
}

func TestHopTracking(t *testing.T) {
	r := New()
	via := stubLink("child")
	if err := r.TrackHop(11, via); err != nil {
		t.Fatal(err)
	}
	if err := r.TrackHop(11, via); err == nil {
		t.Fatal("duplicate hop tracking accepted")
	}
	l, ok := r.TakeHop(11)
	if !ok || l != via {
		t.Fatalf("TakeHop = %v %v", l, ok)
	}
	if _, ok := r.TakeHop(11); ok {
		t.Fatal("hop entry should be consumed")
	}
}

func TestKnownEnclavesSorted(t *testing.T) {
	r := New()
	for _, id := range []xproto.EnclaveID{9, 2, 5} {
		r.Learn(id, stubLink("l"))
	}
	got := r.KnownEnclaves()
	if len(got) != 3 || got[0] != 2 || got[1] != 5 || got[2] != 9 {
		t.Fatalf("KnownEnclaves = %v", got)
	}
}

func TestRouteTableRenders(t *testing.T) {
	r := New()
	r.SetSelf(4)
	r.Learn(6, stubLink("pci0"))
	r.SetNSLink(stubLink("ipi"))
	s := r.RouteTable()
	if s == "" {
		t.Fatal("empty route table string")
	}
}

// The cluster builder's accessors: Self/NSLink expose bootstrap results,
// Knows distinguishes learned mesh routes from the NS fallback, and
// PendingHops lists outstanding hop-routed requests sorted for the
// world-end audit.
func TestAccessorsAndPendingHops(t *testing.T) {
	r := New()
	if r.Self() != xproto.NoEnclave {
		t.Fatalf("Self before bootstrap = %d", r.Self())
	}
	if r.NSLink() != nil {
		t.Fatal("NSLink before bootstrap")
	}
	r.SetSelf(3)
	up := stubLink("up")
	r.SetNSLink(up)
	if r.Self() != 3 || r.NSLink() != up {
		t.Fatalf("accessors = %v %v", r.Self(), r.NSLink())
	}

	r.Learn(7, stubLink("mesh"))
	if !r.Knows(7) || r.Knows(8) {
		t.Fatal("Knows disagrees with the learned routes")
	}
	r.Forget(7)
	if r.Knows(7) {
		t.Fatal("Knows survives Forget")
	}

	if got := r.PendingHops(); len(got) != 0 {
		t.Fatalf("pending hops on a fresh router: %v", got)
	}
	for _, id := range []uint64{9, 4, 6} {
		if err := r.TrackHop(id, up); err != nil {
			t.Fatal(err)
		}
	}
	got := r.PendingHops()
	if len(got) != 3 || got[0] != 4 || got[1] != 6 || got[2] != 9 {
		t.Fatalf("PendingHops = %v, want sorted [4 6 9]", got)
	}
	r.TakeHop(6)
	if got := r.PendingHops(); len(got) != 2 || got[0] != 4 || got[1] != 9 {
		t.Fatalf("PendingHops after take = %v", got)
	}
}

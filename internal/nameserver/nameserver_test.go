package nameserver

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"xemem/internal/xproto"
)

func TestEnclaveIDsUniqueAndSequential(t *testing.T) {
	ns := New()
	a, b := ns.AllocEnclaveID(), ns.AllocEnclaveID()
	if a == b {
		t.Fatal("duplicate enclave IDs")
	}
	if a == xproto.NameServerID || b == xproto.NameServerID {
		t.Fatal("the NS's own ID must never be handed out")
	}
}

func TestSegidLifecycle(t *testing.T) {
	ns := New()
	s, err := ns.AllocSegid(2)
	if err != nil {
		t.Fatal(err)
	}
	if s == xproto.NoSegid {
		t.Fatal("allocated NoSegid")
	}
	owner, ok := ns.Owner(s)
	if !ok || owner != 2 {
		t.Fatalf("owner = %d %v", owner, ok)
	}
	if err := ns.RemoveSegid(s, 3); err == nil {
		t.Fatal("non-owner removal accepted")
	}
	if err := ns.RemoveSegid(s, 2); err != nil {
		t.Fatal(err)
	}
	if _, ok := ns.Owner(s); ok {
		t.Fatal("removed segid still has owner")
	}
	if err := ns.RemoveSegid(s, 2); err == nil {
		t.Fatal("double removal accepted")
	}
}

func TestAllocSegidRequiresIdentity(t *testing.T) {
	ns := New()
	if _, err := ns.AllocSegid(xproto.NoEnclave); err == nil {
		t.Fatal("unidentified enclave allocated a segid")
	}
}

func TestPublishLookup(t *testing.T) {
	ns := New()
	s, _ := ns.AllocSegid(4)
	if err := ns.Publish("sim-output", s, 4); err != nil {
		t.Fatal(err)
	}
	got, ok := ns.Lookup("sim-output")
	if !ok || got != s {
		t.Fatalf("lookup = %d %v", got, ok)
	}
	if _, ok := ns.Lookup("absent"); ok {
		t.Fatal("phantom name resolved")
	}
	// Re-publishing the same binding is idempotent.
	if err := ns.Publish("sim-output", s, 4); err != nil {
		t.Fatal(err)
	}
	// A different segid cannot steal the name.
	s2, _ := ns.AllocSegid(4)
	if err := ns.Publish("sim-output", s2, 4); err == nil {
		t.Fatal("name stolen")
	}
}

func TestPublishValidation(t *testing.T) {
	ns := New()
	s, _ := ns.AllocSegid(4)
	if err := ns.Publish("", s, 4); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := ns.Publish("x", s, 5); err == nil {
		t.Fatal("non-owner publish accepted")
	}
	if err := ns.Publish("x", s+999, 4); err == nil {
		t.Fatal("unknown segid published")
	}
}

func TestRemoveDropsNames(t *testing.T) {
	ns := New()
	s, _ := ns.AllocSegid(2)
	ns.Publish("a", s, 2)
	ns.Publish("b", s, 2)
	if err := ns.RemoveSegid(s, 2); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"a", "b"} {
		if _, ok := ns.Binding(n); ok {
			t.Fatalf("name %q survives removal", n)
		}
	}
}

// Property: segids are unique across arbitrarily many allocations from
// arbitrary enclaves — the core §3.1 guarantee.
func TestSegidUniquenessProperty(t *testing.T) {
	err := quick.Check(func(owners []uint8) bool {
		ns := New()
		seen := map[xproto.Segid]bool{}
		for _, o := range owners {
			s, err := ns.AllocSegid(xproto.EnclaveID(o) + 2)
			if err != nil || seen[s] {
				return false
			}
			seen[s] = true
		}
		return ns.LiveSegids() == len(seen)
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// The shard residue-class contract: shard k of n allocates only segids
// homing to k under ShardOf, cursors stride so replicas sub-striping a
// class can never collide, and names hash to shards deterministically.
func TestConfigureShardResidueClasses(t *testing.T) {
	const n = 4
	seen := map[xproto.Segid]bool{}
	for k := 0; k < n; k++ {
		ns := New()
		ns.ConfigureShard(k, n)
		for i := 0; i < 8; i++ {
			s, err := ns.AllocSegid(2)
			if err != nil {
				t.Fatal(err)
			}
			if ShardOf(s, n) != k {
				t.Fatalf("shard %d allocated segid %d homing to shard %d", k, s, ShardOf(s, n))
			}
			if seen[s] {
				t.Fatalf("segid %d allocated by two shards", s)
			}
			seen[s] = true
		}
	}
}

func TestConfigureShardRejectsBadLayout(t *testing.T) {
	for _, kn := range [][2]int{{0, 0}, {-1, 2}, {2, 2}} {
		kn := kn
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ConfigureShard(%d, %d) accepted", kn[0], kn[1])
				}
			}()
			New().ConfigureShard(kn[0], kn[1])
		}()
	}
}

func TestShardOfNameStableAndInRange(t *testing.T) {
	const n = 5
	for _, name := range []string{"", "a", "sim-output", "warm-seg", "x/y/z"} {
		k := ShardOfName(name, n)
		if k < 0 || k >= n {
			t.Fatalf("ShardOfName(%q, %d) = %d", name, n, k)
		}
		if ShardOfName(name, n) != k {
			t.Fatalf("ShardOfName(%q) unstable", name)
		}
	}
	// The hash actually spreads: not every name on one shard.
	shards := map[int]bool{}
	for _, name := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		shards[ShardOfName(name, n)] = true
	}
	if len(shards) < 2 {
		t.Fatal("ShardOfName maps every probe name to one shard")
	}
}

// Replication entry points: a backup records what the primary decided,
// without touching its own cursor or validating ownership.
func TestSyncRegisterAndRemove(t *testing.T) {
	ns := New()
	ns.ConfigureShard(1, 2)
	before := ns.nextSegid
	ns.SyncRegister(0x2000, 7)
	if ns.nextSegid != before {
		t.Fatal("SyncRegister moved the allocation cursor")
	}
	if owner, ok := ns.Owner(0x2000); !ok || owner != 7 {
		t.Fatalf("synced owner = %d %v", owner, ok)
	}
	if err := ns.BindName("synced", 0x2000); err != nil {
		t.Fatal(err)
	}
	ns.SyncRemove(0x2000)
	if _, ok := ns.Owner(0x2000); ok {
		t.Fatal("synced removal kept the registration")
	}
	if _, ok := ns.Lookup("synced"); ok {
		t.Fatal("synced removal kept the name binding")
	}
}

// BindName is Publish without the ownership check (the binding shard
// cannot see a foreign shard's registration), but keeps first-come
// single-writer semantics.
func TestBindName(t *testing.T) {
	ns := New()
	if err := ns.BindName("", 0x2000); err == nil {
		t.Fatal("empty name bound")
	}
	if err := ns.BindName("n", 0x2000); err != nil {
		t.Fatal(err)
	}
	if err := ns.BindName("n", 0x2000); err != nil {
		t.Fatalf("idempotent rebind rejected: %v", err)
	}
	if err := ns.BindName("n", 0x3000); err == nil {
		t.Fatal("name stolen across segids")
	}
	if s, ok := ns.Lookup("n"); !ok || s != 0x2000 {
		t.Fatalf("lookup = %d %v", s, ok)
	}
}

func TestMarkEnclaveDownKeepsRegistrations(t *testing.T) {
	ns := New()
	s, _ := ns.AllocSegid(4)
	ns.MarkEnclaveDown(4)
	ns.MarkEnclaveDown(4) // idempotent
	ns.MarkEnclaveDown(xproto.NoEnclave)
	if !ns.EnclaveDown(4) || ns.EnclaveDown(5) {
		t.Fatal("down set wrong")
	}
	if ns.EnclavesDowned != 1 {
		t.Fatalf("EnclavesDowned = %d", ns.EnclavesDowned)
	}
	if _, ok := ns.Owner(s); !ok {
		t.Fatal("crash dropped the dead owner's registration")
	}
}

// Audit holds on a registry built through the API and after removals,
// and names the broken index when nameOf drifts from names — a stale
// reverse entry, a missing one, or a duplicate — or a name outlives its
// registration.
func TestAuditNameIndex(t *testing.T) {
	ns := New()
	for i := 0; i < 4; i++ {
		s, err := ns.AllocSegid(xproto.EnclaveID(2 + i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ns.Publish(fmt.Sprintf("seg%d", i), s, xproto.EnclaveID(2+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.RemoveSegid(0x1001, 3); err != nil {
		t.Fatal(err)
	}
	if err := ns.Audit(); err != nil {
		t.Fatalf("consistent registry failed its audit: %v", err)
	}
	for name, mutate := range map[string]func(*NS){
		"stale reverse entry": func(ns *NS) { ns.nameOf[0x1003] = append(ns.nameOf[0x1003], "ghost") },
		"missing reverse":     func(ns *NS) { delete(ns.nameOf, 0x1000) },
		"duplicate reverse":   func(ns *NS) { ns.nameOf[0x1002] = append(ns.nameOf[0x1002], "seg2") },
		"unregistered name":   func(ns *NS) { delete(ns.owners, 0x1000) },
	} {
		c := New()
		for _, s := range ns.Segids() {
			c.owners[s] = ns.owners[s]
		}
		for n, s := range ns.names {
			c.names[n] = s
			c.nameOf[s] = append(c.nameOf[s], n)
		}
		mutate(c)
		if err := c.Audit(); err == nil || !strings.Contains(err.Error(), "name") {
			t.Errorf("%s: audit = %v, want a name-index violation", name, err)
		}
	}
}

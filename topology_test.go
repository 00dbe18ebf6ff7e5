package xemem_test

import (
	"fmt"
	"strings"
	"testing"

	"xemem"
	"xemem/internal/sim"
)

// TestParseTopologyErrors pins the parser's diagnostics — xemem-topo
// surfaces these verbatim.
func TestParseTopologyErrors(t *testing.T) {
	cases := []struct{ spec, want string }{
		{"kitten(vm", `unbalanced parens in "kitten(vm"`},
		{"vm(kitten)", `vm nodes are leaves: "vm(kitten)"`},
		{"exokernel", `unknown node kind "exokernel"`},
	}
	for _, tc := range cases {
		if _, err := xemem.ParseTopology(tc.spec); err == nil || err.Error() != tc.want {
			t.Errorf("ParseTopology(%q) error = %v, want %q", tc.spec, err, tc.want)
		}
	}
}

// TestParseTopologyCount walks nested specs.
func TestParseTopologyCount(t *testing.T) {
	cases := []struct {
		spec string
		want int
	}{
		{"kitten", 1},
		{"kitten,vm", 2},
		{"kitten(vm,vm),vm", 4},
		{"kitten(kitten(vm)),kitten", 4},
	}
	for _, tc := range cases {
		topo, err := xemem.ParseTopology(tc.spec)
		if err != nil {
			t.Fatalf("ParseTopology(%q): %v", tc.spec, err)
		}
		if got := topo.Count(); got != tc.want {
			t.Errorf("Count(%q) = %d, want %d", tc.spec, got, tc.want)
		}
	}
}

// TestBuildNamingAndLocality boots a nested topology and checks the
// historical xemem-topo naming (single pre-order counter) and the
// round-robin locality grid.
func TestBuildNamingAndLocality(t *testing.T) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 5, MemBytes: 4 << 30})
	topo, err := xemem.ParseTopology("kitten(vm),kitten,vm,kitten,kitten")
	if err != nil {
		t.Fatal(err)
	}
	topo.KittenBytes = 128 << 20
	topo.VMBytes = 64 << 20
	encl, err := topo.Build(node)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"kitten1", "vm2", "kitten3", "vm4", "kitten5", "kitten6"}
	if len(encl) != len(wantNames) {
		t.Fatalf("built %d enclaves, want %d", len(encl), len(wantNames))
	}
	// Default 2×2 grid: enclave i (0-based boot order) lands on NUMA
	// domain i mod 4, socket = domain / 2.
	for i, e := range encl {
		if e.Name != wantNames[i] {
			t.Errorf("enclave %d named %q, want %q", i, e.Name, wantNames[i])
		}
		wantNUMA := i % 4
		if e.Loc.NUMA != wantNUMA || e.Loc.Socket != wantNUMA/2 {
			t.Errorf("enclave %d locality %+v, want socket %d numa %d", i, e.Loc, wantNUMA/2, wantNUMA)
		}
		if e.Module == nil {
			t.Errorf("enclave %d has no module", i)
		}
		isVM := strings.HasPrefix(e.Name, "vm")
		if isVM != (e.VM != nil) || isVM == (e.Kitten != nil) {
			t.Errorf("enclave %d (%s) handle mismatch: kitten=%v vm=%v", i, e.Name, e.Kitten != nil, e.VM != nil)
		}
	}
	if err := node.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestLocalityKeys pins the level grouping keys the collective
// hierarchy builds from.
func TestLocalityKeys(t *testing.T) {
	a := xemem.Locality{Socket: 1, NUMA: 3}
	b := xemem.Locality{Socket: 1, NUMA: 2}
	if a.Key(xemem.LevelNUMA) == b.Key(xemem.LevelNUMA) {
		t.Error("distinct NUMA domains share a NUMA key")
	}
	if a.Key(xemem.LevelSocket) != b.Key(xemem.LevelSocket) {
		t.Error("same socket yields distinct socket keys")
	}
	if a.Key(xemem.LevelFlat) != b.Key(xemem.LevelFlat) {
		t.Error("flat level must group everyone")
	}
	wantNames := []string{"numa", "socket", "flat"}
	for i, l := range xemem.DefaultLevels {
		if l.String() != wantNames[i] {
			t.Errorf("DefaultLevels[%d] = %q, want %q", i, l, wantNames[i])
		}
	}
}

// TestBuildReproducible boots Figure 1's node twice at one seed: the
// bootstrap must allocate the same enclave IDs and learn the same route
// tables both times.
func TestBuildReproducible(t *testing.T) {
	boot := func() string {
		node := xemem.NewNode(xemem.NodeConfig{Seed: 1, MemBytes: 16 << 30})
		topo, err := xemem.ParseTopology("vm,kitten,kitten,kitten(vm,vm)")
		if err != nil {
			t.Fatal(err)
		}
		encl, err := topo.Build(node)
		if err != nil {
			t.Fatal(err)
		}
		node.Spawn("settle", func(a *sim.Actor) { a.Advance(sim.Millisecond) })
		if err := node.Run(); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s %d %s\n", node.LinuxModule().Name(), node.LinuxModule().EnclaveID(), node.LinuxModule().R.RouteTable())
		for _, e := range encl {
			fmt.Fprintf(&b, "%s %d %s\n", e.Module.Name(), e.Module.EnclaveID(), e.Module.R.RouteTable())
		}
		return b.String()
	}
	first, second := boot(), boot()
	if first != second {
		t.Fatalf("same seed bootstrapped differently:\n%s\nvs\n%s", first, second)
	}
	if n := strings.Count(first, "\n"); n != 7 {
		t.Fatalf("rendered %d enclaves, want 7:\n%s", n, first)
	}
}

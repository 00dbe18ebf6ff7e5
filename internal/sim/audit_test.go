package sim

import (
	"errors"
	"strings"
	"testing"
)

// TestAudit pins the audit contract: checks run in registration order,
// each failure is named by its component, a clean world audits to nil,
// an audit from inside the running world is refused, and Shared hands
// every caller the value its first caller made.
func TestAudit(t *testing.T) {
	w := NewWorld(1)
	made := 0
	for i := 0; i < 2; i++ {
		if v := w.Shared("key", func() any { made++; return &made }); v != &made {
			t.Fatalf("Shared returned %v", v)
		}
	}
	if made != 1 {
		t.Fatalf("Shared made its value %d times", made)
	}
	var order []string
	ok := func(name string) func() error {
		return func() error { order = append(order, name); return nil }
	}
	w.AddAudit("a", ok("a"))
	w.AddAudit("b", ok("b"))
	var inside error
	w.Spawn("actor", func(*Actor) { inside = w.Audit() })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if inside == nil {
		t.Error("an audit from inside the running world was allowed")
	}
	order = nil
	if err := w.Audit(); err != nil || strings.Join(order, "") != "ab" {
		t.Fatalf("clean audit = %v, ran %v", err, order)
	}
	w.AddAudit("c", func() error { return errors.New("invariant broken") })
	w.AddAudit("d", func() error { return errors.New("another") })
	err := w.Audit()
	if err == nil || !strings.Contains(err.Error(), "audit c: invariant broken") || !strings.Contains(err.Error(), "audit d: another") {
		t.Fatalf("failing audit = %v", err)
	}
}

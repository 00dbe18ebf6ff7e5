package pisces

import (
	"testing"

	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// TestIPIChannelChargesSender: a send pays at least the IPI latency
// plus the message copy, on the sender's clock.
func TestIPIChannelChargesSender(t *testing.T) {
	w := sim.NewWorld(1)
	l := &link{name: "ipi:linux->kitten0", in: xproto.NewInbox("kitten0"), wire: sim.NewResource("pisces-wire")}
	l.peer = l
	msg := &xproto.Message{Type: xproto.MsgPingNS, ReqID: 42}
	var elapsed sim.Time
	w.Spawn("sender", func(a *sim.Actor) {
		start := a.Now()
		l.Send(a, msg)
		elapsed = a.Now() - start
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	c := w.Costs()
	if min := c.IPILatency + sim.CopyTime(msg.WireSize(), c.ChanBW); elapsed < min {
		t.Fatalf("send charged %v, want ≥ %v", elapsed, min)
	}
}

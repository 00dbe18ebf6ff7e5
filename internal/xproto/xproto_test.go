package xproto

import (
	"testing"

	"xemem/internal/extent"
	"xemem/internal/sim"
)

// TestWireSize pins the modelled wire size every channel copy is charged
// against: a 61-byte header, the name, an 8-byte list header and 16 bytes
// per extent.
func TestWireSize(t *testing.T) {
	if got := (&Message{Type: MsgGetReq, ReqID: 3}).WireSize(); got != 69 {
		t.Fatalf("header-only message: %d bytes, want 69", got)
	}
	m := &Message{
		Type: MsgAttachResp,
		Name: "hpccg-output",
		List: extent.FromExtents(
			extent.Extent{First: 0x100, Count: 4},
			extent.Extent{First: 0x200, Count: 1},
			extent.Extent{First: 0x300, Count: 262144},
		),
	}
	if got := m.WireSize(); got != 129 {
		t.Fatalf("named message with 3 extents: %d bytes, want 129", got)
	}
}

// TestPutCopiesMessage checks the copy contract of Inbox.Put: the sender's
// later writes never reach the delivery, and the receiver's writes never
// reach the sender's message.
func TestPutCopiesMessage(t *testing.T) {
	w := sim.NewWorld(1)
	in := NewInbox("copy")
	sent := &Message{Type: MsgAttachReq, Dst: 2, ReqID: 7}
	w.Spawn("sender", func(a *sim.Actor) {
		in.Put(a, sent, nil)
		// rpc rewrites ReqID and Dst on the message it keeps for retries.
		sent.Dst, sent.ReqID = 9, 8
	})
	w.Spawn("kernel", func(a *sim.Actor) {
		a.Advance(10)
		got := in.Get(a).Msg
		if got.Dst != 2 || got.ReqID != 7 {
			t.Errorf("delivery saw the sender's later write: Dst %d ReqID %d, want 2 and 7", got.Dst, got.ReqID)
		}
		got.Dst, got.ReqID = 5, 6
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sent.Dst != 9 || sent.ReqID != 8 {
		t.Fatalf("sender saw the receiver's write: Dst %d ReqID %d, want 9 and 8", sent.Dst, sent.ReqID)
	}
}

func TestMsgTypeStrings(t *testing.T) {
	if MsgAttachReq.String() != "attach-req" {
		t.Fatalf("got %q", MsgAttachReq.String())
	}
	if MsgType(200).String() != "msg(200)" {
		t.Fatalf("got %q", MsgType(200).String())
	}
	if !MsgAttachResp.IsResponse() || MsgAttachReq.IsResponse() {
		t.Fatal("IsResponse misclassifies")
	}
	if StatusNotFound.String() != "not-found" {
		t.Fatalf("status string %q", StatusNotFound)
	}
}

// fakeLink delivers directly into an inbox with no cost.
type fakeLink struct {
	in   *Inbox
	name string
}

func (f *fakeLink) Send(a *sim.Actor, m *Message) { f.in.Put(a, m, f) }
func (f *fakeLink) String() string                { return f.name }

func TestInboxBlockingDelivery(t *testing.T) {
	w := sim.NewWorld(1)
	in := NewInbox("test")
	link := &fakeLink{in: in, name: "l"}
	var got *Message
	var when sim.Time
	w.Spawn("kernel", func(a *sim.Actor) {
		d := in.Get(a)
		got = d.Msg
		when = a.Now()
		if d.Via != link {
			t.Error("wrong arrival link")
		}
	})
	w.Spawn("sender", func(a *sim.Actor) {
		a.Advance(250)
		link.Send(a, &Message{Type: MsgPingNS, ReqID: 5})
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.ReqID != 5 {
		t.Fatalf("got %+v", got)
	}
	if when != 250 {
		t.Fatalf("delivered at %v, want 250", when)
	}
}

func TestInboxQueuesMultiple(t *testing.T) {
	w := sim.NewWorld(1)
	in := NewInbox("q")
	link := &fakeLink{in: in}
	var order []uint64
	w.Spawn("sender", func(a *sim.Actor) {
		for i := uint64(1); i <= 3; i++ {
			link.Send(a, &Message{ReqID: i})
			a.Advance(1)
		}
	})
	w.Spawn("kernel", func(a *sim.Actor) {
		a.Advance(100) // let them queue
		for i := 0; i < 3; i++ {
			order = append(order, in.Get(a).Msg.ReqID)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
}

// TestWarmGetAllocatesNothing checks that a Get that waits on an empty
// inbox allocates nothing once warm: a world with a thousand more waits
// allocates as much as one with a few. The deliveries are
// shutdown poisons, whose Put copies no message.
func TestWarmGetAllocatesNothing(t *testing.T) {
	run := func(n int) func() {
		return func() {
			w := sim.NewWorld(1)
			in := NewInbox("warm")
			w.Spawn("kernel", func(a *sim.Actor) {
				a.SetDaemon()
				for {
					in.Get(a)
				}
			})
			w.Spawn("sender", func(a *sim.Actor) {
				for i := 0; i < n; i++ {
					a.Advance(10)
					in.PutShutdown(a)
				}
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A per-wait allocation would cost 1,000 here; the slack absorbs the
	// few the runtime makes on its own, as it does under the race detector.
	few := testing.AllocsPerRun(5, run(10))
	many := testing.AllocsPerRun(5, run(1010))
	if many-few >= 10 {
		t.Fatalf("1000 more waiting Gets cost %v allocations (%v vs %v), want none per wait", many-few, many, few)
	}
}

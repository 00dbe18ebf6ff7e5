package noise

import (
	"testing"

	"xemem/internal/sim"
)

func TestDetoursMergeAdjacent(t *testing.T) {
	const us = sim.Microsecond
	spans := []sim.Span{
		{Start: 0, Dur: 100 * us, Tag: "app"},
		{Start: 100 * us, Dur: 10 * us, Tag: "xemem-msg"},
		{Start: 110 * us, Dur: 50 * us, Tag: "xemem-serve"}, // back-to-back: one detour
		{Start: 500 * us, Dur: 12 * us, Tag: "hw"},          // separate
	}
	ds := Detours(spans, "app")
	if len(ds) != 2 {
		t.Fatalf("detours = %d, want 2 (%v)", len(ds), ds)
	}
	if ds[0].Dur != 60*us {
		t.Fatalf("merged detour dur = %v, want 60us", ds[0].Dur)
	}
	if !ds[0].Tagged("xemem-serve") || !ds[0].Tagged("xemem-msg") {
		t.Fatalf("merged tags = %v", ds[0].Tags)
	}
	if ds[1].Tagged("xemem-serve") {
		t.Fatal("hw detour mis-tagged")
	}
}

func TestDetoursIgnoreAppAndEmpty(t *testing.T) {
	spans := []sim.Span{
		{Start: 0, Dur: 100, Tag: "app"},
		{Start: 200, Dur: 0, Tag: "hw"},
	}
	if ds := Detours(spans, "app"); len(ds) != 0 {
		t.Fatalf("detours = %v, want none", ds)
	}
}

func TestInjectProducesBaselineProfile(t *testing.T) {
	w := sim.NewWorld(99)
	core := sim.NewCore("kitten")
	core.StartRecording()
	Inject(w, core, DefaultKittenSources())
	w.Spawn("clock", func(a *sim.Actor) { a.Advance(10 * sim.Second) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	ds := Detours(core.StopRecording(), "app")
	var hw, smi int
	for _, d := range ds {
		switch {
		case d.Tagged("smi"):
			smi++
			if d.Dur < 80*sim.Microsecond || d.Dur > 250*sim.Microsecond {
				t.Fatalf("smi detour %v outside 80-250us", d.Dur)
			}
		case d.Tagged("hw"):
			hw++
			if d.Dur < 8*sim.Microsecond || d.Dur > 30*sim.Microsecond {
				t.Fatalf("hw detour %v outside 8-30us", d.Dur)
			}
		}
	}
	// ~4000 hw events and ~10 SMIs over 10 s.
	if hw < 3000 || hw > 5000 {
		t.Fatalf("hw detours = %d, want ~4000", hw)
	}
	if smi < 5 || smi > 20 {
		t.Fatalf("smi detours = %d, want ~10", smi)
	}
}

func TestInjectDeterministic(t *testing.T) {
	run := func() int {
		w := sim.NewWorld(5)
		core := sim.NewCore("c")
		core.StartRecording()
		Inject(w, core, DefaultKittenSources())
		w.Spawn("clock", func(a *sim.Actor) { a.Advance(2 * sim.Second) })
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return len(core.StopRecording())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("noise not deterministic: %d vs %d spans", a, b)
	}
}

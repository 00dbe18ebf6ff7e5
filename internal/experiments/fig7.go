package experiments

import (
	"fmt"
	"strings"

	"xemem"
	"xemem/internal/experiments/sweep"
	"xemem/internal/noise"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// Fig7Class summarizes one detour class of the noise profile.
type Fig7Class struct {
	Name  string
	Count int
	MinUS float64
	AvgUS float64
	MaxUS float64
}

// Fig7Phase is the noise profile of one attachment size.
type Fig7Phase struct {
	Size    string
	Classes []Fig7Class
	// Detours is the raw (time, duration) series for plotting.
	Detours []noise.Detour
}

// Fig7Result holds the regenerated figure.
type Fig7Result struct {
	Phases []Fig7Phase
}

// Fig7 reproduces §5.5: a single-core Kitten enclave exports regions of
// 4 KB, 2 MB and 1 GB; a Linux process attaches once per second for 10
// seconds while the Selfish Detour benchmark profiles the Kitten core.
// Detours caused by XEMEM serves are classified apart from the baseline
// hardware noise and periodic SMIs. Each size phase is an independent
// world and therefore one sweep cell, executed on workers host
// goroutines (<= 0 selects GOMAXPROCS, 1 reproduces the serial runner).
func Fig7(seed uint64, workers int) (*Fig7Result, error) {
	phases := []struct {
		name  string
		bytes uint64
	}{
		{"4KB", 4 << 10},
		{"2MB", 2 << 20},
		{"1GB", 1 << 30},
	}
	cells := make([]sweep.Cell[Fig7Phase], len(phases))
	for i, phase := range phases {
		phase := phase
		obs := cellObserve()
		cells[i] = sweep.Cell[Fig7Phase]{
			Label: "fig7/" + phase.name,
			Run: func() (Fig7Phase, error) {
				return fig7Phase(obs, seed, phase.name, phase.bytes)
			},
		}
	}
	out, err := sweep.Run(cells, workers)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Phases: out}, nil
}

// fig7Phase runs the noise profile for one attachment size.
func fig7Phase(obs observeFn, seed uint64, name string, bytes uint64) (Fig7Phase, error) {
	node := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 32 << 30})
	announce(obs, "fig7/"+name, node.World())
	ck, err := node.BootCoKernel("kitten0", 2<<30)
	if err != nil {
		return Fig7Phase{}, err
	}
	expSess, heap, err := node.KittenProcess(ck, "exporter", 1<<30)
	if err != nil {
		return Fig7Phase{}, err
	}
	attSess, _ := node.LinuxProcess("attacher", 1)
	noise.Inject(node.World(), ck.OS.Core(), noise.DefaultKittenSources())

	var runErr error
	node.Spawn("fig7-"+name, func(a *sim.Actor) {
		segid, err := expSess.Make(a, heap.Base, bytes, xpmem.PermRead, "")
		if err != nil {
			runErr = err
			return
		}
		apid, err := attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			runErr = err
			return
		}
		ck.OS.Core().StartRecording()
		// Attach, sleep one second, repeat, for ten seconds (§5.5).
		for t := 0; t < 10; t++ {
			va, err := attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: bytes, Perm: xpmem.PermRead})
			if err != nil {
				runErr = err
				return
			}
			if err := attSess.Detach(a, va); err != nil {
				runErr = err
				return
			}
			a.Advance(sim.Second)
		}
	})
	if err := node.Run(); err != nil {
		return Fig7Phase{}, err
	}
	if runErr != nil {
		return Fig7Phase{}, runErr
	}
	spans := ck.OS.Core().StopRecording()
	detours := noise.Detours(spans, "app")
	return Fig7Phase{Size: name, Classes: classify(detours), Detours: detours}, nil
}

// classify buckets detours into attachment serves, SMIs, and baseline
// hardware noise.
func classify(ds []noise.Detour) []Fig7Class {
	mk := func(name string, sel func(noise.Detour) bool) Fig7Class {
		c := Fig7Class{Name: name}
		for _, d := range ds {
			if !sel(d) {
				continue
			}
			us := d.Dur.Micros()
			if c.Count == 0 || us < c.MinUS {
				c.MinUS = us
			}
			if us > c.MaxUS {
				c.MaxUS = us
			}
			c.AvgUS += us
			c.Count++
		}
		if c.Count > 0 {
			c.AvgUS /= float64(c.Count)
		}
		return c
	}
	isServe := func(d noise.Detour) bool { return d.Tagged("xemem-serve") }
	isNotify := func(d noise.Detour) bool { return d.Tagged("xemem-msg") && !isServe(d) }
	return []Fig7Class{
		mk("xemem-attach", isServe),
		mk("xemem-notify", isNotify),
		mk("smi", func(d noise.Detour) bool { return d.Tagged("smi") && !isServe(d) && !isNotify(d) }),
		mk("hw-baseline", func(d noise.Detour) bool { return d.Tagged("hw") && !d.Tagged("smi") && !isServe(d) && !isNotify(d) }),
	}
}

// Class fetches a phase's class summary by name.
func (p Fig7Phase) Class(name string) Fig7Class {
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	return Fig7Class{}
}

// String renders the profile summary.
func (r *Fig7Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: Kitten enclave noise profile while serving XEMEM attachments (10 s, 1 attach/s)\n")
	fmt.Fprintf(&b, "%8s %-14s %7s %12s %12s %12s\n", "Region", "Detour class", "Count", "Min(us)", "Avg(us)", "Max(us)")
	for _, p := range r.Phases {
		for _, c := range p.Classes {
			fmt.Fprintf(&b, "%8s %-14s %7d %12.1f %12.1f %12.1f\n",
				p.Size, c.Name, c.Count, c.MinUS, c.AvgUS, c.MaxUS)
		}
	}
	return b.String()
}

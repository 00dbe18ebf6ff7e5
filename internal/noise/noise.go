// Package noise implements the §5.5 operating-system-noise analysis: the
// hardware noise sources a Kitten enclave experiences even in its
// feature-limited configuration, and the Selfish Detour measurement that
// reconstructs the enclave's noise profile — including the detours caused
// by XEMEM attachment serving — from the core's occupancy log.
package noise

import (
	"sort"

	"xemem/internal/sim"
)

// Source is one periodic noise process (timer-adjacent hardware events,
// SMIs).
type Source struct {
	Name   string
	Period sim.Time // mean inter-arrival
	Jitter float64  // uniform fraction applied to the period
	Dur    sim.Time // mean event duration
	DurJit float64  // uniform fraction applied to the duration
}

// DefaultKittenSources models the two baseline bands Fig. 7 shows on an
// otherwise idle Kitten core: frequent hardware noise around 12 µs, and
// rarer periodic events (SMIs) in the 100–200 µs range.
func DefaultKittenSources() []Source {
	return []Source{
		{Name: "hw", Period: 2500 * sim.Microsecond, Jitter: 0.3, Dur: 12 * sim.Microsecond, DurJit: 0.15},
		{Name: "smi", Period: 950 * sim.Millisecond, Jitter: 0.2, Dur: 150 * sim.Microsecond, DurJit: 0.3},
	}
}

// Inject spawns one daemon actor per source that occupies the core for
// each event. Events appear in the core's occupancy log when recording.
func Inject(w *sim.World, core *sim.Core, sources []Source) {
	for _, s := range sources {
		src := s
		w.Spawn("noise/"+src.Name, func(a *sim.Actor) {
			a.SetDaemon()
			rng := a.RNG()
			for {
				a.Advance(rng.Jitter(src.Period, src.Jitter))
				core.Exec(a, rng.Jitter(src.Dur, src.DurJit), src.Name)
			}
		})
	}
}

// Detour is one contiguous interval during which the core was executing
// something other than the application — what the Selfish Detour
// benchmark observes as a gap between timestamp reads.
type Detour struct {
	At   sim.Time
	Dur  sim.Time
	Tags []string // the kinds of work that composed the detour
}

// Tagged reports whether the detour contains work with the given tag.
func (d Detour) Tagged(tag string) bool {
	for _, t := range d.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// mergeGap: spans closer than this compose one detour (the application
// cannot run between them long enough to take a timestamp).
const mergeGap = 2 * sim.Microsecond

// Detours reconstructs the detour profile from a core occupancy log,
// ignoring spans tagged appTag (the application's own work). Adjacent and
// back-to-back foreign spans merge into a single detour, exactly as a
// selfish-detour loop would observe them.
func Detours(spans []sim.Span, appTag string) []Detour {
	foreign := make([]sim.Span, 0, len(spans))
	for _, s := range spans {
		if s.Tag != appTag && s.Dur > 0 {
			foreign = append(foreign, s)
		}
	}
	sort.Slice(foreign, func(i, j int) bool { return foreign[i].Start < foreign[j].Start })
	var out []Detour
	for _, s := range foreign {
		if n := len(out); n > 0 && s.Start-out[n-1].At-out[n-1].Dur <= mergeGap {
			d := &out[n-1]
			d.Dur = s.End() - d.At
			if len(d.Tags) == 0 || d.Tags[len(d.Tags)-1] != s.Tag {
				d.Tags = append(d.Tags, s.Tag)
			}
			continue
		}
		out = append(out, Detour{At: s.Start, Dur: s.Dur, Tags: []string{s.Tag}})
	}
	return out
}

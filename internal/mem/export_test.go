package mem

import "xemem/internal/extent"

// NumZones reports the number of NUMA zones.
func (m *PhysMem) NumZones() int { return len(m.zones) }

// Materialized reports whether frame f has backing bytes yet (i.e. has
// ever been written). Reading an unmaterialized frame yields zeros without
// materializing it.
func (m *PhysMem) Materialized(f PFN) bool {
	_, ok := m.frames[f]
	return ok
}

// Pages reports the zone's total page count.
func (z *Zone) Pages() uint64 { return uint64(z.limit - z.start) }

// FreeExtents reports a copy of the free list (diagnostics and tests).
func (z *Zone) FreeExtents() []extent.Extent {
	out := make([]extent.Extent, len(z.free))
	copy(out, z.free)
	return out
}

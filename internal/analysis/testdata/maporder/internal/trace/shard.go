// Shard-map cases for the maporder fixture: a sharded name service
// keeps per-segid lease maps and per-shard replica tables whose
// encodings land in trace digests, so iterating them raw is
// nondeterminism an exporter will surface.
package trace

import "sort"

// ShardMap is a fixture shard layout: replica lists are slices (ordered,
// safe to range), leases are a map (unordered, must be sorted first).
type ShardMap struct {
	replicas [][]uint64
	leases   map[uint64]uint64
}

// EncodeLeases ranges straight over the lease map while encoding:
// flagged.
func (s *ShardMap) EncodeLeases(e *Enc) {
	for _, reps := range s.replicas {
		for _, id := range reps {
			e.U64(id)
		}
	}
	for segid, owner := range s.leases {
		e.U64(segid)
		e.U64(owner)
	}
}

// encodeLeasesSorted collects the lease keys, sorts, then encodes:
// silent.
func (s *ShardMap) encodeLeasesSorted(e *Enc) {
	segids := make([]uint64, 0, len(s.leases))
	for segid := range s.leases {
		segids = append(segids, segid)
	}
	sort.Slice(segids, func(i, j int) bool { return segids[i] < segids[j] })
	for _, segid := range segids {
		e.U64(segid)
		e.U64(s.leases[segid])
	}
}

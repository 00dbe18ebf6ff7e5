package xemem

// Count reports the number of enclaves the topology describes (the
// management enclave not included).
func (t *Topology) Count() int {
	n := 0
	var walk func(nodes []*TopoNode)
	walk = func(nodes []*TopoNode) {
		for _, tn := range nodes {
			n++
			walk(tn.Children)
		}
	}
	walk(t.Roots)
	return n
}

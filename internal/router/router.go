// Package router implements the hierarchical routing state of §3.2: the
// per-enclave mapping from enclave IDs to communication channels, the
// default route toward the name server, and the outstanding-request lists
// that route enclave-ID allocations hop-by-hop before the requester has an
// identity.
//
// The routing rule is the paper's: to deliver a message for enclave E,
// forward on the channel recorded for E if one is known, otherwise
// forward toward the name server. Routes are learned passively as
// enclave-ID responses flow back through the tree — each hop records
// "E is reachable through the link its ID request arrived on".
package router

import (
	"fmt"
	"sort"

	"xemem/internal/xproto"
)

// Router is one enclave's routing state. It is manipulated only by the
// enclave's kernel actor, so it needs no locking.
type Router struct {
	self   xproto.EnclaveID
	nsLink xproto.Link // channel toward the name server; nil at the NS itself
	routes map[xproto.EnclaveID]xproto.Link
	hops   map[uint64]xproto.Link // reqID → arrival link for hop-routed requests
}

// New returns an empty router.
func New() *Router {
	return &Router{
		routes: make(map[xproto.EnclaveID]xproto.Link),
		hops:   make(map[uint64]xproto.Link),
	}
}

// SetSelf records this enclave's allocated ID.
func (r *Router) SetSelf(id xproto.EnclaveID) { r.self = id }

// Self reports this enclave's ID (NoEnclave before bootstrap completes).
func (r *Router) Self() xproto.EnclaveID { return r.self }

// SetNSLink records the channel through which the name server is
// reachable (learned from the first PongNS).
func (r *Router) SetNSLink(l xproto.Link) { r.nsLink = l }

// NSLink reports the channel toward the name server, nil at the NS.
func (r *Router) NSLink() xproto.Link { return r.nsLink }

// HasPathToNS reports whether this enclave can reach the name server —
// true once bootstrapped, and always true at the NS itself.
func (r *Router) HasPathToNS() bool { return r.nsLink != nil || r.self == xproto.NameServerID }

// Learn records that enclave id is reachable via link.
func (r *Router) Learn(id xproto.EnclaveID, via xproto.Link) {
	if id == xproto.NoEnclave {
		return
	}
	r.routes[id] = via
}

// Forget drops the learned route for id — crash fanout when the enclave
// behind it died. Later messages for id fall back to the name-server
// route, where the name server answers StatusEnclaveDown.
func (r *Router) Forget(id xproto.EnclaveID) {
	delete(r.routes, id)
}

// Knows reports whether a direct route for id has been learned. The
// cluster builder uses it to pre-seed only the mesh routes passive
// learning has not already established.
func (r *Router) Knows(id xproto.EnclaveID) bool {
	_, ok := r.routes[id]
	return ok
}

// Route resolves the outgoing link for dst: the learned route if any,
// otherwise the default route toward the name server. ok is false when
// neither exists (at the name server for an unknown enclave — an
// undeliverable message).
func (r *Router) Route(dst xproto.EnclaveID) (xproto.Link, bool) {
	if l, ok := r.routes[dst]; ok {
		return l, true
	}
	if r.nsLink != nil {
		return r.nsLink, true
	}
	return nil, false
}

// TrackHop records the arrival link of a hop-routed request so its
// response can retrace the path (§3.2's outstanding request list).
func (r *Router) TrackHop(reqID uint64, via xproto.Link) error {
	if _, dup := r.hops[reqID]; dup {
		return fmt.Errorf("router: duplicate hop-tracked request %d", reqID)
	}
	r.hops[reqID] = via
	return nil
}

// TakeHop consumes the outstanding-request entry for reqID.
func (r *Router) TakeHop(reqID uint64) (xproto.Link, bool) {
	l, ok := r.hops[reqID]
	if ok {
		delete(r.hops, reqID)
	}
	return l, ok
}

// KnownEnclaves lists the enclave IDs with learned routes, sorted.
func (r *Router) KnownEnclaves() []xproto.EnclaveID {
	out := make([]xproto.EnclaveID, 0, len(r.routes))
	for id := range r.routes {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PendingHops lists the reqIDs with outstanding hop-routed requests,
// sorted (the world-end audit and diagnostics).
func (r *Router) PendingHops() []uint64 {
	out := make([]uint64, 0, len(r.hops))
	for id := range r.hops {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RouteTable renders the routing state for diagnostics.
func (r *Router) RouteTable() string {
	s := fmt.Sprintf("enclave %d:", r.self)
	for _, id := range r.KnownEnclaves() {
		s += fmt.Sprintf(" %d→%s", id, r.routes[id])
	}
	if r.nsLink != nil {
		s += fmt.Sprintf(" default→%s", r.nsLink)
	}
	return s
}

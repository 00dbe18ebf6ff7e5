package core

import (
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// Retry defaults for cross-enclave requests under fault injection. The
// per-attempt timeout must comfortably cover the slowest legitimate
// response — a whole-segment 1 GB attach occupies the owner's kernel
// core for ~22–24 ms of virtual time — so the default is 50 ms; lossy
// links are then ridden out by the bounded exponential backoff rather
// than a hair-trigger timer. Workloads that know their attaches are
// small (the fault sweep's are 64 pages) pass a tighter Timeout in
// their options.
const (
	// DefaultRPCTimeout is the first-attempt response timeout.
	DefaultRPCTimeout = 50 * sim.Millisecond
	// DefaultRPCRetries is how many times a timed-out request is reissued
	// (total attempts = 1 + retries).
	DefaultRPCRetries = 3
	// DefaultRPCBackoff multiplies the timeout between attempts.
	DefaultRPCBackoff = 2.0
	// rpcPollInterval is the granularity at which a requester polls for
	// its response while a timeout is armed. Fine enough that the added
	// latency on a prompt response is negligible against IPIHandler cost.
	rpcPollInterval = 2 * sim.Microsecond
)

// RetryPolicy bounds a cross-enclave request: a per-attempt virtual-time
// timeout, reissued DefaultRPCRetries times and grown by
// DefaultRPCBackoff between attempts. The zero value selects
// DefaultRPCTimeout. The policy only takes effect when the world has a
// fault injector installed; in the zero-fault world requests block
// until their response arrives (see resolve).
type RetryPolicy struct {
	Timeout sim.Time
}

// resolve returns the policy a request actually runs under. In the
// zero-fault world (faulty false) nothing is ever lost, so the request is
// one attempt with a sim.Forever timeout: it blocks until the response
// wakes it. Under fault injection a zero Timeout takes the package
// default.
func (p RetryPolicy) resolve(faulty bool) RetryPolicy {
	if !faulty {
		return RetryPolicy{Timeout: sim.Forever}
	}
	if p.Timeout <= 0 {
		p.Timeout = DefaultRPCTimeout
	}
	return p
}

// GetOpts parameterizes GetWith. The zero value requests read permission
// with the default retry policy.
type GetOpts struct {
	// Perm is the requested permission mask (0 = PermRead).
	Perm xproto.Perm
	// Timeout bounds each attempt of the cross-enclave request; see
	// RetryPolicy.
	Timeout sim.Time
}

func (o GetOpts) policy() RetryPolicy {
	return RetryPolicy{Timeout: o.Timeout}
}

// AttachOpts parameterizes AttachWith. The zero value attaches the whole
// segment read-only with the default retry policy.
type AttachOpts struct {
	// Offset is the page-aligned byte offset within the segment.
	Offset uint64
	// Bytes is the attach length; 0 or AttachAll maps the whole segment
	// from Offset.
	Bytes uint64
	// Perm is the requested permission mask (0 = PermRead).
	Perm xproto.Perm
	// Timeout bounds each attempt of the cross-enclave request; see
	// RetryPolicy.
	Timeout sim.Time
}

func (o AttachOpts) policy() RetryPolicy {
	return RetryPolicy{Timeout: o.Timeout}
}

// permOrRead defaults a zero permission mask to read-only.
func permOrRead(p xproto.Perm) xproto.Perm {
	if p == 0 {
		return xproto.PermRead
	}
	return p
}

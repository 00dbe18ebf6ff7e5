package core

import (
	"errors"
	"fmt"

	"xemem/internal/pagetable"
	"xemem/internal/xproto"
)

// Sentinel errors returned (wrapped in an *OpError) by the
// XPMEM-compatible operations. Match them with errors.Is; use errors.As
// with *OpError to recover the failing segid/apid/address.
var (
	// ErrNoSuchSegid reports an operation on a segid that does not exist
	// or has been removed.
	ErrNoSuchSegid = errors.New("xemem: no such segid")
	// ErrNoSuchApid reports an operation on an access permit that was
	// never granted or was already released.
	ErrNoSuchApid = errors.New("xemem: no such apid")
	// ErrPermission reports a request exceeding the granted or offered
	// permission, or an operation by a process that does not hold the
	// handle it names.
	ErrPermission = errors.New("xemem: permission denied")
	// ErrEnclaveDown reports that the enclave owning the segment — or the
	// caller's own enclave — has crashed or been torn down.
	ErrEnclaveDown = errors.New("xemem: enclave down")
	// ErrTimeout reports a cross-enclave request that exhausted its retry
	// budget without a response (lost messages, a dead peer, or a
	// name-server outage outlasting the backoff).
	ErrTimeout = errors.New("xemem: operation timed out")
	// ErrNotAttached reports a Detach of an address that is not inside an
	// XEMEM attachment (including a second Detach of the same address).
	ErrNotAttached = errors.New("xemem: address is not an XEMEM attachment")
	// ErrBadRange reports an unaligned or out-of-bounds address range.
	ErrBadRange = errors.New("xemem: bad address range")
	// ErrRemote reports a remote failure with no more specific status.
	ErrRemote = errors.New("xemem: remote operation failed")
)

// OpError is the error type the XPMEM-facing operations return: which
// operation failed, the identifiers it failed on (zero when not
// applicable), and the underlying sentinel cause. It matches errors.As
// and unwraps to the sentinel for errors.Is.
type OpError struct {
	Op    string       // "make", "get", "attach", ... or a wire MsgType name
	Segid xproto.Segid // segment involved, if any
	Apid  xproto.Apid  // permit involved, if any
	VA    pagetable.VA // address involved, if any
	Name  string       // published name involved, if any
	Err   error        // underlying cause (one of the sentinels above)
}

// Error renders the failure with whichever identifiers are set.
func (e *OpError) Error() string {
	s := "xemem: " + e.Op
	if e.Segid != xproto.NoSegid {
		s += fmt.Sprintf(" segid=%d", e.Segid)
	}
	if e.Apid != xproto.NoApid {
		s += fmt.Sprintf(" apid=%d", e.Apid)
	}
	if e.VA != 0 {
		s += fmt.Sprintf(" va=%#x", uint64(e.VA))
	}
	if e.Name != "" {
		s += fmt.Sprintf(" name=%q", e.Name)
	}
	return s + ": " + e.Err.Error()
}

// Unwrap exposes the sentinel cause to errors.Is/errors.As.
func (e *OpError) Unwrap() error { return e.Err }

// opErr wraps err in an *OpError carrying op and the message's
// identifiers. An err that is already an *OpError passes through
// unchanged (no double wrapping when a low-level helper already
// attributed the failure), as does nil.
func opErr(op string, err error, segid xproto.Segid, apid xproto.Apid) error {
	if err == nil {
		return nil
	}
	var oe *OpError
	if errors.As(err, &oe) {
		return err
	}
	return &OpError{Op: op, Segid: segid, Apid: apid, Err: err}
}

// vaErr is opErr for address-keyed failures (detach, access checks).
func vaErr(op string, err error, va pagetable.VA) error {
	if err == nil {
		return nil
	}
	var oe *OpError
	if errors.As(err, &oe) {
		return err
	}
	return &OpError{Op: op, VA: va, Err: err}
}

// statusErr maps a wire response status to its sentinel.
func statusErr(st xproto.Status) error {
	switch st {
	case xproto.StatusOK:
		return nil
	case xproto.StatusNotFound:
		return ErrNoSuchSegid
	case xproto.StatusDenied:
		return ErrPermission
	case xproto.StatusEnclaveDown:
		return ErrEnclaveDown
	default:
		return ErrRemote
	}
}

// Package xpmem is a paircheck fixture: the acquire/release method
// surface the analyzer pairs up.
package xpmem

// Session mirrors the real API's handle-returning surface.
type Session struct{}

// Release retires a permit.
func (s *Session) Release(apid int) error { return nil }

// Detach unmaps an attachment.
func (s *Session) Detach(va uintptr) error { return nil }

// GetWith returns an access permit.
func (s *Session) GetWith(segid int) (int, error) { return segid + 1, nil }

// AttachWith returns a mapping address.
func (s *Session) AttachWith(apid int) (uintptr, error) { return uintptr(apid), nil }

// AttachCached is the registration-cache form of AttachWith: same
// handle, same Detach.
func (s *Session) AttachCached(apid int) (uintptr, error) { return uintptr(apid), nil }

// Package app exercises every paircheck verdict: leaks that must be
// flagged, ownership transfers that must not, and a suppressed leak.
package app

import "fixture/internal/xpmem"

// LeakDiscarded drops the GetWith result outright.
func LeakDiscarded(s *xpmem.Session) {
	s.GetWith(7)
}

// LeakBlank binds the attachment address to the blank identifier.
func LeakBlank(s *xpmem.Session) error {
	_, err := s.AttachWith(7)
	return err
}

// LeakUnused only discards the permit.
func LeakUnused(s *xpmem.Session) {
	apid, _ := s.GetWith(7)
	_ = apid
}

// LeakExcused is LeakUnused with a reasoned suppression.
func LeakExcused(s *xpmem.Session) {
	apid, _ := s.GetWith(7) //xemem:allow paircheck -- fixture: teardown is exercised by the world's end-of-run sweep
	_ = apid
}

// Paired releases on every path, one of them deferred.
func Paired(s *xpmem.Session) error {
	apid, err := s.GetWith(7)
	if err != nil {
		return err
	}
	defer s.Release(apid)
	va, err := s.AttachWith(apid)
	if err != nil {
		return err
	}
	return s.Detach(va)
}

// Transfers hands the permit to its caller: ownership escapes, so the
// analyzer must stay silent.
func Transfers(s *xpmem.Session) (int, error) { return s.GetWith(7) }

// TransfersVar stores the permit into a struct the caller owns.
func TransfersVar(s *xpmem.Session, out *struct{ Apid int }) error {
	apid, err := s.GetWith(7)
	out.Apid = apid
	return err
}

// LeakAttachDiscarded drops the attachment outright.
func LeakAttachDiscarded(s *xpmem.Session) {
	s.AttachWith(7)
}

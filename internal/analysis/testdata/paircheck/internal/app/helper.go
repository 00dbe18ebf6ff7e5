// Interprocedural paircheck cases: a helper that retires the handle on
// the caller's behalf (silent), and a handle that is only ever read —
// every use is a neutral inspection, so no path releases or takes
// ownership of it (flagged).
package app

import "fixture/internal/xpmem"

// retire releases a permit for its caller.
func retire(s *xpmem.Session, apid int) {
	s.Release(apid)
}

// PairedViaHelper retires through the helper: the summary must carry
// the release back to the acquire site.
func PairedViaHelper(s *xpmem.Session) {
	apid, _ := s.GetWith(7)
	retire(s, apid)
}

// classify only inspects its argument.
func classify(apid int) bool {
	if apid > 0 {
		return true
	}
	return false
}

// ReadOnly inspects the permit but never releases or transfers it: the
// reads defeat the syntactic "never used again" rule, so the
// interprocedural verdict must catch it.
func ReadOnly(s *xpmem.Session) {
	apid, _ := s.GetWith(7)
	if classify(apid) {
		return
	}
}

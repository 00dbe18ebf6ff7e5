// Package lib is a directive fixture: every //xemem: misuse the driver
// must reject.
package lib

// NoReason carries an allow without the mandatory reason.
func NoReason() {
	_ = 1 //xemem:allow maporder
}

// UnknownAnalyzer names an analyzer that does not exist.
func UnknownAnalyzer() {
	_ = 1 //xemem:allow frobcheck -- no such analyzer
}

// AllowDeterminism tries the generic form on the analyzer that only
// accepts wallclock.
func AllowDeterminism() {
	_ = 1 //xemem:allow determinism -- must use wallclock instead
}

// UnknownDirective uses a verb the driver does not know.
func UnknownDirective() {
	_ = 1 //xemem:frobnicate -- nonsense
}

// BareWallclock has no reason after the wallclock verb.
func BareWallclock() {
	_ = 1 //xemem:wallclock
}

package sim

import "testing"

// TestFanout may start a goroutine: test files are outside the rule.
func TestFanout(t *testing.T) {
	done := make(chan struct{})
	go func() { close(done) }()
	<-done
}

// Package sim is a determinism fixture: every construct here reads
// host state the analyzer must flag.
package sim

import (
	"math/rand"
	"os"
	"time"
)

// Elapsed reads the host clock twice.
func Elapsed() int64 {
	start := time.Now()
	return int64(time.Since(start))
}

// Jitter mixes the global rand stream and process identity into what
// pretends to be simulated state.
func Jitter() int {
	return rand.Intn(10) + os.Getpid()
}

// Fanout hands work to host goroutines, whose scheduling the World does
// not control: both go statements are flagged.
func Fanout(work func()) {
	go work()
	later := func() {
		go work()
	}
	later()
}

// Detach carries a wallclock directive on a go statement. The directive
// excuses host-clock reads only, so the go statement is still flagged.
func Detach(work func()) {
	go work() //xemem:wallclock -- not a clock read
}

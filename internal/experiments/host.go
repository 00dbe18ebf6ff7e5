package experiments

import "runtime"

// HostInfo is the host-parallelism header every BENCH_*.json carries:
// without it, host wall-clock figures recorded on a loaded or
// single-core CI container cannot be told apart from a regression.
// Simulated results never depend on these values — only host
// wall-clock figures do.
type HostInfo struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// CaptureHost snapshots the current host's parallelism context.
func CaptureHost() HostInfo {
	return HostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

package experiments

import "runtime"

// HostInfo is the host-parallelism header every BENCH_*.json carries:
// without it, a ~1.0x sweep speedup recorded on a single-core CI
// container is indistinguishable from a regression on a real multicore
// host. Simulated results never depend on these values — only host
// wall-clock figures do.
type HostInfo struct {
	NumCPU     int `json:"num_cpu"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

// CaptureHost snapshots the current host's parallelism context.
func CaptureHost() HostInfo {
	return HostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

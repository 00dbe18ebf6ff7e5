package sim

// Costs is the hardware/OS cost model: the simulated duration of every
// primitive operation the substrates perform. The defaults are calibrated
// so that the regenerated evaluation reproduces the *shape* of the paper's
// results (§5–§7): who wins, by what rough factor, and where crossovers
// fall. The calibration anchors are:
//
//   - Native Kitten→Linux attachment sustains ≈13 GB/s flat in region size
//     (Fig. 5, Table 2 row 1): per-4KB-page cost ≈ 315 ns, split between
//     the exporting kernel's page-table walk and the attaching kernel's
//     mapping work.
//   - Attach+read ≈ 12 GB/s (Fig. 5): the read-out of an already-mapped
//     region streams far faster than attachment, so the combined rate sits
//     just below the attach rate.
//   - RDMA-write over QDR InfiniBand ≈ 3.4 GB/s (Fig. 5 baseline).
//   - Attaching *into* a Palacios guest costs ≈ 955 ns/page, ≈520 ns of
//     which is red-black-tree insertion into the VMM memory map — removing
//     it yields the paper's 8.79 GB/s (Table 2 row 2).
//   - A 1 GB serve on a single-core Kitten enclave occupies the core for
//     ≈22–24 ms; a 2 MB serve ≈50 µs; a 4 KB serve disappears into the
//     ≈12 µs hardware-noise baseline (Fig. 7).
//
// All durations are per operation unless the name says PerPage or the
// field is a bandwidth (bytes per simulated second).
type Costs struct {
	// --- Page-table operations -----------------------------------------

	// WalkPerPage is the cost for an exporting kernel to walk one 4 KB
	// page of an exported region when generating a page-frame list
	// (Kitten path, §4.3: "existing page table walking functions").
	WalkPerPage Time

	// PinPerPage is the additional per-page cost of pinning user memory
	// on a Linux exporter (get_user_pages, §4.3).
	PinPerPage Time

	// MapPerPageLinux is the per-page cost of mapping a remote frame list
	// into a Linux process (vm_mmap + remap_pfn_range, §4.3).
	MapPerPageLinux Time

	// MapPerPageKitten is the per-page cost of mapping a remote frame
	// list into a Kitten process via the dynamic heap extension (§4.3).
	MapPerPageKitten Time

	// UnmapPerPage is the per-page cost of tearing down a mapping.
	UnmapPerPage Time

	// FaultLinux is the cost of one demand page fault in Linux. Single-OS
	// Linux XEMEM attachments are populated lazily with page-fault
	// semantics (§6.4), so first-touch of each page pays this.
	FaultLinux Time

	// CoherencePerPage is the extra per-page mapping cost a Linux
	// attacher pays while at least one *other* process is concurrently
	// updating memory maps — lock cache-line bouncing on shared mm
	// structures. This models §5.3's "contention for Linux data
	// structures that are accessed when multiple processes concurrently
	// update memory maps" and produces the 1→2 enclave dip of Fig. 6.
	CoherencePerPage Time

	// MmapRegionSetup is the flat cost of creating a new VMA / heap
	// region before per-page population.
	MmapRegionSetup Time

	// SmartmapAttach is the flat cost of a SMARTMAP local attachment
	// (shared top-level page-table slot, no per-page work).
	SmartmapAttach Time

	// --- Memory ---------------------------------------------------------

	// MemReadBW is the streaming bandwidth for reading out an
	// already-attached region (Fig. 5 "Attach + Read").
	MemReadBW float64

	// --- Cross-enclave channels (§4.5) -----------------------------------

	// IPILatency is the wire latency of an inter-processor interrupt.
	IPILatency Time

	// IPIHandler is the time the *receiving* core spends in the IPI
	// handler per inbound kernel message. On the Linux management enclave
	// every such message is funnelled to core 0 (§5.3).
	IPIHandler Time

	// MsgFixed is the fixed kernel-level processing cost per message at
	// each hop (marshal, dispatch, route lookup).
	MsgFixed Time

	// ChanBW is the copy bandwidth through a channel's shared message
	// region (bytes/second); message payloads are charged against it.
	ChanBW float64

	// --- Palacios VMM (§4.4) ---------------------------------------------

	// Hypercall is the guest→host transition cost (VM exit + dispatch).
	Hypercall Time

	// IRQInject is the host→guest virtual interrupt delivery cost.
	IRQInject Time

	// RBVisit is the cost per node visited during red-black-tree memory
	// map operations (lookups, insert descent, rebalancing walks).
	RBVisit Time

	// RBRotate is the cost per rotation performed during rb-tree
	// rebalancing.
	RBRotate Time

	// PalaciosXlatePerPage is the amortized per-page cost of translating
	// guest frames to host frames when the memory map contains only a few
	// large entries (Fig. 4(b), the cheap direction).
	PalaciosXlatePerPage Time

	// NestedMapPerPage is the extra per-page cost of populating mappings
	// inside a guest (nested-paging maintenance) on top of the guest OS's
	// own mapping cost.
	NestedMapPerPage Time

	// PCICopyBW is the copy bandwidth of the virtual PCI device's frame
	// list window.
	PCICopyBW float64

	// --- Name server and routing (§3.1, §3.2) ----------------------------

	// NSOp is the name server's processing cost per request (segid
	// allocation, lookup, enclave-ID allocation).
	NSOp Time

	// RouteLookup is the per-hop routing table lookup cost.
	RouteLookup Time

	// --- Syscall layer ----------------------------------------------------

	// Syscall is the user→kernel entry/exit cost for XPMEM API calls.
	Syscall Time

	// --- RDMA baseline (§5.2) ---------------------------------------------

	// RDMABandwidth is the sustained RDMA-write bandwidth of the QDR
	// ConnectX-3 device (per virtual function pair).
	RDMABandwidth float64

	// RDMAMsgOverhead is the per-message (per-MTU) initiation overhead.
	RDMAMsgOverhead Time

	// RDMASetup is the one-time queue-pair/memory-registration cost per
	// transfer of the bandwidth test.
	RDMASetup Time

	// RDMAMTU is the transfer unit of the bandwidth test in bytes.
	RDMAMTU int

	// RDMASwitchLatency is the per-hop latency of the InfiniBand switch a
	// multi-node fabric routes through (port-to-port cut-through delay).
	// Single-device worlds (the §5.2 back-to-back bandwidth test) never
	// charge it; cluster worlds pay it once per cross-node transfer.
	RDMASwitchLatency Time

	// --- Sharded name service (cluster tier) ------------------------------

	// LeaseCheck is the attacher-side cost of consulting its lease cache
	// on a name-service resolution: a hash probe plus a virtual-time
	// expiry comparison. Paid on every sharded lookup, hit or miss.
	LeaseCheck Time

	// --- XEMEM serve path (§5.5) -------------------------------------------

	// ServeFixed is the fixed cost on the exporting enclave's core to
	// receive, parse, and answer one attachment request (IPI handling,
	// message copies) — the floor of a Fig. 7 attachment detour.
	ServeFixed Time

	// --- Hierarchical collectives (internal/coll) -------------------------

	// RegProbe is the attacher-side registration-cache probe: a syscall
	// into the XPMEM driver that looks up the cached window and validates
	// it against the attachment table (liveness check), paid on every
	// cached attach (hit or miss) before any protocol work. Syscall-scale,
	// not cache-line-scale: the probe crosses the kernel boundary.
	RegProbe Time

	// CollFlagSync is one control-flag transfer between collective
	// ranks — a cache-line round trip through the shared arena, paid per
	// pipeline-chunk handoff and per barrier arrival/release.
	CollFlagSync Time

	// CollNUMABW, CollSocketBW, and CollFlatBW are the streaming copy
	// bandwidths of a collective data move whose endpoints share a NUMA
	// domain, share only a socket, or share neither — the locality cost
	// tiers the hierarchy exists to exploit (PAPERS.md, "Emulating
	// Hybrid Memory on NUMA Hardware"). Charged per chunk against the
	// level of the hierarchy edge the chunk crosses.
	CollNUMABW   float64
	CollSocketBW float64
	CollFlatBW   float64
}

// DefaultCosts returns the calibrated cost model described on Costs.
func DefaultCosts() *Costs {
	return &Costs{
		WalkPerPage:      88 * Nanosecond,
		PinPerPage:       110 * Nanosecond,
		MapPerPageLinux:  230 * Nanosecond,
		MapPerPageKitten: 120 * Nanosecond,
		UnmapPerPage:     55 * Nanosecond,
		FaultLinux:       1500 * Nanosecond,
		CoherencePerPage: 35 * Nanosecond,
		MmapRegionSetup:  3 * Microsecond,
		SmartmapAttach:   500 * Nanosecond,

		MemReadBW: 168e9,

		IPILatency: 1500 * Nanosecond,
		IPIHandler: 4 * Microsecond,
		MsgFixed:   1 * Microsecond,
		ChanBW:     10e9,

		Hypercall:            2 * Microsecond,
		IRQInject:            3 * Microsecond,
		RBVisit:              17 * Nanosecond,
		RBRotate:             28 * Nanosecond,
		PalaciosXlatePerPage: 12 * Nanosecond,
		NestedMapPerPage:     145 * Nanosecond,
		PCICopyBW:            12e9,

		NSOp:        500 * Nanosecond,
		RouteLookup: 200 * Nanosecond,

		Syscall: 300 * Nanosecond,

		RDMABandwidth:     3.88e9,
		RDMAMsgOverhead:   150 * Nanosecond,
		RDMASetup:         40 * Microsecond,
		RDMAMTU:           4096,
		RDMASwitchLatency: 100 * Nanosecond,

		LeaseCheck: 30 * Nanosecond,

		ServeFixed: 11 * Microsecond,

		RegProbe:     2 * Microsecond,
		CollFlagSync: 120 * Nanosecond,
		CollNUMABW:   15e9,
		CollSocketBW: 11e9,
		CollFlatBW:   8e9,
	}
}

// CopyTime reports the time to move n bytes at bandwidth bw bytes/second.
func CopyTime(n int, bw float64) Time {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return Time(float64(n) / bw * float64(Second))
}

// Package xemem is a library-level reproduction of XEMEM (Kocoloski &
// Lange, HPDC'15): efficient shared memory for composed applications on
// multi-OS/R exascale systems.
//
// Because XEMEM is kernel infrastructure — Linux and Kitten kernel
// modules, Palacios VMM extensions, and the Pisces co-kernel architecture
// — this package simulates the whole node in a deterministic virtual-time
// world: real page tables over simulated physical memory, real protocol
// messages over modelled channels, and real byte-level data sharing
// between processes in different enclaves. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for the regenerated evaluation.
//
// The entry point is a Node: boot the Linux management enclave (which
// hosts the name server), grow Kitten co-kernels and Palacios VMs on it,
// create processes, and drive them from actors in the node's World. The
// XPMEM-compatible user API lives on xpmem.Session handles.
//
//	node := xemem.NewNode(xemem.NodeConfig{Seed: 1, MemBytes: 1 << 30})
//	ck, _ := node.BootCoKernel("kitten0", 256<<20)
//	sim, heap, _ := node.KittenProcess(ck, "sim", 1<<20)
//	...
//	node.Run()
package xemem

import (
	"fmt"

	"xemem/internal/core"
	"xemem/internal/linuxos"
	"xemem/internal/mem"
	"xemem/internal/palacios"
	"xemem/internal/pisces"
	"xemem/internal/proc"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

// NodeConfig configures a simulated node.
type NodeConfig struct {
	// Name prefixes the node's enclaves (defaults to "node0").
	Name string
	// Seed drives every random stream on the node; equal seeds replay
	// identical runs. Only NewNode reads it: a node built by
	// NewNodeInWorld draws from its world's seed.
	Seed uint64
	// MemBytes is the node's physical memory (defaults to 32 GB — the
	// paper's evaluation machine).
	MemBytes uint64
	// LinuxCores is the management enclave's core count (defaults to 4;
	// core 0 handles cross-enclave IPIs).
	LinuxCores int
	// NoNameServer creates the management enclave without the root name
	// server. Cluster member nodes beyond the first set this and
	// bootstrap onto the first node's name service over the interconnect
	// (internal/cluster wires the channels before the world runs).
	NoNameServer bool
}

// Node is one simulated machine: a Linux management enclave hosting the
// name server, plus any co-kernels and VMs booted on it.
type Node struct {
	name  string
	w     *sim.World
	pm    *mem.PhysMem
	linux *linuxos.Linux
	lmod  *core.Module
}

// NewNode creates a node in a fresh world and starts its management
// enclave.
func NewNode(cfg NodeConfig) *Node {
	return NewNodeInWorld(sim.NewWorld(cfg.Seed), cfg)
}

// NewNodeInWorld creates a node inside an existing world — the multi-node
// experiments (§7) place several nodes in one world coupled by an
// interconnect. Every node in a world runs on the world's cost model.
func NewNodeInWorld(w *sim.World, cfg NodeConfig) *Node {
	name := cfg.Name
	if name == "" {
		name = "node0"
	}
	memBytes := cfg.MemBytes
	if memBytes == 0 {
		memBytes = 32 << 30
	}
	cores := cfg.LinuxCores
	if cores == 0 {
		cores = 4
	}
	pm := mem.NewPhysMem(name, memBytes)
	w.AddAudit("phys/"+name, pm.Audit)
	linux := linuxos.New(name+"/linux", w, pm.Zone(0), proc.HostDomain{Mem: pm}, cores)
	lmod := core.New(name+"/linux", w, linux, !cfg.NoNameServer)
	lmod.Start()
	return &Node{name: name, w: w, pm: pm, linux: linux, lmod: lmod}
}

// World returns the node's simulation world.
func (n *Node) World() *sim.World { return n.w }

// Phys returns the node's physical memory.
func (n *Node) Phys() *mem.PhysMem { return n.pm }

// Linux returns the management enclave's kernel.
func (n *Node) Linux() *linuxos.Linux { return n.linux }

// LinuxModule returns the management enclave's XEMEM module (which hosts
// the name server).
func (n *Node) LinuxModule() *core.Module { return n.lmod }

// Run executes the node's world until every workload actor finishes.
func (n *Node) Run() error { return n.w.Run() }

// BootCoKernel offlines memBytes from the management enclave and boots a
// Kitten co-kernel enclave on it (Pisces, §4).
func (n *Node) BootCoKernel(name string, memBytes uint64) (*pisces.CoKernel, error) {
	return pisces.CreateCoKernel(n.name+"/"+name, n.w, n.pm, n.linux.Zone(), memBytes, n.lmod)
}

// BootVM launches a Palacios VM on the management enclave (§4.4).
func (n *Node) BootVM(name string, memBytes uint64, guestCores int) (*palacios.VM, error) {
	return palacios.Launch(n.name+"/"+name, n.w, n.pm, n.linux.Zone(), memBytes, guestCores, n.lmod)
}

// BootVMOnCoKernel launches a Palacios VM hosted by a Kitten co-kernel —
// the Table 3 "Linux VM (Kitten Host)" configuration.
func (n *Node) BootVMOnCoKernel(name string, ck *pisces.CoKernel, memBytes uint64, guestCores int) (*palacios.VM, error) {
	return palacios.Launch(n.name+"/"+name, n.w, n.pm, ck.OS.Zone(), memBytes, guestCores, ck.Module)
}

// LinuxProcess creates a process in the management enclave on the given
// core and returns its XPMEM session.
func (n *Node) LinuxProcess(name string, coreIdx int) (*xpmem.Session, *proc.Process) {
	p := n.linux.NewProcess(name, coreIdx)
	return xpmem.NewSession(n.lmod, p), p
}

// KittenProcess creates a statically laid-out process in a co-kernel
// enclave with a heap of heapBytes, returning its session and heap
// region.
func (n *Node) KittenProcess(ck *pisces.CoKernel, name string, heapBytes uint64) (*xpmem.Session, *proc.Region, error) {
	p, heap, err := ck.OS.NewProcess(name, (heapBytes+mem.PageSize-1)/mem.PageSize)
	if err != nil {
		return nil, nil, err
	}
	return xpmem.NewSession(ck.Module, p), heap, nil
}

// GuestProcess creates a process inside a VM's Linux guest on the given
// vcpu and returns its session.
func (n *Node) GuestProcess(vm *palacios.VM, name string, coreIdx int) (*xpmem.Session, *proc.Process) {
	p := vm.Guest.NewProcess(name, coreIdx)
	return xpmem.NewSession(vm.Module, p), p
}

// AllocLinux gives a Linux (native or guest) process a new memory region
// of the given size. eager pre-populates it, modelling a warmed buffer.
func AllocLinux(l *linuxos.Linux, p *proc.Process, name string, bytes uint64, eager bool) (*proc.Region, error) {
	return l.Alloc(p, name, (bytes+mem.PageSize-1)/mem.PageSize, eager)
}

// Spawn starts a workload actor in the node's world.
func (n *Node) Spawn(name string, fn func(*sim.Actor)) *sim.Actor {
	return n.w.Spawn(fmt.Sprintf("%s/%s", n.name, name), fn)
}

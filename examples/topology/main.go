// Topology: build the paper's motivating eight-enclave node (Figures 1
// and 2) — a Linux management enclave hosting the name server, Kitten
// co-kernels A, D and G, VM C on the Linux host, and VMs E and F on
// co-kernel D — then run a shared-memory exchange between the two most
// distant enclaves, VM C and VM F, whose protocol commands route
// C → Linux → D → F and back (§3.2).
package main

import (
	"fmt"
	"log"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

func main() {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 2026, MemBytes: 8 << 30})

	ckA, err := node.BootCoKernel("lwkA", 256<<20)
	check(err)
	vmC, err := node.BootVM("vmC", 256<<20, 1)
	check(err)
	ckD, err := node.BootCoKernel("lwkD", 1<<30)
	check(err)
	vmE, err := node.BootVMOnCoKernel("vmE", ckD, 256<<20, 1)
	check(err)
	vmF, err := node.BootVMOnCoKernel("vmF", ckD, 256<<20, 1)
	check(err)
	ckG, err := node.BootCoKernel("lwkG", 256<<20)
	check(err)

	producerSess, producerProc := node.GuestProcess(vmF, "producer", 0)
	consumerSess, consumerProc := node.GuestProcess(vmC, "consumer", 0)

	node.Spawn("producer", func(a *sim.Actor) {
		region, err := xemem.AllocLinux(vmF.Guest, producerProc, "data", 256<<10, true)
		check(err)
		_, err = producerSess.Write(region.Base, []byte("routed across the enclave tree"))
		check(err)
		_, err = producerSess.Make(a, region.Base, 256<<10, xpmem.PermRead, "topo-demo")
		check(err)
	})
	node.Spawn("consumer", func(a *sim.Actor) {
		var segid xpmem.Segid
		a.PollDeadline(20*sim.Microsecond, sim.Forever, func() bool {
			s, err := consumerSess.Lookup(a, "topo-demo")
			if err != nil {
				return false
			}
			segid = s
			return true
		})
		apid, err := consumerSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		check(err)
		start := a.Now()
		va, err := consumerSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 256 << 10, Perm: xpmem.PermRead})
		check(err)
		buf := make([]byte, 30)
		_, err = consumerProc.AS.Read(va, buf)
		check(err)
		fmt.Printf("vmC attached vmF's export through the tree in %v and read: %q\n\n", a.Now()-start, buf)
	})

	check(node.Run())

	fmt.Println("Enclave IDs allocated by the name server (§3.2 bootstrap):")
	modules := []*core.Module{
		node.LinuxModule(), ckA.Module, vmC.Module, ckD.Module,
		vmE.Module, vmF.Module, ckG.Module,
	}
	for _, m := range modules {
		fmt.Printf("  %-16s enclave %d\n", m.Name(), m.EnclaveID())
	}
	fmt.Println("\nRouting state learned passively from ID allocations and traffic:")
	for _, m := range modules {
		fmt.Printf("  %s\n", m.R.RouteTable())
	}
	fmt.Println("\nForwarding counters (messages relayed for other enclaves):")
	for _, m := range modules {
		if f := m.Stats.MsgsForwarded; f > 0 {
			fmt.Printf("  %-16s forwarded %d\n", m.Name(), f)
		}
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Quickstart: boot a two-enclave node, export memory from a Kitten
// co-kernel process, and attach to it from a Linux process — the minimal
// XEMEM workflow of Table 1 (make → get → attach → detach → remove).
package main

import (
	"fmt"
	"log"

	"xemem"
	"xemem/internal/sim"
	"xemem/internal/xpmem"
)

func main() {
	// A node with 4 GB of memory: the Linux management enclave (which
	// hosts the name server) boots automatically.
	node := xemem.NewNode(xemem.NodeConfig{Seed: 1, MemBytes: 4 << 30})

	// Offline 256 MB from Linux and boot a Kitten co-kernel on it.
	ck, err := node.BootCoKernel("kitten0", 256<<20)
	if err != nil {
		log.Fatal(err)
	}

	// One process per enclave.
	producer, heap, err := node.KittenProcess(ck, "producer", 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	consumer, _ := node.LinuxProcess("consumer", 1)

	const regionBytes = 64 << 12 // 64 pages

	// Producer: write data, export it under a discoverable name.
	node.Spawn("producer", func(a *sim.Actor) {
		if _, err := producer.Write(heap.Base, []byte("hello from the lightweight kernel")); err != nil {
			log.Fatal(err)
		}
		segid, err := producer.Make(a, heap.Base, regionBytes, xpmem.PermRead|xpmem.PermWrite, "quickstart-data")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[producer ] exported %d KB as segid %d at t=%v\n", regionBytes>>10, segid, a.Now())
	})

	// Consumer: discover by name, get a permit, attach, read — zero-copy.
	node.Spawn("consumer", func(a *sim.Actor) {
		var segid xpmem.Segid
		a.Retry(20*sim.Microsecond, sim.Forever, func() bool {
			s, err := consumer.Lookup(a, "quickstart-data")
			if err != nil {
				return false
			}
			segid = s
			return true
		})
		apid, err := consumer.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			log.Fatal(err)
		}
		start := a.Now()
		va, err := consumer.AttachWith(a, segid, apid, xpmem.AttachOpts{
			Bytes: regionBytes, Perm: xpmem.PermRead | xpmem.PermWrite,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[consumer ] attached %d KB in %v (%.2f GB/s)\n",
			regionBytes>>10, a.Now()-start,
			sim.PerSecond(regionBytes, a.Now()-start)/1e9)

		buf := make([]byte, 33)
		if _, err := consumer.Read(va, buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[consumer ] read through the mapping: %q\n", buf)

		// Writes propagate back: it is the same physical memory.
		if _, err := consumer.Write(va, []byte("HELLO")); err != nil {
			log.Fatal(err)
		}
		if err := consumer.Detach(a, va); err != nil {
			log.Fatal(err)
		}
		if err := consumer.Release(a, segid, apid); err != nil {
			log.Fatal(err)
		}
	})

	if err := node.Run(); err != nil {
		log.Fatal(err)
	}

	// After the run: the producer's memory shows the consumer's write.
	back := make([]byte, 5)
	if _, err := producer.Read(heap.Base, back); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[producer ] sees the consumer's write: %q\n", back)
	fmt.Printf("[node     ] done at t=%v; %d attachment(s) served by kitten0\n",
		node.World().Now(), ck.Module.Stats.AttachesServed)
}

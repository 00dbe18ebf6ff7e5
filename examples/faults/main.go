// Faults: the DESIGN.md §10 failure model end-to-end. A Linux consumer
// hammers a co-kernel export while the injector drops 5% of kernel
// messages, stalls another 5%, takes the name server down for a window,
// and later crashes the exporting enclave mid-protocol — all
// deterministically from the node's seed. The consumer's bounded
// retries ride out the loss; after the crash every operation fails with
// a typed ErrEnclaveDown instead of hanging.
package main

import (
	"errors"
	"fmt"
	"log"

	"xemem"
	"xemem/internal/fault"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

func main() {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 7, MemBytes: 4 << 30})
	tr := trace.NewTracer("faults-demo")
	tr.SetKeepEvents(false)
	node.World().SetObserver(tr)

	ck, err := node.BootCoKernel("kitten0", 256<<20)
	if err != nil {
		log.Fatal(err)
	}

	// The fault plan: message loss and delay throughout, a name-server
	// brownout early on, and the co-kernel dying at t = 100 ms — late
	// enough that the export's own retry budget (50 ms first-attempt
	// timeout) can ride out a dropped publish first.
	const crashAt = 100 * sim.Millisecond
	inj := fault.New(node.World(), fault.Plan{
		DropProb:  0.05,
		DelayProb: 0.05,
		DelayMax:  5 * sim.Microsecond,
		NSOutages: []fault.Window{{Start: 200 * sim.Microsecond, End: 400 * sim.Microsecond}},
		Crashes:   []fault.Crash{{At: crashAt, Module: ck.Module.Name()}},
	})
	inj.Arm()

	producer, heap, err := node.KittenProcess(ck, "producer", 1<<20)
	if err != nil {
		log.Fatal(err)
	}
	consumer, _ := node.LinuxProcess("consumer", 1)
	const regionBytes = 64 << 12

	node.Spawn("producer", func(a *sim.Actor) {
		if _, err := producer.Write(heap.Base, []byte("survives message loss")); err != nil {
			log.Fatal(err)
		}
		if _, err := producer.Make(a, heap.Base, regionBytes, xpmem.PermRead, "faulty-data"); err != nil {
			log.Fatalf("export failed even with retries: %v", err)
		}
		fmt.Printf("[producer ] exported under 5%% loss at t=%v\n", a.Now())
	})

	node.Spawn("consumer", func(a *sim.Actor) {
		// The export can only appear before its enclave crashes, so the
		// lookup wait ends there.
		var segid xpmem.Segid
		found := a.Retry(20*sim.Microsecond, crashAt, func() bool {
			s, err := consumer.Lookup(a, "faulty-data")
			if err != nil {
				return false
			}
			segid = s
			return true
		})
		if !found {
			log.Fatalf("consumer: export %q not found before the crash at %v", "faulty-data", crashAt)
		}
		ok, down := 0, 0
		for i := 0; ; i++ {
			apid, err := consumer.GetWith(a, segid, xpmem.GetOpts{
				Perm: xpmem.PermRead, Timeout: 200 * sim.Microsecond,
			})
			if errors.Is(err, xpmem.ErrEnclaveDown) {
				down++
				if down == 1 {
					fmt.Printf("[consumer ] cycle %d: owner enclave is down (typed, not a hang) at t=%v\n", i, a.Now())
				}
				if a.Now() > crashAt+sim.Millisecond {
					break
				}
				continue
			}
			if err != nil {
				continue // ErrTimeout: retry budget exhausted this cycle
			}
			va, err := consumer.AttachWith(a, segid, apid, xpmem.AttachOpts{
				Bytes: regionBytes, Perm: xpmem.PermRead, Timeout: 500 * sim.Microsecond,
			})
			if err == nil {
				buf := make([]byte, len("survives message loss"))
				if _, err := consumer.Read(va, buf); err == nil {
					ok++
				}
				if err := consumer.Detach(a, va); err != nil {
					log.Fatal(err)
				}
			}
			if err := consumer.Release(a, segid, apid); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("[consumer ] %d successful cycles before the crash, %d enclave-down refusals after\n", ok, down)
	})

	if err := node.Run(); err != nil {
		log.Fatal(err)
	}

	st := inj.Stats()
	fmt.Printf("[injector ] %d deliveries: %d dropped, %d delayed (+%v), %d crash\n",
		st.Deliveries, st.Drops, st.Delays, st.DelayTime, st.Crashes)
	for _, f := range tr.Faults() {
		fmt.Printf("[trace    ] %-28s ×%d\n", f.Name, f.Count)
	}
	fmt.Printf("[trace    ] digest %s — identical on every rerun\n", tr.Digest().SHA256[:16])
}

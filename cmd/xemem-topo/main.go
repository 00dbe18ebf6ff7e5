// Command xemem-topo boots an arbitrary enclave topology described by a
// compact spec, runs the §3.2 bootstrap (name-server discovery, enclave-ID
// allocation, passive route learning), and prints the resulting IDs and
// per-enclave routing tables and the modules that forwarded messages for
// other enclaves. With -demo it also runs a shared-memory exchange
// between the first and last enclaves.
//
// The spec grammar and builder are the public xemem.Topology API
// (xemem.ParseTopology / Topology.Build); see its doc comment. The
// default spec, "vm,kitten,kitten,kitten(vm,vm)", is Figure 1's node:
// the demo exports from VM C and attaches from VM F, so its commands
// route C → Linux → D → F and back (§3.2).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

func main() {
	spec := flag.String("spec", "vm,kitten,kitten,kitten(vm,vm)", "topology spec (see doc comment)")
	demo := flag.Bool("demo", true, "run a shared-memory exchange between the first and last enclaves")
	seed := flag.Uint64("seed", 1, "simulation seed")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON of the bootstrap and demo to this file (open in chrome://tracing or Perfetto)")
	metricsOut := flag.String("metrics", "", "write contention metrics JSON to this file and print the breakdown table")
	flag.Parse()

	node := xemem.NewNode(xemem.NodeConfig{Seed: *seed, MemBytes: 16 << 30})
	var set *trace.Set
	if *traceOut != "" || *metricsOut != "" {
		set = trace.NewSet()
		set.SetKeepEvents(*traceOut != "")
		node.World().SetObserver(set.Get(fmt.Sprintf("topo/%s", *spec)))
	}
	topo, err := xemem.ParseTopology(*spec)
	var enclaves []*xemem.Enclave
	if err == nil {
		enclaves, err = topo.Build(node)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *demo && len(enclaves) >= 2 {
		runDemo(node, enclaves[0], enclaves[len(enclaves)-1])
	} else {
		node.Spawn("settle", func(a *sim.Actor) { a.Advance(sim.Millisecond) })
		if err := node.Run(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("Topology %q: %d enclaves plus the management enclave\n\n", *spec, len(enclaves))
	fmt.Print(fingerprint(node, enclaves))

	if set != nil {
		if *metricsOut != "" {
			fmt.Println()
			fmt.Print(set.Tracers()[0].Summary())
		}
		if err := set.WriteFiles(*traceOut, *metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// fingerprint renders the bootstrap outcome: enclave IDs, routing
// tables and the modules that relayed messages for other enclaves.
func fingerprint(node *xemem.Node, enclaves []*xemem.Enclave) string {
	modules := []*core.Module{node.LinuxModule()}
	for _, e := range enclaves {
		modules = append(modules, e.Module)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Enclave IDs (name-server allocated):\n")
	fmt.Fprintf(&b, "  %-16s enclave %d (name server)\n", modules[0].Name(), modules[0].EnclaveID())
	for _, m := range modules[1:] {
		fmt.Fprintf(&b, "  %-16s enclave %d\n", m.Name(), m.EnclaveID())
	}
	fmt.Fprintf(&b, "\nRouting tables:\n")
	for _, m := range modules {
		fmt.Fprintf(&b, "  %s\n", m.R.RouteTable())
	}
	fmt.Fprintf(&b, "\nForwarding (messages relayed for other enclaves):\n")
	for _, m := range modules {
		if f := m.Stats.MsgsForwarded; f > 0 {
			fmt.Fprintf(&b, "  %-16s forwarded %d\n", m.Name(), f)
		}
	}
	return b.String()
}

// runDemo exports from src and attaches from dst, whatever kinds they are.
func runDemo(node *xemem.Node, src, dst *xemem.Enclave) {
	mkSess := func(e *xemem.Enclave, role string) (*xpmem.Session, pagetable.VA) {
		if e.Kitten != nil {
			sess, heap, err := node.KittenProcess(e.Kitten, role, 1<<20)
			if err != nil {
				log.Fatal(err)
			}
			return sess, heap.Base
		}
		sess, p := node.GuestProcess(e.VM, role, 0)
		region, err := xemem.AllocLinux(e.VM.Guest, p, "buf", 1<<20, true)
		if err != nil {
			log.Fatal(err)
		}
		return sess, region.Base
	}
	expSess, expBase := mkSess(src, "producer")
	attSess, _ := mkSess(dst, "consumer")

	node.Spawn("demo", func(a *sim.Actor) {
		if _, err := expSess.Write(expBase, []byte("hierarchically routed")); err != nil {
			log.Fatal(err)
		}
		segid, err := expSess.Make(a, expBase, 64<<12, xpmem.PermRead, "topo-demo")
		if err != nil {
			log.Fatal(err)
		}
		apid, err := attSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead})
		if err != nil {
			log.Fatal(err)
		}
		start := a.Now()
		va, err := attSess.AttachWith(a, segid, apid, xpmem.AttachOpts{Bytes: 64 << 12, Perm: xpmem.PermRead})
		if err != nil {
			log.Fatal(err)
		}
		buf := make([]byte, 21)
		if _, err := attSess.Read(va, buf); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("demo: %s → %s attach completed in %v, read %q\n\n",
			src.Name, dst.Name, a.Now()-start, buf)
	})
	if err := node.Run(); err != nil {
		log.Fatal(err)
	}
}

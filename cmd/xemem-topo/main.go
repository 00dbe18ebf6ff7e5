// Command xemem-topo boots an arbitrary enclave topology described by a
// compact spec, runs the §3.2 bootstrap (name-server discovery, enclave-ID
// allocation, passive route learning), and prints the resulting IDs and
// per-enclave routing tables. With -demo it also runs a shared-memory
// exchange between the first and last leaf enclaves.
//
// The spec grammar and builder are the public xemem.Topology API
// (xemem.ParseTopology / Topology.Build); see its doc comment. Example:
// -spec "kitten,kitten(vm,vm),vm" reproduces Figure 1's node.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"xemem"
	"xemem/internal/experiments/sweep"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/sim/trace"
	"xemem/internal/xpmem"
)

func main() {
	spec := flag.String("spec", "kitten,kitten(vm,vm),vm", "topology spec (see doc comment)")
	demo := flag.Bool("demo", true, "run a shared-memory exchange between the first and last enclaves")
	seed := flag.Uint64("seed", 1, "simulation seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "boot this many replica worlds of the same spec concurrently and assert they bootstrap identically (1 disables the check)")
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
	enclaves, err := buildTopology(node, *spec)
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

	if *parallel > 1 {
		if err := replicaCheck(*seed, *spec, *parallel, fingerprint(node, enclaves)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nDeterminism check: %d replica worlds bootstrapped identically (%d workers)\n",
			*parallel, sweep.Workers(*parallel))
	}

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

// buildTopology parses and boots the spec under node's management
// enclave via the public Topology API.
func buildTopology(node *xemem.Node, spec string) ([]*xemem.Enclave, error) {
	topo, err := xemem.ParseTopology(spec)
	if err != nil {
		return nil, err
	}
	return topo.Build(node)
}

// fingerprint renders the bootstrap outcome — enclave IDs and routing
// tables — as the text the determinism check compares across replicas.
func fingerprint(node *xemem.Node, enclaves []*xemem.Enclave) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Enclave IDs (name-server allocated):\n")
	fmt.Fprintf(&b, "  %-16s enclave %d (name server)\n", node.LinuxModule().Name(), node.LinuxModule().EnclaveID())
	for _, e := range enclaves {
		fmt.Fprintf(&b, "  %-16s enclave %d\n", e.Module.Name(), e.Module.EnclaveID())
	}
	fmt.Fprintf(&b, "\nRouting tables:\n")
	fmt.Fprintf(&b, "  %s\n", node.LinuxModule().R.RouteTable())
	for _, e := range enclaves {
		fmt.Fprintf(&b, "  %s\n", e.Module.R.RouteTable())
	}
	return b.String()
}

// replicaCheck boots replicas fresh worlds of the same (seed, spec)
// concurrently via the sweep runner and verifies every one bootstraps to
// the same fingerprint as the interactive world.
func replicaCheck(seed uint64, spec string, replicas int, want string) error {
	cells := make([]sweep.Cell[string], replicas)
	for i := range cells {
		i := i
		cells[i] = sweep.Cell[string]{
			Label: fmt.Sprintf("topo replica %d", i),
			Run: func() (string, error) {
				n := xemem.NewNode(xemem.NodeConfig{Seed: seed, MemBytes: 16 << 30})
				encl, err := buildTopology(n, spec)
				if err != nil {
					return "", err
				}
				n.Spawn("settle", func(a *sim.Actor) { a.Advance(sim.Millisecond) })
				if err := n.Run(); err != nil {
					return "", err
				}
				return fingerprint(n, encl), nil
			},
		}
	}
	got, err := sweep.Run(cells, replicas)
	if err != nil {
		return err
	}
	for i, fp := range got {
		if fp != want {
			return fmt.Errorf("replica %d bootstrapped differently from the interactive world:\n%s", i, fp)
		}
	}
	return nil
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

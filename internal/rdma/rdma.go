// Package rdma models the alternative cross-enclave transport the paper
// benchmarks against in §5.2: RDMA writes over a dual-port QDR Mellanox
// ConnectX-3 InfiniBand device with SR-IOV, each endpoint a virtual
// function assigned to a KVM virtual machine.
//
// The model captures what the comparison needs: block transfers at MTU
// granularity over a serially reusable device, with queue-pair setup
// overhead and a sustained write bandwidth of ~3.4 GB/s — versus XEMEM's
// byte-addressable mappings at memory speed. The fundamental difference
// the paper notes (peripheral-bus block transfers vs. shared mappings) is
// structural, not a tuning artifact.
package rdma

import (
	"fmt"

	"xemem/internal/sim"
)

// Device is one InfiniBand device shared by its virtual functions. Its
// RDMA envelope is the acting actor's world's cost model.
type Device struct {
	wire *sim.Resource
}

// NewDevice creates an idle device.
func NewDevice(name string) *Device {
	return &Device{wire: sim.NewResource("ib:" + name)}
}

// VF is a virtual function assigned to one VM (SR-IOV).
type VF struct {
	dev  *Device
	name string
}

// NewVF registers a virtual function on the device.
func (d *Device) NewVF(name string) *VF { return &VF{dev: d, name: name} }

// Write performs one RDMA write of n bytes from this VF to the peer,
// charging the acting actor setup, per-MTU initiation, and wire time.
func (v *VF) Write(a *sim.Actor, n int) error {
	if n <= 0 {
		return fmt.Errorf("rdma: write of %d bytes", n)
	}
	a.Charge("rdma-setup", a.World().Costs().RDMASetup)
	v.dev.wire.AcquireOp(a, wireTime(a, n), "rdma-write")
	return nil
}

// BandwidthTest runs the §5.2 write bandwidth test: reps transfers of
// size bytes, returning the measured throughput in bytes per simulated
// second.
func (v *VF) BandwidthTest(a *sim.Actor, size, reps int) (float64, error) {
	start := a.Now()
	for i := 0; i < reps; i++ {
		if err := v.Write(a, size); err != nil {
			return 0, err
		}
	}
	return sim.PerSecond(float64(size)*float64(reps), a.Now()-start), nil
}

// Fabric is a cluster-scale wire topology: one HCA per node (the egress
// wire, modeled as that node's Device) plus a per-node ingress port on
// the switch, joined by a cut-through switch hop. Unlike the single
// shared Device of the bandwidth test, transfers between disjoint node
// pairs proceed concurrently — only a shared endpoint serializes them,
// which is exactly the contention a multi-node sweep needs to observe.
type Fabric struct {
	egress  []*Device
	ingress []*sim.Resource
}

// NewFabric builds a fabric of nodes HCAs around one switch.
func NewFabric(name string, nodes int) *Fabric {
	if nodes <= 0 {
		panic(fmt.Sprintf("rdma: fabric with %d nodes", nodes))
	}
	f := &Fabric{}
	for i := 0; i < nodes; i++ {
		f.egress = append(f.egress, NewDevice(fmt.Sprintf("%s/node%d", name, i)))
		f.ingress = append(f.ingress, sim.NewResource(fmt.Sprintf("ib-in:%s/node%d", name, i)))
	}
	return f
}

// wireTime is the occupancy one n-byte transfer by a imposes on each
// wire it crosses: per-MTU initiation plus serialization at the link
// bandwidth.
func wireTime(a *sim.Actor, n int) sim.Time {
	c := a.World().Costs()
	msgs := (n + c.RDMAMTU - 1) / c.RDMAMTU
	return sim.Time(msgs)*c.RDMAMsgOverhead + sim.CopyTime(n, c.RDMABandwidth)
}

// Transfer moves n bytes from node src to node dst: source HCA egress,
// switch hop, destination ingress port. The acting actor occupies each
// stage in order, so a hot destination backs up senders at its ingress
// port while disjoint pairs stream in parallel. Queue-pair setup is the
// channel's one-time cost, not per-transfer — cluster links charge
// RDMASetup at connect time, not here.
func (f *Fabric) Transfer(a *sim.Actor, src, dst, n int) error {
	if src < 0 || src >= len(f.egress) || dst < 0 || dst >= len(f.egress) {
		return fmt.Errorf("rdma: transfer %d->%d on a %d-node fabric", src, dst, len(f.egress))
	}
	if n <= 0 {
		return fmt.Errorf("rdma: transfer of %d bytes", n)
	}
	if src == dst {
		return fmt.Errorf("rdma: loopback transfer on node %d", src)
	}
	wt := wireTime(a, n)
	f.egress[src].wire.AcquireOp(a, wt, "rdma-egress")
	a.Charge("rdma-switch", a.World().Costs().RDMASwitchLatency)
	f.ingress[dst].AcquireOp(a, wt, "rdma-ingress")
	return nil
}

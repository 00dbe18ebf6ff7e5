package cluster

// Multi-node cluster builder. A Cluster places N simulated machines in
// one world, each built through the standard xemem.Node substrate (Linux
// management enclave and one Kitten co-kernel), and couples them with
// an InfiniBand fabric (internal/rdma.Fabric): every pair of management
// enclaves shares an RDMA message channel, so the §3.2 joining protocol,
// segment commands, and page-frame lists all travel the modelled wire.
//
// Node 0's management enclave hosts the root name server (enclave-ID
// allocation and, in flat clusters, the whole segment namespace). With
// Config.Shards > 0 the segment namespace is instead partitioned across
// shard replicas hosted on member nodes' management enclaves, and every
// module gains a lease cache over owner resolutions — the sharded name
// service the cluster-scale experiments measure against the flat one.

import (
	"fmt"

	"xemem"
	"xemem/internal/core"
	"xemem/internal/extent"
	"xemem/internal/pisces"
	"xemem/internal/rdma"
	"xemem/internal/sim"
	"xemem/internal/xproto"
)

// Config sizes a cluster.
type Config struct {
	// Nodes is the machine count (>= 1).
	Nodes int
	// Shards partitions the segment namespace across this many name-
	// service shards. 0 keeps the flat deployment: every name-service
	// operation funnels to node 0's root enclave over the fabric.
	Shards int
	// Replicas is the replica count per shard (default 2, primary
	// first). Shards*Replicas must not exceed Nodes — replicas live on
	// distinct nodes' management enclaves.
	Replicas int
	// LeaseTTL bounds how long an attacher trusts a cached segid→owner
	// resolution (default 1ms of virtual time). Sharded clusters only.
	LeaseTTL sim.Time
	// MemBytes is each node's physical memory (default 4 GB).
	MemBytes uint64
}

// ckBytes sizes each node's Kitten co-kernel partition: the workload
// enclave the cluster experiments export segments from.
const ckBytes = 256 << 20

func (cfg *Config) withDefaults() error {
	if cfg.Nodes < 1 {
		return fmt.Errorf("cluster: %d nodes", cfg.Nodes)
	}
	if cfg.Replicas == 0 {
		cfg.Replicas = 2
	}
	if cfg.Replicas < 1 {
		return fmt.Errorf("cluster: %d replicas per shard", cfg.Replicas)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("cluster: %d shards", cfg.Shards)
	}
	if cfg.Shards > 0 && cfg.Shards*cfg.Replicas > cfg.Nodes {
		return fmt.Errorf("cluster: %d shards x %d replicas need more than %d nodes",
			cfg.Shards, cfg.Replicas, cfg.Nodes)
	}
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = sim.Millisecond
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 4 << 30
	}
	return nil
}

// Node is one cluster machine.
type Node struct {
	Index int
	X     *xemem.Node
	CK    *pisces.CoKernel
}

// Modules lists the node's enclave modules in construction order.
func (n *Node) Modules() []*core.Module {
	return []*core.Module{n.X.LinuxModule(), n.CK.Module}
}

// Cluster is a built multi-node world.
type Cluster struct {
	W     *sim.World
	Costs *sim.Costs
	Fab   *rdma.Fabric
	Nodes []*Node
	// Map is the installed shard layout, nil in flat clusters. It is
	// populated by the setup daemon; read it only after WaitReady.
	Map *core.ShardMap

	cfg   Config
	links [][]*rlink // links[i][j]: endpoint at node i toward node j
	// nodeOf maps every enclave to its machine, filled in by the setup
	// actor once bootstrap has assigned IDs.
	nodeOf map[xproto.EnclaveID]int
	ready  bool
}

// NewInWorld builds a cluster inside an existing world: the nodes, the
// fabric mesh between their management enclaves, and a setup actor that
// — once every enclave has bootstrapped — seeds the cross-node routing
// mesh and installs the shard layout. Workload actors must WaitReady
// before issuing segment operations.
func NewInWorld(w *sim.World, cfg Config) (*Cluster, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	costs := sim.DefaultCosts()
	cl := &Cluster{
		W: w, Costs: costs, cfg: cfg,
		Fab:    rdma.NewFabric("cluster", costs, cfg.Nodes),
		links:  make([][]*rlink, cfg.Nodes),
		nodeOf: make(map[xproto.EnclaveID]int),
	}
	for i := range cl.links {
		cl.links[i] = make([]*rlink, cfg.Nodes)
	}
	for i := 0; i < cfg.Nodes; i++ {
		x := xemem.NewNodeInWorld(w, xemem.NodeConfig{
			Name:         fmt.Sprintf("node%d", i),
			MemBytes:     cfg.MemBytes,
			Costs:        costs,
			NoNameServer: i > 0,
		})
		n := &Node{Index: i, X: x}
		cl.Nodes = append(cl.Nodes, n)
		for j := 0; j < i; j++ {
			cl.connect(j, i)
		}
		ck, err := x.BootCoKernel("ck", ckBytes)
		if err != nil {
			return nil, err
		}
		n.CK = ck
		for _, m := range n.Modules() {
			m.SetNIC(&nic{cl: cl, node: i})
		}
	}
	w.Spawn("cluster/setup", cl.setup)
	return cl, nil
}

// connect wires the fabric channel between nodes i and j's management
// enclaves. The queue-pair setup cost is charged by the setup actor, so
// the links themselves carry no mutable state.
func (cl *Cluster) connect(i, j int) {
	a, b := cl.Nodes[i].X.LinuxModule(), cl.Nodes[j].X.LinuxModule()
	ij := &rlink{name: fmt.Sprintf("ib:node%d->node%d", i, j), c: cl.Costs, fab: cl.Fab, src: i, dst: j, in: b.In}
	ji := &rlink{name: fmt.Sprintf("ib:node%d->node%d", j, i), c: cl.Costs, fab: cl.Fab, src: j, dst: i, in: a.In}
	ij.peer, ji.peer = ji, ij
	core.Connect(a, b, ij, ji)
	cl.links[i][j], cl.links[j][i] = ij, ji
}

// setup runs once the world starts: it waits for every enclave's
// bootstrap, pays the one-time RDMA queue-pair setup per channel
// direction, seeds every management enclave's routing table with the
// full cross-node mesh (a real deployment exchanges these maps during
// the joining protocol; pre-seeding keeps segment traffic off the
// hop-routed slow path), and installs the shard layout.
func (cl *Cluster) setup(a *sim.Actor) {
	for _, n := range cl.Nodes {
		for _, m := range n.Modules() {
			m.WaitReady(a)
			cl.nodeOf[m.EnclaveID()] = n.Index
		}
	}
	for i := range cl.Nodes {
		for j := range cl.Nodes {
			if i != j {
				a.Charge("rdma-setup", cl.Costs.RDMASetup)
			}
		}
	}
	for i, ni := range cl.Nodes {
		lm := ni.X.LinuxModule()
		for j, nj := range cl.Nodes {
			if i == j {
				continue
			}
			via := cl.links[i][j]
			for _, m := range nj.Modules() {
				if id := m.EnclaveID(); id != xproto.NoEnclave && !lm.R.Knows(id) {
					lm.R.Learn(id, via)
				}
			}
		}
	}
	if cl.cfg.Shards > 0 {
		cl.installShards()
	}
	cl.ready = true
}

// installShards places shard k's replica r on node (k*Replicas+r)'s
// management enclave — distinct nodes for every replica, and node 0
// (whose root instance keeps hosting enclave-ID allocation) always
// carries shard 0's primary — then hands every module the shard map.
func (cl *Cluster) installShards() {
	s, r := cl.cfg.Shards, cl.cfg.Replicas
	replicas := make([][]xproto.EnclaveID, s)
	for k := 0; k < s; k++ {
		for i := 0; i < r; i++ {
			host := cl.Nodes[k*r+i].X.LinuxModule()
			host.HostShardNS(k, i, s, r)
			replicas[k] = append(replicas[k], host.EnclaveID())
		}
	}
	cl.Map = &core.ShardMap{Replicas: replicas, LeaseTTL: cl.cfg.LeaseTTL}
	for _, n := range cl.Nodes {
		for _, m := range n.Modules() {
			m.SetShardMap(cl.Map)
		}
	}
}

// WaitReady blocks the workload actor until setup completes.
func (cl *Cluster) WaitReady(a *sim.Actor) {
	a.PollDeadline(10*sim.Microsecond, sim.Forever, func() bool { return cl.ready })
}

// Modules lists every enclave module in the cluster, node-major in
// construction order (fault registration).
func (cl *Cluster) Modules() []*core.Module {
	var mods []*core.Module
	for _, n := range cl.Nodes {
		mods = append(mods, n.Modules()...)
	}
	return mods
}

// nic is the per-node core.NIC implementation: it answers machine
// locality from the cluster's enclave→node map and mirrors cross-node
// attachments by pulling the owner's bytes over the fabric into frames
// from this node's management zone (the RDMA-read bounce buffer a real
// multi-node XPMEM bridge would use).
type nic struct {
	cl   *Cluster
	node int
}

// Remote reports whether owner's memory lives on another machine.
// Enclaves the cluster does not know (e.g. VMs booted by workloads after
// setup) are treated as local, preserving single-machine behaviour.
func (n *nic) Remote(owner xproto.EnclaveID) bool {
	home, ok := n.cl.nodeOf[owner]
	return ok && home != n.node
}

// MirrorFrames pulls the owner's frame bytes across the fabric into
// freshly allocated local frames.
func (n *nic) MirrorFrames(a *sim.Actor, owner xproto.EnclaveID, list extent.List) (extent.List, error) {
	home := n.cl.nodeOf[owner]
	local, err := n.cl.Nodes[n.node].X.Linux().Zone().AllocScattered(list.Pages(), 512)
	if err != nil {
		return extent.List{}, err
	}
	if err := n.cl.Fab.Transfer(a, home, n.node, int(list.Bytes())); err != nil {
		return extent.List{}, err
	}
	buf := make([]byte, list.Bytes())
	if err := n.cl.Nodes[home].X.Phys().ReadAt(list, 0, buf); err != nil {
		return extent.List{}, err
	}
	if err := n.cl.Nodes[n.node].X.Phys().WriteAt(local, 0, buf); err != nil {
		return extent.List{}, err
	}
	return local, nil
}

// FreeMirror returns mirrored frames to the node's management zone.
func (n *nic) FreeMirror(list extent.List) {
	if err := n.cl.Nodes[n.node].X.Linux().Zone().Free(list); err != nil {
		panic(fmt.Sprintf("cluster: freeing mirror frames: %v", err))
	}
}

// rlink is one direction of a cross-node RDMA message channel: the
// message crosses the fabric (source HCA egress, switch hop, destination
// ingress) and lands in the peer enclave's inbox with a completion
// interrupt. Queue-pair setup is paid once at cluster setup, so the link
// is stateless.
type rlink struct {
	name     string
	c        *sim.Costs
	fab      *rdma.Fabric
	src, dst int
	peer     *rlink
	in       *xproto.Inbox
}

// Send moves the message's wire bytes over the fabric and raises the
// completion interrupt at the destination.
func (l *rlink) Send(a *sim.Actor, m *xproto.Message) {
	if err := l.fab.Transfer(a, l.src, l.dst, m.WireSize()); err != nil {
		panic(fmt.Sprintf("cluster: %s: %v", l.name, err)) // static topology: unreachable
	}
	a.Charge("ipi", l.c.IPILatency)
	l.in.Put(a, m, l.peer)
}

// String names the link.
func (l *rlink) String() string { return l.name }

package xemem

import (
	"fmt"
	"strings"

	"xemem/internal/core"
	"xemem/internal/palacios"
	"xemem/internal/pisces"
)

// Topology is the parsed form of a compact enclave-topology spec — the
// first-class locality model the collective layer (internal/coll) and
// the xemem-topo tool both build from. The spec grammar places children
// of the Linux management enclave at top level:
//
//	spec  := node ("," node)*
//	node  := ("kitten" | "vm") [ "(" spec ")" ]
//
// kitten children may be kittens (nested co-kernels) or vms (Palacios on
// a Kitten host); vm nodes are leaves. Example:
// "vm,kitten,kitten,kitten(vm,vm)" reproduces Figure 1's node: VM C on
// the Linux host, co-kernels A, G and D, and VMs E and F on D.
//
// Build places the enclaves on a fixed locality grid of 2 sockets × 2
// NUMA domains, assigned round-robin in boot order, and gives every VM
// one vCPU. The zero values of the memory knobs reproduce the historical
// xemem-topo behaviour (1 GB top-level co-kernels, 256 MB VMs); nested
// co-kernels always take nestedKittenBytes (512 MB).
type Topology struct {
	// Spec is the source text the topology was parsed from.
	Spec string
	// Roots are the top-level nodes, in spec order.
	Roots []*TopoNode

	// Memory sizing. Zero means the default in parentheses: KittenBytes
	// (1 GB) sizes top-level co-kernels, VMBytes (256 MB) the Palacios
	// VMs.
	KittenBytes uint64
	VMBytes     uint64
}

// Build assigns the i-th enclave (boot order) the NUMA domain i mod
// numaDomains. NUMA domain ids are global, so two Localities share a
// socket iff their domains divide into the same socket.
const (
	numaPerSocket = 2
	numaDomains   = 2 * numaPerSocket
	vmCores       = 1
)

// nestedKittenBytes sizes every co-kernel nested under a co-kernel,
// carved from its parent's zone.
const nestedKittenBytes = 512 << 20

// TopoNode is one node of the parsed enclave tree.
type TopoNode struct {
	// Kind is "kitten" or "vm".
	Kind string
	// Children are the node's nested enclaves (kitten nodes only).
	Children []*TopoNode
}

// ParseTopology parses a topology spec. The returned Topology carries
// default sizing knobs; adjust its fields before Build to override them.
func ParseTopology(spec string) (*Topology, error) {
	roots, err := parseNodes(spec)
	if err != nil {
		return nil, err
	}
	return &Topology{Spec: spec, Roots: roots}, nil
}

// parseNodes parses one comma-separated level of the spec grammar.
func parseNodes(spec string) ([]*TopoNode, error) {
	var out []*TopoNode
	for _, part := range splitTop(spec) {
		kind, children := part, ""
		if i := strings.IndexByte(part, '('); i >= 0 {
			if !strings.HasSuffix(part, ")") {
				return nil, fmt.Errorf("unbalanced parens in %q", part)
			}
			kind, children = part[:i], part[i+1:len(part)-1]
		}
		n := &TopoNode{Kind: kind}
		switch kind {
		case "kitten":
			if children != "" {
				kids, err := parseNodes(children)
				if err != nil {
					return nil, err
				}
				n.Children = kids
			}
		case "vm":
			if children != "" {
				return nil, fmt.Errorf("vm nodes are leaves: %q", part)
			}
		default:
			return nil, fmt.Errorf("unknown node kind %q", kind)
		}
		out = append(out, n)
	}
	return out, nil
}

// splitTop splits a spec on commas at paren depth zero.
func splitTop(s string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if tail := strings.TrimSpace(s[start:]); tail != "" {
		out = append(out, tail)
	}
	return out
}

// Locality places an enclave on the node's physical topology: which
// socket it runs on and which NUMA domain its memory lives in. NUMA
// domain ids are global across sockets.
type Locality struct {
	Socket int
	NUMA   int
}

// Level names one tier of the collective hierarchy, innermost first:
// ranks sharing a NUMA domain, ranks sharing a socket, and the flat
// top tier spanning the whole node.
type Level int

const (
	LevelNUMA Level = iota
	LevelSocket
	LevelFlat
)

// String names the level for diagnostics and trace op labels.
func (l Level) String() string {
	switch l {
	case LevelNUMA:
		return "numa"
	case LevelSocket:
		return "socket"
	default:
		return "flat"
	}
}

// Key reports the grouping key of loc at level l: two localities with
// equal keys are local to each other at that level.
func (loc Locality) Key(l Level) int {
	switch l {
	case LevelNUMA:
		return loc.NUMA
	case LevelSocket:
		return loc.Socket
	default:
		return 0
	}
}

// DefaultLevels is the full three-tier hierarchy, innermost first.
var DefaultLevels = []Level{LevelNUMA, LevelSocket, LevelFlat}

// Enclave is one booted enclave of a Topology: its XEMEM module,
// whichever of the co-kernel/VM handles applies, and its assigned
// locality.
type Enclave struct {
	Name   string
	Module *core.Module
	Kitten *pisces.CoKernel // nil for VMs
	VM     *palacios.VM     // nil for co-kernels
	Loc    Locality
}

// Build boots the topology's enclave tree under n's management enclave,
// returning the enclaves in spec (pre-)order. Naming, sizing, and boot
// order are exactly the historical xemem-topo behaviour: enclaves are
// named kind+counter with a single pre-order counter, top-level
// co-kernels take KittenBytes carved from the management enclave,
// nested co-kernels take nestedKittenBytes from their parent kitten's
// zone, and VMs take VMBytes wherever they are hosted.
func (t *Topology) Build(n *Node) ([]*Enclave, error) {
	kittenBytes := t.KittenBytes
	if kittenBytes == 0 {
		kittenBytes = 1 << 30
	}
	vmBytes := t.VMBytes
	if vmBytes == 0 {
		vmBytes = 256 << 20
	}

	var enclaves []*Enclave
	counter := 0
	var build func(nodes []*TopoNode, parent *pisces.CoKernel) error
	build = func(nodes []*TopoNode, parent *pisces.CoKernel) error {
		for _, tn := range nodes {
			counter++
			name := fmt.Sprintf("%s%d", tn.Kind, counter)
			d := (counter - 1) % numaDomains
			loc := Locality{Socket: d / numaPerSocket, NUMA: d}
			switch tn.Kind {
			case "kitten":
				var ck *pisces.CoKernel
				var err error
				if parent == nil {
					ck, err = n.BootCoKernel(name, kittenBytes)
				} else {
					ck, err = pisces.CreateCoKernel(name, n.World(), n.Phys(),
						parent.OS.Zone(), nestedKittenBytes, parent.Module)
				}
				if err != nil {
					return err
				}
				enclaves = append(enclaves, &Enclave{Name: name, Module: ck.Module, Kitten: ck, Loc: loc})
				if err := build(tn.Children, ck); err != nil {
					return err
				}
			case "vm":
				var vm *palacios.VM
				var err error
				if parent == nil {
					vm, err = n.BootVM(name, vmBytes, vmCores)
				} else {
					vm, err = n.BootVMOnCoKernel(name, parent, vmBytes, vmCores)
				}
				if err != nil {
					return err
				}
				enclaves = append(enclaves, &Enclave{Name: name, Module: vm.Module, VM: vm, Loc: loc})
			}
		}
		return nil
	}
	if err := build(t.Roots, nil); err != nil {
		return nil, err
	}
	return enclaves, nil
}

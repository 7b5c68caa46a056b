package nm

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"conman/internal/core"
)

// Node is one module in the potential-connectivity graph. Its edges are
// its own fields, so a Path (whose hops point at nodes) keeps the graph
// it was found on reachable.
type Node struct {
	Ref    core.ModuleRef
	Abs    core.Abstraction
	Domain string // address domain, for IP modules (§III-C pruning)

	above, below []*Node // potential up-down neighbours, sorted by Ref
	phys         []PhysAttachment
	// Partitions of phys, built once so the finders do not rescan every
	// customer port per expansion on an edge switch with thousands of
	// external attachments: wires carries only resolved device-to-device
	// links, externals only external ports, physAt indexes by pipe id.
	wires, externals []PhysAttachment
	physAt           map[core.PipeID]PhysAttachment
	// idRank is Ref.Module's place among the graph's module ids in
	// string order, so the best-first tie-break compares integers.
	idRank int
}

// String renders the node as its module reference.
func (n *Node) String() string { return n.Ref.String() }

// PhysAttachment is one physical pipe of an (ETH) module with its
// resolved far end.
type PhysAttachment struct {
	Pipe     core.PipeID
	External bool
	Peer     *Node // nil when external or unresolved
	PeerPipe core.PipeID
}

// Graph is the NM's potential-connectivity graph: modules as nodes,
// potential up-down pipes and discovered physical pipes as edges (Fig 5).
type Graph struct {
	nodes   map[core.ModuleRef]*Node
	ordered []*Node
}

// BuildGraph constructs the graph from everything the NM has learnt
// through topology reports and showPotential.
func BuildGraph(n *NM) (*Graph, error) {
	g := &Graph{nodes: make(map[core.ModuleRef]*Node)}
	// Nodes.
	type portTop struct {
		peerDev  core.DeviceID
		peerPort string
		external bool
		attached bool
	}
	type devModules struct {
		dev  core.DeviceID
		mods []core.Abstraction
		top  map[string]portTop
	}
	var devs []devModules
	for _, id := range n.Devices() {
		info, _ := n.Device(id)
		if info == nil || len(info.Modules) == 0 {
			continue
		}
		dm := devModules{dev: id, mods: info.Modules, top: make(map[string]portTop)}
		for _, p := range info.Topology.Ports {
			dm.top[p.Name] = portTop{p.PeerDevice, p.PeerPort, p.External, p.Attached}
		}
		devs = append(devs, dm)
	}
	for _, dm := range devs {
		for _, abs := range dm.mods {
			node := &Node{Ref: abs.Ref, Abs: abs.Clone(), Domain: abs.Attributes["address-domain"]}
			g.nodes[node.Ref] = node
			g.ordered = append(g.ordered, node)
		}
	}
	rankModuleIDs(g.ordered)
	// Potential up-down edges within each device.
	for _, dm := range devs {
		for _, upper := range dm.mods {
			for _, lower := range dm.mods {
				if upper.Ref == lower.Ref {
					continue
				}
				if upper.Down.CanConnect(lower.Ref.Name) && lower.Up.CanConnect(upper.Ref.Name) {
					u, l := g.nodes[upper.Ref], g.nodes[lower.Ref]
					u.below = append(u.below, l)
					l.above = append(l.above, u)
				}
			}
		}
	}
	// Physical edges from topology reports matched by the Phy-<port>
	// pipe naming convention.
	portOwner := make(map[string]*Node) // "<dev>/<port>" -> ETH node
	portDown := make(map[string]bool)   // "<dev>/<port>" reported not attached
	for _, dm := range devs {
		for port, t := range dm.top {
			if !t.attached && !t.external {
				portDown[string(dm.dev)+"/"+port] = true
			}
		}
		for _, abs := range dm.mods {
			for _, pp := range abs.Physical {
				port := strings.TrimPrefix(string(pp.Pipe), "Phy-")
				portOwner[string(dm.dev)+"/"+port] = g.nodes[abs.Ref]
			}
		}
	}
	for _, dm := range devs {
		for _, abs := range dm.mods {
			node := g.nodes[abs.Ref]
			for _, pp := range abs.Physical {
				port := strings.TrimPrefix(string(pp.Pipe), "Phy-")
				t, ok := dm.top[port]
				att := PhysAttachment{Pipe: pp.Pipe, External: pp.External || (ok && t.external)}
				// A reported-down link (cut wire, §III-C.2) contributes no
				// physical edge, so the path finder routes around it. Either
				// end's report takes it down in both directions: the edge
				// goes as soon as the first end re-reports, not when the
				// second does.
				if ok && t.peerDev != "" && t.attached && !att.External {
					peerKey := string(t.peerDev) + "/" + t.peerPort
					if peer, found := portOwner[peerKey]; found && !portDown[peerKey] {
						att.Peer = peer
						att.PeerPipe = core.PipeID("Phy-" + t.peerPort)
					}
				}
				node.phys = append(node.phys, att)
				switch {
				case att.External:
					node.externals = append(node.externals, att)
				case att.Peer != nil:
					node.wires = append(node.wires, att)
				}
				if node.physAt == nil {
					node.physAt = make(map[core.PipeID]PhysAttachment)
				}
				node.physAt[att.Pipe] = att
			}
		}
	}
	// Deterministic neighbour ordering.
	byRef := func(ns []*Node) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Ref.String() < ns[j].Ref.String() })
	}
	for _, node := range g.ordered {
		byRef(node.above)
		byRef(node.below)
	}
	return g, nil
}

// rankModuleIDs sets every node's idRank: the position of its module id
// among the distinct ids in string order.
func rankModuleIDs(nodes []*Node) {
	ids := make([]string, 0, len(nodes))
	for _, n := range nodes {
		ids = append(ids, string(n.Ref.Module))
	}
	sort.Strings(ids)
	ids = slices.Compact(ids)
	for _, n := range nodes {
		n.idRank, _ = slices.BinarySearch(ids, string(n.Ref.Module))
	}
}

// Node fetches a node by reference.
func (g *Graph) Node(ref core.ModuleRef) (*Node, bool) {
	n, ok := g.nodes[ref]
	return n, ok
}

// Nodes returns all nodes.
func (g *Graph) Nodes() []*Node { return append([]*Node(nil), g.ordered...) }

// DeviceSubgraph renders the potential-connectivity sub-graph of one
// device as an edge list (the paper's Fig 5).
func (g *Graph) DeviceSubgraph(dev core.DeviceID) []string {
	var lines []string
	for _, n := range g.ordered {
		if n.Ref.Device != dev {
			continue
		}
		for _, b := range n.below {
			lines = append(lines, fmt.Sprintf("%s -- down/up pipe -- %s", n.Ref, b.Ref))
		}
		for _, m := range n.Abs.Switch.Modes {
			if m == core.SwDownDown || m == core.SwUpUp || m == core.SwPhyPhy {
				lines = append(lines, fmt.Sprintf("%s has %s switching", n.Ref, m))
			}
		}
		for _, pa := range n.phys {
			if pa.External {
				lines = append(lines, fmt.Sprintf("%s -- physical pipe %s -- (external)", n.Ref, pa.Pipe))
			} else if pa.Peer != nil {
				lines = append(lines, fmt.Sprintf("%s -- physical pipe %s -- %s", n.Ref, pa.Pipe, pa.Peer.Ref))
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// DOT renders the device sub-graph in Graphviz format (for Fig 5).
func (g *Graph) DOT(dev core.DeviceID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph %q {\n", string(dev))
	b.WriteString("  rankdir=BT;\n")
	for _, n := range g.ordered {
		if n.Ref.Device != dev {
			continue
		}
		label := n.Ref.String()
		for _, m := range n.Abs.Switch.Modes {
			if m == core.SwDownDown {
				label += "\\n[down=>down]"
			}
			if m == core.SwUpUp {
				label += "\\n[up=>up]"
			}
			if m == core.SwPhyPhy {
				label += "\\n[phy=>phy]"
			}
		}
		fmt.Fprintf(&b, "  %q [label=%q];\n", n.Ref.String(), label)
	}
	seen := map[string]bool{}
	for _, n := range g.ordered {
		if n.Ref.Device != dev {
			continue
		}
		for _, lower := range n.below {
			key := n.Ref.String() + "--" + lower.Ref.String()
			if seen[key] {
				continue
			}
			seen[key] = true
			fmt.Fprintf(&b, "  %q -- %q;\n", lower.Ref.String(), n.Ref.String())
		}
		for _, pa := range n.phys {
			if pa.External {
				fmt.Fprintf(&b, "  %q -- %q [style=dashed,label=%q];\n", n.Ref.String(), "external:"+string(pa.Pipe), string(pa.Pipe))
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}

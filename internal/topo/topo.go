// Package topo generates deterministic, seedable network topologies
// for testbeds and experiments: fat-tree/Clos fabrics, rings, tori and
// random Waxman graphs. A generator emits a Wiring — the device, port
// and wire inventory of the fabric plus the edge devices eligible for
// customer attachment — which the experiments package turns into a
// running netsim testbed (BuildTopoVLAN and friends), generalizing the
// hand-built BuildLinear*/BuildDiamond* shapes to arbitrary graphs.
//
// Everything is deterministic: the parameterised families (fat-tree,
// ring, torus) depend only on their parameters, and Waxman graphs
// depend only on (n, alpha, beta, seed). Canonical() renders a Wiring
// to a byte-stable string so tests can assert same-seed => identical
// fabric. The package also carries the graph utilities the chaos
// harness builds on: connectivity queries under a set of dead wires
// and devices (the minimum-cut guard) and degree accounting.
//
// The package is pure data — it imports only core and the standard
// library, so nm, netsim and experiments can all depend on it.
package topo

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"conman/internal/core"
)

// Port identifies one attachment point of a wire.
type Port struct {
	Device core.DeviceID
	Port   string
}

func (p Port) String() string { return string(p.Device) + ":" + p.Port }

// Wire is one physical link of the fabric. Names are unique within a
// Wiring and double as netsim medium names.
type Wire struct {
	Name string
	A, B Port
}

// Device is one managed device of the fabric with its trunk ports (in
// allocation order). Customer-facing ports are not part of the Wiring;
// testbed builders add them per intent pair.
type Device struct {
	ID    core.DeviceID
	Ports []string
}

// Pair is a pair of edge devices an intent crosses the core between.
type Pair struct {
	A, B core.DeviceID
}

// Wiring is a generated topology: the full device/port/wire inventory
// plus the ordered list of edge devices eligible to host customers.
type Wiring struct {
	// Family names the generator ("fat-tree", "ring", "torus", "waxman").
	Family string
	// Param is the human-readable parameterisation ("k=4", "n=64", ...).
	Param string

	Devices []Device
	Wires   []Wire

	// Edges lists the customer-eligible devices in an order chosen so
	// that CrossCorePairs' index pairing spans the fabric core (edge
	// switches in pod order for fat-trees, device order otherwise).
	Edges []core.DeviceID
}

// builder accumulates a Wiring, allocating ports as wires are added so
// the same construction order always yields the same fabric.
type builder struct {
	w     *Wiring
	idx   map[core.DeviceID]int
	ports map[core.DeviceID]int
}

func newBuilder(family, param string) *builder {
	return &builder{
		w:     &Wiring{Family: family, Param: param},
		idx:   make(map[core.DeviceID]int),
		ports: make(map[core.DeviceID]int),
	}
}

func (b *builder) addDevice(id core.DeviceID) {
	b.idx[id] = len(b.w.Devices)
	b.w.Devices = append(b.w.Devices, Device{ID: id})
}

// port allocates the next trunk port on dev ("p000", "p001", ...).
func (b *builder) port(dev core.DeviceID) string {
	n := b.ports[dev]
	b.ports[dev] = n + 1
	name := fmt.Sprintf("p%03d", n)
	i := b.idx[dev]
	b.w.Devices[i].Ports = append(b.w.Devices[i].Ports, name)
	return name
}

// wire links a and b over freshly allocated ports. Wire names embed an
// index (unique even for parallel links) plus both endpoints for
// debuggability.
func (b *builder) wire(a, c core.DeviceID) {
	name := fmt.Sprintf("w%05d.%s~%s", len(b.w.Wires), a, c)
	b.w.Wires = append(b.w.Wires, Wire{
		Name: name,
		A:    Port{Device: a, Port: b.port(a)},
		B:    Port{Device: c, Port: b.port(c)},
	})
}

// FatTree generates a k-ary fat-tree/Clos fabric (k even, k >= 2):
// (k/2)^2 core switches and k pods of k/2 aggregation plus k/2 edge
// switches. Every edge switch connects to every aggregation switch of
// its pod; aggregation switch a of each pod connects to cores
// a*(k/2)..a*(k/2)+k/2-1. Edge switches are the customer-eligible
// devices, listed in pod order so CrossCorePairs spans pods (and hence
// the core layer).
func FatTree(k int) (*Wiring, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree needs even k >= 2, got %d", k)
	}
	h := k / 2
	b := newBuilder("fat-tree", fmt.Sprintf("k=%d", k))
	cores := make([]core.DeviceID, h*h)
	for i := range cores {
		cores[i] = core.DeviceID(fmt.Sprintf("cr%03d", i))
		b.addDevice(cores[i])
	}
	aggs := make([][]core.DeviceID, k)
	edges := make([][]core.DeviceID, k)
	for p := 0; p < k; p++ {
		aggs[p] = make([]core.DeviceID, h)
		edges[p] = make([]core.DeviceID, h)
		for a := 0; a < h; a++ {
			aggs[p][a] = core.DeviceID(fmt.Sprintf("ag%02d.%02d", p, a))
			b.addDevice(aggs[p][a])
		}
		for e := 0; e < h; e++ {
			edges[p][e] = core.DeviceID(fmt.Sprintf("ed%02d.%02d", p, e))
			b.addDevice(edges[p][e])
			b.w.Edges = append(b.w.Edges, edges[p][e])
		}
	}
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for a := 0; a < h; a++ {
				b.wire(edges[p][e], aggs[p][a])
			}
		}
		for a := 0; a < h; a++ {
			for c := 0; c < h; c++ {
				b.wire(aggs[p][a], cores[a*h+c])
			}
		}
	}
	return b.w, nil
}

// Ring generates a cycle of n switches (n >= 3). Every device is
// customer-eligible; CrossCorePairs pairs diametrically opposite
// devices, so each intent crosses half the ring.
func Ring(n int) (*Wiring, error) {
	if n < 3 {
		return nil, fmt.Errorf("topo: ring needs n >= 3, got %d", n)
	}
	b := newBuilder("ring", fmt.Sprintf("n=%d", n))
	ids := make([]core.DeviceID, n)
	for i := range ids {
		ids[i] = core.DeviceID(fmt.Sprintf("sw%04d", i))
		b.addDevice(ids[i])
		b.w.Edges = append(b.w.Edges, ids[i])
	}
	for i := 0; i < n; i++ {
		b.wire(ids[i], ids[(i+1)%n])
	}
	return b.w, nil
}

// Torus generates a rows x cols 2D torus (both >= 3): every device
// links to its right and down neighbour with wraparound, degree 4
// everywhere. All devices are customer-eligible, in row-major order.
func Torus(rows, cols int) (*Wiring, error) {
	if rows < 3 || cols < 3 {
		return nil, fmt.Errorf("topo: torus needs rows, cols >= 3, got %dx%d", rows, cols)
	}
	b := newBuilder("torus", fmt.Sprintf("n=%dx%d", rows, cols))
	ids := make([]core.DeviceID, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			id := core.DeviceID(fmt.Sprintf("t%03d.%03d", r, c))
			ids[r*cols+c] = id
			b.addDevice(id)
			b.w.Edges = append(b.w.Edges, id)
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.wire(ids[r*cols+c], ids[r*cols+(c+1)%cols])
			b.wire(ids[r*cols+c], ids[((r+1)%rows)*cols+c])
		}
	}
	return b.w, nil
}

// Waxman generates a random geometric graph after Waxman (1988): n
// devices at seeded-uniform positions in the unit square, a wire
// between each pair with probability alpha*exp(-d/(beta*L)) where d is
// their Euclidean distance and L the maximal distance. Because a
// random draw can leave the graph partitioned, remaining components
// are then stitched together deterministically by repeatedly wiring
// the closest cross-component device pair, so every returned graph is
// connected. Identical (n, alpha, beta, seed) yields a byte-identical
// Wiring. All devices are customer-eligible.
func Waxman(n int, alpha, beta float64, seed int64) (*Wiring, error) {
	if n < 2 {
		return nil, fmt.Errorf("topo: waxman needs n >= 2, got %d", n)
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 {
		return nil, fmt.Errorf("topo: waxman needs 0 < alpha <= 1 and beta > 0, got alpha=%g beta=%g", alpha, beta)
	}
	b := newBuilder("waxman", fmt.Sprintf("n=%d alpha=%g beta=%g seed=%d", n, alpha, beta, seed))
	rng := rand.New(rand.NewSource(seed))
	type pt struct{ x, y float64 }
	pos := make([]pt, n)
	ids := make([]core.DeviceID, n)
	for i := range ids {
		ids[i] = core.DeviceID(fmt.Sprintf("wx%04d", i))
		b.addDevice(ids[i])
		b.w.Edges = append(b.w.Edges, ids[i])
		pos[i] = pt{rng.Float64(), rng.Float64()}
	}
	dist := func(i, j int) float64 {
		return math.Hypot(pos[i].x-pos[j].x, pos[i].y-pos[j].y)
	}
	l := math.Sqrt2
	comp := make([]int, n) // union-find, path-halving
	for i := range comp {
		comp[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for comp[i] != i {
			comp[i] = comp[comp[i]]
			i = comp[i]
		}
		return i
	}
	union := func(i, j int) { comp[find(i)] = find(j) }
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < alpha*math.Exp(-dist(i, j)/(beta*l)) {
				b.wire(ids[i], ids[j])
				union(i, j)
			}
		}
	}
	// Stitch components: closest cross-component pair, smallest (i, j)
	// on ties — fully deterministic.
	for {
		bi, bj, bd := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if find(i) == find(j) {
					continue
				}
				if d := dist(i, j); d < bd {
					bi, bj, bd = i, j, d
				}
			}
		}
		if bi < 0 {
			return b.w, nil
		}
		b.wire(ids[bi], ids[bj])
		union(bi, bj)
	}
}

// ---------------------------------------------------------------------------
// Graph utilities

// index returns device ID -> position in w.Devices.
func (w *Wiring) index() map[core.DeviceID]int {
	idx := make(map[core.DeviceID]int, len(w.Devices))
	for i, d := range w.Devices {
		idx[d.ID] = i
	}
	return idx
}

// ConnectedWithout reports whether a path exists between a and b over
// wires not in deadWires whose endpoints are not in deadDevs. A dead
// endpoint device makes the query false. Nil maps mean nothing dead.
// This is the primitive under the chaos harness's minimum-cut guard: a
// candidate kill is admissible only if every intent's endpoint pair
// stays connected without it.
func (w *Wiring) ConnectedWithout(deadWires map[string]bool, deadDevs map[core.DeviceID]bool, a, b core.DeviceID) bool {
	if deadDevs[a] || deadDevs[b] {
		return false
	}
	if a == b {
		return true
	}
	idx := w.index()
	ai, ok := idx[a]
	if !ok {
		return false
	}
	bi, ok := idx[b]
	if !ok {
		return false
	}
	adj := make([][]int, len(w.Devices))
	for _, wi := range w.Wires {
		if deadWires[wi.Name] || deadDevs[wi.A.Device] || deadDevs[wi.B.Device] {
			continue
		}
		i, j := idx[wi.A.Device], idx[wi.B.Device]
		adj[i] = append(adj[i], j)
		adj[j] = append(adj[j], i)
	}
	seen := make([]bool, len(w.Devices))
	queue := []int{ai}
	seen[ai] = true
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == bi {
			return true
		}
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return false
}

// CrossCorePairs returns m intent endpoint pairs spanning the fabric:
// edge device i is paired with edge device i + len(Edges)/2, so every
// pair crosses the core (opposite pods on a fat-tree, diametrically
// opposite devices on a ring). All 2m devices are distinct; m is
// capped at len(Edges)/2.
func (w *Wiring) CrossCorePairs(m int) ([]Pair, error) {
	half := len(w.Edges) / 2
	if m < 1 || m > half {
		return nil, fmt.Errorf("topo: %s %s supports 1..%d cross-core pairs, got %d", w.Family, w.Param, half, m)
	}
	pairs := make([]Pair, m)
	for i := 0; i < m; i++ {
		pairs[i] = Pair{A: w.Edges[i], B: w.Edges[i+half]}
	}
	return pairs, nil
}

// Canonical renders the wiring to a byte-stable string: the generator
// determinism contract is Canonical(gen(args)) == Canonical(gen(args)).
func (w *Wiring) Canonical() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "topo %s %s devices=%d wires=%d\n", w.Family, w.Param, len(w.Devices), len(w.Wires))
	for _, d := range w.Devices {
		fmt.Fprintf(&sb, "device %s ports=%s\n", d.ID, strings.Join(d.Ports, ","))
	}
	for _, wi := range w.Wires {
		fmt.Fprintf(&sb, "wire %s %s %s\n", wi.Name, wi.A, wi.B)
	}
	fmt.Fprintf(&sb, "edges")
	for _, e := range w.Edges {
		fmt.Fprintf(&sb, " %s", e)
	}
	sb.WriteString("\n")
	return sb.String()
}

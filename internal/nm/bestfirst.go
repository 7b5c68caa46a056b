package nm

// Goal-directed best-first path search (§III-C.1: the NM "determines
// the sequence of modules" for a goal). The exhaustive finder in
// pathfinder.go materialises every protocol-sane variant and filters
// afterwards; on long L2 chains that space is exponential and the
// DefaultMaxPaths cap truncates it, making selection over the result
// unreliable. FindBest instead keeps a priority queue of partial paths
// ordered by the paper's selection metric — pipes instantiated, then
// forwarding speed, then hop count — and a dominance table keyed on a
// plain comparable value, bfKey: the module and mode, the entry pipe,
// and the open header stack (interned per search, so its pointer
// identifies it). Only a search that asks for a flavour (FindSpec.Prefer)
// adds the flavour features of flavour.go to the key; an unflavoured one
// partitions on nothing but that state. The best path pops first,
// without the variant space ever being built; the number of expanded
// states is linear in path length on the chains where enumeration
// explodes.

import (
	"container/heap"
	"fmt"

	"conman/internal/core"
)

// bfMaxExpand is the runaway safety valve on queue expansions. The
// dominance table bounds the reachable state space far below this on
// every real topology; hitting the valve is reported as an error.
const bfMaxExpand = 1 << 20

// DefaultMaxStack is the open-header bound applied when
// FindSpec.MaxStack is zero: comfortably above the paper's deepest
// stack (a tunnel over a label-switched core opens five) while keeping
// the best-first state space linear in chain length.
const DefaultMaxStack = 8

// bfStack is one open protocol header on a partial path's stack, as an
// immutable linked list shared between the partial paths that diverge
// above it (below points down). Stacks are interned per search
// (bfFinder.pushStack), so two equal stacks are one pointer and the
// dominance key compares stacks by identity.
type bfStack struct {
	below    *bfStack
	protocol core.ModuleName
	domain   string
	external bool
	depth    int // headers open including this one
}

// bfKey is the dominance state of a partial path. Two prefixes with the
// same key have the same admissible suffixes, except for the per-module
// visit limit, which the key leaves out (see the completeness net in
// FindBest).
type bfKey struct {
	node      *Node
	mode      core.SwitchMode
	entryPhys core.PipeID
	stack     *bfStack
	flav      bfFlavor // zero unless the search has a Prefer
}

// bfNode is one hop of a partial path on the best-first frontier. Hops
// form a parent-linked chain; a completed path is materialised by
// replaying the chain through the same peer-group bookkeeping the
// exhaustive enumerator maintains, so the resulting Path is
// structurally identical to an enumerated one.
type bfNode struct {
	parent *bfNode
	node   *Node
	mode   core.SwitchMode

	entryVia   *Node       // co-located module we entered from (up/down entries)
	entryPhys  core.PipeID // physical pipe we entered on ("" otherwise)
	parentExit core.PipeID // the pipe the parent exited on (physical transitions)
	finalPhys  core.PipeID // accepting external exit (accepted leaves only)
	accepted   bool

	// Score so far, in the selection metric's order.
	depth int
	pipes int
	fast  bool

	stack *bfStack
	flav  bfFlavor // tracked only when the search has a Prefer

	seq     int  // insertion order, the final tie-break
	dropped bool // superseded on its dominance frontier; skip on pop
}

// dominates reports whether a recorded arrival makes the candidate
// redundant: no completion of the candidate can beat the best
// completion of the recorded one under (pipes, fast, hops, module
// sequence). Pipes and hops only grow by suffix-identical amounts from
// a shared state, and fast only ORs in, so Pareto comparison is sound;
// on full score ties the lexicographically smaller prefix wins, exactly
// like the enumerator's sorted tie-break.
func (r *bfNode) dominates(c *bfNode) bool {
	if r.pipes > c.pipes || r.depth > c.depth || (!r.fast && c.fast) {
		return false
	}
	if r.pipes < c.pipes || r.depth < c.depth || (r.fast && !c.fast) {
		return true
	}
	return tieOrder(r, c) <= 0
}

// bfLess is the frontier (and final-answer) ordering: the selection
// metric, then the enumerator-parity tie-breaks, then insertion order.
func bfLess(a, b *bfNode) bool {
	if a.pipes != b.pipes {
		return a.pipes < b.pipes
	}
	if a.fast != b.fast {
		return a.fast
	}
	if a.depth != b.depth {
		return a.depth < b.depth
	}
	if c := tieOrder(a, b); c != 0 {
		return c < 0
	}
	return a.seq < b.seq
}

// tieOrder compares two partial paths of equal depth (both callers
// compare depth first) in the enumerator's sort order: the module-id
// sequence as Path.Modules() joins it, then the mode sequence as
// modeString concatenates it. It walks both parent chains up to their
// common ancestor; the module-id difference nearest the first hop
// decides, and only with no module difference the mode difference
// nearest the first hop. Ids compare by their per-graph rank, which is
// the joined strings' order as long as no id holds a byte below ','.
func tieOrder(a, b *bfNode) int {
	mods, modes := 0, 0
	for ; a != b; a, b = a.parent, b.parent {
		if d := a.node.idRank - b.node.idRank; d != 0 {
			mods = d
		}
		if d := modeOrder(a.mode) - modeOrder(b.mode); d != 0 {
			modes = d
		}
	}
	if mods != 0 {
		return mods
	}
	return modes
}

// endOrder ranks pipe ends by name ("down" < "phy" < "up"), the order in
// which two "[from => to]" mode strings that first differ at an end
// compare.
var endOrder = [...]int{core.EndDown: 0, core.EndPhy: 1, core.EndUp: 2}

// modeOrder ranks a switching mode the way its String() sorts.
func modeOrder(m core.SwitchMode) int { return 3*endOrder[m.From] + endOrder[m.To] }

type bfHeap []*bfNode

func (h bfHeap) Len() int           { return len(h) }
func (h bfHeap) Less(i, j int) bool { return bfLess(h[i], h[j]) }
func (h bfHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *bfHeap) Push(x any)        { *h = append(*h, x.(*bfNode)) }
func (h *bfHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

type bfFinder struct {
	spec     FindSpec
	stats    PruneStats
	queue    bfHeap
	seen     map[bfKey][]*bfNode
	stacks   map[bfStack]*bfStack // the interned header stacks
	seq      int
	max      int // accepted-pop safety valve
	maxDepth int
	maxStack int
	initial  *bfStack
}

// FindBest returns the single best path for the spec: the preferred
// flavour's best when spec.Prefer is set, the paper's selection metric
// otherwise (fewest pipes instantiated, fast forwarding on ties, then
// hop count). By default it runs the goal-directed best-first search
// and never materialises the variant space; spec.Exhaustive reroutes
// through the legacy enumerate-then-filter engine for A/B comparison.
// A nil path with a nil error means no protocol-sane path (or none of
// the preferred flavour) exists; a Prefer that Describe never returns
// gets one at once, with PruneStats.PreferUnknown set and no state
// expanded.
func (g *Graph) FindBest(spec FindSpec) (*Path, PruneStats, error) {
	if spec.Prefer != "" && !PreferRecognized(spec.Prefer) {
		return nil, PruneStats{PreferUnknown: true}, nil
	}
	if spec.Exhaustive {
		paths, stats, err := g.FindPaths(spec)
		if err != nil {
			return nil, stats, err
		}
		if spec.Prefer != "" {
			for _, p := range paths {
				if p.Describe() == spec.Prefer {
					return p, stats, nil
				}
			}
			return nil, stats, nil
		}
		return SelectPath(paths), stats, nil
	}

	from, entryPipe, err := g.resolveEndpoints(spec)
	if err != nil {
		return nil, PruneStats{}, err
	}
	f := &bfFinder{
		spec:     spec,
		seen:     make(map[bfKey][]*bfNode),
		stacks:   make(map[bfStack]*bfStack),
		max:      spec.MaxPaths,
		maxDepth: 2 * len(g.nodes), // the visit rule's own bound
		maxStack: spec.MaxStack,
	}
	// The customer frame arrives with an Ethernet header around an IP
	// packet in the customer's address domain (same premise as the
	// enumerator).
	f.initial = f.pushStack(f.pushStack(nil, core.NameIPv4, spec.TrafficDomain, true), core.NameETH, "", true)
	if f.max == 0 {
		f.max = DefaultMaxPaths
	}
	if f.maxStack == 0 {
		f.maxStack = DefaultMaxStack
	}
	heap.Init(&f.queue)
	f.enter(nil, from, core.EndPhy, nil, entryPipe, "")

	// held is the best acceptable completion popped so far. It cannot
	// be returned the moment it pops: pipes are monotone along a path
	// but the fast bit is not (a tied-on-pipes route may gain fast
	// forwarding deeper in), so an equal-pipes better completion can
	// still be hiding behind an unexpanded prefix. Draining the frontier
	// until its minimum pipe count exceeds the held completion's makes
	// the result exact — nothing left can even tie.
	var held *bfNode
	var heldPath *Path
	acceptedPops := 0
	for f.queue.Len() > 0 {
		if held != nil && f.queue[0].pipes > held.pipes {
			return heldPath, f.stats, nil
		}
		b := heap.Pop(&f.queue).(*bfNode)
		if b.dropped {
			continue
		}
		if b.accepted {
			p := f.materialize(b)
			if f.spec.Prefer == "" || p.Describe() == f.spec.Prefer {
				if held == nil || bfLess(b, held) {
					held, heldPath = b, p
				}
			} else if acceptedPops++; acceptedPops >= f.max {
				return heldPath, f.stats, nil
			}
			continue
		}
		if f.stats.Expanded++; f.stats.Expanded > bfMaxExpand {
			return nil, f.stats, fmt.Errorf("nm: best-first search exceeded %d expansions", bfMaxExpand)
		}
		f.expand(b)
	}
	if held != nil {
		return heldPath, f.stats, nil
	}
	// Completeness net: the dominance key leaves out the modules a
	// prefix has visited, so a prefix that survives on a key can later
	// be blocked by the per-module visit limit where the prefix it
	// pruned would have completed. Paths that leave a device and come
	// back to it hit this: on the L2 fabric over the n=4 Waxman graph
	// with seed 56, the only transparent-core tunnel runs wx0000 →
	// wx0002 → wx0001 → wx0002, and the search alone finds no path
	// (TestFindBestNetCoversDeviceRevisit). So an empty result that
	// no explicit valve caused (MaxStack prune, accepted-pop cap) is
	// re-checked against the exhaustive enumerator before "no path" is
	// reported. The cost is paid only on the no-path path (including a
	// Prefer flavour that genuinely does not exist), bounded by the
	// enumerator's own MaxPaths cap. Known residual of the same hole: if
	// the blocked survivor completes via a *worse* suffix instead of not
	// at all, the returned path can be metric-suboptimal; the net can go
	// only once the dominance key carries the visited modules too.
	if f.stats.StackCap == 0 && acceptedPops < f.max {
		exh := spec
		exh.Exhaustive = true
		p, estats, err := g.FindBest(exh)
		f.stats.Expanded += estats.Expanded
		return p, f.stats, err
	}
	return nil, f.stats, nil
}

// expand pushes every admissible successor of a popped partial path.
func (f *bfFinder) expand(b *bfNode) {
	switch b.mode.To {
	case core.EndUp:
		for _, up := range b.node.above {
			f.enter(b, up, core.EndDown, b.node, "", "")
		}
	case core.EndDown:
		for _, down := range b.node.below {
			f.enter(b, down, core.EndUp, b.node, "", "")
		}
	case core.EndPhy:
		// External exits only ever complete the path at the goal module
		// (maybeAccept rejects everything else), so skip them entirely on
		// transit nodes and, when the spec pins the exit port, probe that
		// one attachment instead of scanning the edge switch's thousands
		// of customer ports.
		if b.node.Ref == f.spec.To {
			if f.spec.ToPipe != "" {
				if pa, ok := b.node.physAt[f.spec.ToPipe]; ok && pa.External && pa.Pipe != b.entryPhys {
					f.maybeAccept(b, pa.Pipe)
				}
			} else {
				for _, pa := range b.node.externals {
					if pa.Pipe != b.entryPhys {
						f.maybeAccept(b, pa.Pipe)
					}
				}
			}
		}
		for _, pa := range b.node.wires {
			if pa.Pipe != b.entryPhys { // never exit the pipe we entered on
				f.enter(b, pa.Peer, core.EndPhy, nil, pa.PeerPipe, pa.Pipe)
			}
		}
	}
}

// enter tries every switching mode of node reachable from the given
// entry end, pushing one child hop per admissible mode. The cycle rule
// is the enumerator's: each module at most once per path, twice for
// [phy => down] L2 ETH modules (Fig 9b traverses module a twice).
func (f *bfFinder) enter(parent *bfNode, node *Node, entry core.PipeEnd, entryVia *Node, entryPhys, parentExit core.PipeID) {
	if parent != nil && parent.depth >= f.maxDepth {
		return
	}
	count := 0
	for b := parent; b != nil; b = b.parent {
		if b.node == node {
			count++
		}
	}
	if count >= visitLimit(node) {
		f.stats.Visited++
		return
	}
	for _, mode := range node.Abs.Switch.Modes {
		if mode.From != entry {
			continue
		}
		if child := f.makeChild(parent, node, mode, entryVia, entryPhys, parentExit); child != nil {
			f.push(child)
		}
	}
}

// makeChild applies the mode's header effect and the paper's pruning
// rules (protocol sanity, external-frame termination, Fig 6b address
// domains) to produce the child hop, or nil when the branch is pruned.
func (f *bfFinder) makeChild(parent *bfNode, node *Node, mode core.SwitchMode, entryVia *Node, entryPhys, parentExit core.PipeID) *bfNode {
	stack := f.initial
	if parent != nil {
		stack = parent.stack
	}
	newStack := stack
	switch mode.Effect() {
	case core.EffectPop, core.EffectProcess:
		if stack == nil {
			return nil
		}
		if canon(stack.protocol) != canon(node.Ref.Name) {
			f.stats.NameMismatch++
			return nil
		}
		// The customer's own Ethernet framing may only be terminated at
		// the goal's endpoint modules.
		if stack.external && canon(stack.protocol) == core.NameETH &&
			node.Ref != f.spec.From && node.Ref != f.spec.To {
			f.stats.ExternalLeak++
			return nil
		}
		// Address-domain rule (Fig 6b).
		if !f.spec.DisableDomainPruning &&
			canon(node.Ref.Name) == core.NameIPv4 &&
			stack.domain != "" && node.Domain != "" && stack.domain != node.Domain {
			f.stats.DomainMismatch++
			return nil
		}
		if mode.Effect() == core.EffectPop {
			newStack = stack.below
		}
	case core.EffectPush:
		if stack != nil && stack.depth >= f.maxStack {
			f.stats.StackCap++
			return nil
		}
		newStack = f.pushStack(stack, node.Ref.Name, node.Domain, false)
	}

	child := &bfNode{
		parent: parent, node: node, mode: mode,
		entryVia: entryVia, entryPhys: entryPhys, parentExit: parentExit,
		depth: 1, stack: newStack,
	}
	if parent != nil {
		child.depth = parent.depth + 1
		child.pipes = parent.pipes
		if entryPhys == "" {
			child.pipes++ // the parent exits through an up-down pipe
		}
		child.fast = parent.fast
	}
	if node.Abs.Attributes["forwarding"] == "fast" {
		child.fast = true
	}
	if f.spec.Prefer != "" {
		if parent != nil {
			child.flav = parent.flav
			if entryPhys != "" {
				child.flav.leaveDevice() // crossing a wire completes the parent's device
			}
		}
		child.flav.add(node, mode)
		if !child.flav.viable(f.spec.Prefer) {
			return nil
		}
	}
	return child
}

// pushStack opens a header above s, returning the search's one copy of
// the resulting stack.
func (f *bfFinder) pushStack(s *bfStack, protocol core.ModuleName, domain string, external bool) *bfStack {
	n := bfStack{below: s, protocol: protocol, domain: domain, external: external, depth: 1}
	if s != nil {
		n.depth = s.depth + 1
	}
	if p, ok := f.stacks[n]; ok {
		return p
	}
	p := &n
	f.stacks[n] = p
	return p
}

// push inserts a child into the frontier unless a recorded arrival at
// the same dominance state makes it redundant; recorded arrivals the
// child supersedes are dropped (skipped when they pop).
func (f *bfFinder) push(child *bfNode) {
	key := bfKey{node: child.node, mode: child.mode, entryPhys: child.entryPhys, stack: child.stack, flav: child.flav}
	recs := f.seen[key]
	for _, r := range recs {
		if r.dominates(child) {
			return
		}
	}
	kept := recs[:0]
	for _, r := range recs {
		if child.dominates(r) {
			r.dropped = true
		} else {
			kept = append(kept, r)
		}
	}
	f.seen[key] = append(kept, child)
	f.seq++
	child.seq = f.seq
	heap.Push(&f.queue, child)
}

// maybeAccept pushes a completed-path leaf when the hop exits the goal
// module's external pipe with a clean header stack: the freshly pushed
// Ethernet header directly above the customer's original IP packet.
func (f *bfFinder) maybeAccept(b *bfNode, pipe core.PipeID) {
	if b.node.Ref != f.spec.To {
		return
	}
	if f.spec.ToPipe != "" && pipe != f.spec.ToPipe {
		return
	}
	s := b.stack
	if s == nil || s.external || canon(s.protocol) != core.NameETH {
		return
	}
	if s.below == nil || !s.below.external || s.below.below != nil {
		return
	}
	leaf := *b
	leaf.accepted = true
	leaf.finalPhys = pipe
	f.seq++
	leaf.seq = f.seq
	heap.Push(&f.queue, &leaf)
}

// materialize rebuilds the full Path from an accepted leaf's hop chain,
// replaying the enumerator's peer-group bookkeeping so the result is
// structurally identical to an enumerated path.
func (f *bfFinder) materialize(leaf *bfNode) *Path {
	var chain []*bfNode
	for b := leaf; b != nil; b = b.parent {
		chain = append(chain, b)
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	groups := []PeerGroup{
		{Protocol: core.NameETH, External: true},
		{Protocol: core.NameIPv4, Domain: f.spec.TrafficDomain, External: true},
	}
	stack := []int{0, 1}
	hops := make([]Hop, len(chain))
	for i, b := range chain {
		h := Hop{Node: b.node, Mode: b.mode, EntryVia: b.entryVia, EntryPhys: b.entryPhys}
		switch b.mode.Effect() {
		case core.EffectPop:
			h.Group = stack[0]
			groups[h.Group].Members = append(groups[h.Group].Members, i)
			groups[h.Group].Closed = true
			stack = stack[1:]
		case core.EffectProcess:
			h.Group = stack[0]
			groups[h.Group].Members = append(groups[h.Group].Members, i)
		case core.EffectPush:
			h.Group = len(groups)
			groups = append(groups, PeerGroup{
				Protocol: b.node.Ref.Name, Domain: b.node.Domain, Members: []int{i},
			})
			stack = append([]int{h.Group}, stack...)
		}
		if i+1 < len(chain) {
			next := chain[i+1]
			if next.entryPhys == "" {
				h.ExitVia = next.node
			} else {
				h.ExitPhys = next.parentExit
			}
		} else {
			h.ExitPhys = b.finalPhys
		}
		hops[i] = h
	}
	return &Path{Hops: hops, Groups: groups}
}

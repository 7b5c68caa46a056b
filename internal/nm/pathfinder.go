package nm

import (
	"fmt"
	"sort"
	"strings"

	"conman/internal/core"
)

// PeerGroup records every module that touched one protocol header along a
// path: the pusher first, processors in order, the popper last. The NM
// derives pipe peer relationships from these groups (§III-C.1: "This also
// allows the NM to determine modules that are peers of each other").
type PeerGroup struct {
	Protocol core.ModuleName
	Domain   string
	Members  []int // hop indices, in path order
	External bool  // header originated outside the managed domain
	Closed   bool  // popped within the path
}

// Hop is one module traversal in a found path.
type Hop struct {
	Node *Node
	Mode core.SwitchMode
	// EntryVia/ExitVia are the co-located neighbour modules for up/down
	// entries and exits (nil for physical).
	EntryVia, ExitVia *Node
	// EntryPhys/ExitPhys are set for physical entries and exits.
	EntryPhys, ExitPhys core.PipeID
	// Group is the index of the PeerGroup this hop touched.
	Group int
}

// Path is one protocol-sane module-level path.
type Path struct {
	Hops   []Hop
	Groups []PeerGroup
}

// Modules returns the path as the paper prints it: the module-id sequence
// ("a, g, l, h, b, c, i, d, e, j, n, k, f").
func (p *Path) Modules() string {
	ids := make([]string, len(p.Hops))
	for i, h := range p.Hops {
		ids[i] = string(h.Node.Ref.Module)
	}
	return strings.Join(ids, ", ")
}

// Pipes counts the up-down pipes the path would instantiate (the paper's
// selection metric: "minimizes the total number of pipes instantiated in
// the routers").
func (p *Path) Pipes() int {
	n := 0
	for _, h := range p.Hops {
		if h.ExitVia != nil {
			n++
		}
	}
	return n
}

// PruneStats counts why the search abandoned branches (Fig 6's
// examples), plus how many states it expanded — the cost metric the
// exhaustive-vs-best-first benchmark compares.
type PruneStats struct {
	NameMismatch   int // header/protocol mismatch ("protocol sanity")
	DomainMismatch int // peers in different address domains (Fig 6b)
	Visited        int // cycle avoidance
	ExternalLeak   int // customer L2 header handled off the endpoints
	StackCap       int // encapsulation deeper than MaxStack (best-first)
	Expanded       int // module entries explored (DFS visits / queue pops)
	// PreferUnknown reports that FindSpec.Prefer was set to a string
	// Describe never returns (e.g. "GRE tunnel" instead of "GRE-IP
	// tunnel"). No path can match it, so FindBest returned a nil path at
	// once without expanding a state. Callers surface it as a typo
	// rather than a missing path; see PreferRecognized.
	PreferUnknown bool
}

// DefaultMaxPaths is the enumeration cap applied when FindSpec.MaxPaths
// is zero. For the exhaustive enumerator it bounds the materialised
// variant space (on long L2 chains that space is exponential, and only
// the canonical-first mode ordering keeps the canonical path inside the
// cap — selection over the truncated set is unreliable). The best-first
// finder does not enumerate, so for it the cap is a safety valve only:
// the number of completed-but-unpreferred paths it will pop before
// giving up.
const DefaultMaxPaths = 1000

// FindSpec describes what the path finder should connect.
type FindSpec struct {
	// From/To are the endpoint (customer-facing) ETH modules.
	From, To core.ModuleRef
	// TrafficDomain is the address domain of the customer traffic the
	// path must carry (e.g. "C1").
	TrafficDomain string
	// FromPipe/ToPipe optionally pin the external physical pipes the
	// path must enter and leave through ("Phy-<port>"). Zero values keep
	// the default: enter on the From module's first external pipe, leave
	// on any external pipe of To. Pinning matters on multi-tenant edges
	// where one module fronts several customer ports.
	FromPipe, ToPipe core.PipeID
	// MaxPaths bounds the search (0 = DefaultMaxPaths): the enumeration
	// cap for the exhaustive finder, the accepted-path safety valve for
	// the best-first finder.
	MaxPaths int
	// Prefer pins a path flavour by its Describe() string ("GRE-IP
	// tunnel", "MPLS", "VLAN tunnel") for FindBest. Empty selects by the
	// paper's metric: fewest pipes, fast forwarding on ties (§III-C.1).
	Prefer string
	// Exhaustive makes FindBest fall back to the legacy
	// enumerate-then-filter engine (FindPaths + selection) instead of
	// the goal-directed best-first search — kept for A/B testing and the
	// equivalence suite.
	Exhaustive bool
	// MaxStack bounds how many protocol headers a partial path may have
	// open at once in the best-first search (0 = DefaultMaxStack). Real
	// encapsulation stacks are shallow — the paper's deepest,
	// GRE-over-MPLS, opens five — but an L2 chain admits unbounded
	// re-tagging (push a fresh VLAN header at every switch), and those
	// never-selectable deep variants are exactly what makes the search
	// space quadratic instead of linear. The exhaustive enumerator is
	// deliberately left unbounded for parity with the paper's Fig 6
	// pruning rules.
	MaxStack int
	// DisableDomainPruning turns off the Fig 6(b) rule (for the ablation
	// benchmark).
	DisableDomainPruning bool
}

type finder struct {
	spec     FindSpec
	stats    PruneStats
	visited  map[*Node]int
	hops     []Hop
	groups   []PeerGroup
	stack    []int // group indices, top first
	paths    []*Path
	max      int
	maxDepth int
}

// visitLimit implements the paper's cycle avoidance: each module appears
// at most once in a path. L2-switch ETH modules are the one exception —
// the paper's own Fig 9b script sends the packet through module a twice
// (customer port in, VLAN tag, trunk port out) — so modules advertising
// [phy => down] may be traversed twice.
func visitLimit(n *Node) int {
	if n.Abs.Switch.Supports(core.SwPhyDown) {
		return 2
	}
	return 1
}

// FindPaths enumerates all protocol-sane paths from spec.From's external
// physical pipe to spec.To's, applying the paper's two pruning rules:
// encapsulation sanity and address-domain compatibility (§III-C.1).
func (g *Graph) FindPaths(spec FindSpec) ([]*Path, PruneStats, error) {
	from, entryPipe, err := g.resolveEndpoints(spec)
	if err != nil {
		return nil, PruneStats{}, err
	}
	f := &finder{
		spec:    spec,
		visited: make(map[*Node]int),
		max:     spec.MaxPaths,
		// Twice the node count: the bound the per-module visit rule
		// already implies, so long chains enumerate without an
		// artificial ceiling.
		maxDepth: 2 * len(g.nodes),
	}
	if f.max == 0 {
		f.max = DefaultMaxPaths
	}
	// The customer frame arrives with an Ethernet header (pushed by the
	// customer's equipment) around an IP packet in the customer's
	// address domain.
	f.groups = []PeerGroup{
		{Protocol: core.NameETH, External: true},
		{Protocol: core.NameIPv4, Domain: spec.TrafficDomain, External: true},
	}
	f.stack = []int{0, 1}
	f.visit(from, core.EndPhy, nil, entryPipe)
	// Deterministic result order: by length, module sequence, then mode
	// sequence (paths can share modules but differ in switching modes).
	sort.Slice(f.paths, func(i, j int) bool {
		a, b := f.paths[i], f.paths[j]
		if len(a.Hops) != len(b.Hops) {
			return len(a.Hops) < len(b.Hops)
		}
		if am, bm := a.Modules(), b.Modules(); am != bm {
			return am < bm
		}
		return modeString(a) < modeString(b)
	})
	return f.paths, f.stats, nil
}

// resolveEndpoints validates the spec's endpoint modules and resolves
// the external physical pipe the search must enter on.
func (g *Graph) resolveEndpoints(spec FindSpec) (*Node, core.PipeID, error) {
	from, ok := g.Node(spec.From)
	if !ok {
		return nil, "", fmt.Errorf("nm: unknown module %s", spec.From)
	}
	if _, ok := g.Node(spec.To); !ok {
		return nil, "", fmt.Errorf("nm: unknown module %s", spec.To)
	}
	var entryPipe core.PipeID
	if spec.FromPipe != "" {
		// Pinned entry port: direct lookup instead of scanning an edge
		// switch's customer ports.
		if pa, ok := from.physAt[spec.FromPipe]; ok && pa.External {
			entryPipe = pa.Pipe
		}
	} else {
		for _, pa := range from.phys {
			if pa.External {
				entryPipe = pa.Pipe
				break
			}
		}
	}
	if entryPipe == "" {
		if spec.FromPipe != "" {
			return nil, "", fmt.Errorf("nm: %s has no external physical pipe %s", spec.From, spec.FromPipe)
		}
		return nil, "", fmt.Errorf("nm: %s has no external physical pipe", spec.From)
	}
	return from, entryPipe, nil
}

func modeString(p *Path) string {
	var b strings.Builder
	for _, h := range p.Hops {
		b.WriteString(h.Mode.String())
	}
	return b.String()
}

func canon(n core.ModuleName) core.ModuleName {
	if n == "IP" {
		return core.NameIPv4
	}
	return n
}

// modeRank orders mode exploration so the canonical configuration is
// enumerated first when the path cap truncates an exponential search
// space (a long L2 chain where every transit switch could also bridge
// transparently or pop-and-repush the tag): header processing dives
// deepest, pushes come next, pops unwind, and phy exits — which leave
// the device without touching its protocol modules — are tried last.
// Declared order breaks ties, so small-topology enumerations are
// unchanged.
func modeRank(m core.SwitchMode) int {
	if m.To == core.EndPhy {
		return 3
	}
	switch m.Effect() {
	case core.EffectProcess:
		return 0
	case core.EffectPush:
		return 1
	default:
		return 2
	}
}

// visit explores from node, entered at the given end.
func (f *finder) visit(node *Node, entry core.PipeEnd, entryVia *Node, entryPhys core.PipeID) {
	if len(f.paths) >= f.max || len(f.hops) >= f.maxDepth {
		return
	}
	if f.visited[node] >= visitLimit(node) {
		f.stats.Visited++
		return
	}
	f.visited[node]++
	defer func() { f.visited[node]-- }()
	f.stats.Expanded++

	var modes []core.SwitchMode
	for _, mode := range node.Abs.Switch.Modes {
		if mode.From == entry {
			modes = append(modes, mode)
		}
	}
	sort.SliceStable(modes, func(i, j int) bool { return modeRank(modes[i]) < modeRank(modes[j]) })
	for _, mode := range modes {
		f.tryMode(node, mode, entryVia, entryPhys)
	}
}

func (f *finder) tryMode(node *Node, mode core.SwitchMode, entryVia *Node, entryPhys core.PipeID) {
	effect := mode.Effect()
	var groupIdx int

	// Apply the header effect, with undo information.
	switch effect {
	case core.EffectPop, core.EffectProcess:
		if len(f.stack) == 0 {
			return
		}
		groupIdx = f.stack[0]
		grp := &f.groups[groupIdx]
		if canon(grp.Protocol) != canon(node.Ref.Name) {
			f.stats.NameMismatch++
			return
		}
		// The customer's own Ethernet framing may only be terminated at
		// the goal's endpoint modules: a transit device transparently
		// bridging customer frames through the shared core would defeat
		// the isolation the goal asks for.
		if grp.External && canon(grp.Protocol) == core.NameETH &&
			node.Ref != f.spec.From && node.Ref != f.spec.To {
			f.stats.ExternalLeak++
			return
		}
		// Address-domain rule (Fig 6b): IP modules handling a header
		// must share its domain.
		if !f.spec.DisableDomainPruning &&
			canon(node.Ref.Name) == core.NameIPv4 &&
			grp.Domain != "" && node.Domain != "" && grp.Domain != node.Domain {
			f.stats.DomainMismatch++
			return
		}
		grp.Members = append(grp.Members, len(f.hops))
		if effect == core.EffectPop {
			grp.Closed = true
			f.stack = f.stack[1:]
		}
	case core.EffectPush:
		groupIdx = len(f.groups)
		f.groups = append(f.groups, PeerGroup{
			Protocol: node.Ref.Name,
			Domain:   node.Domain,
			Members:  []int{len(f.hops)},
		})
		f.stack = append([]int{groupIdx}, f.stack...)
	}

	hop := Hop{
		Node: node, Mode: mode,
		EntryVia: entryVia, EntryPhys: entryPhys,
		Group: groupIdx,
	}
	f.hops = append(f.hops, hop)

	f.explore(node, mode)

	// Undo.
	f.hops = f.hops[:len(f.hops)-1]
	switch effect {
	case core.EffectPop:
		grp := &f.groups[groupIdx]
		grp.Members = grp.Members[:len(grp.Members)-1]
		grp.Closed = false
		f.stack = append([]int{groupIdx}, f.stack...)
	case core.EffectProcess:
		grp := &f.groups[groupIdx]
		grp.Members = grp.Members[:len(grp.Members)-1]
	case core.EffectPush:
		f.groups = f.groups[:len(f.groups)-1]
		f.stack = f.stack[1:]
	}
}

func (f *finder) explore(node *Node, mode core.SwitchMode) {
	hopIdx := len(f.hops) - 1
	switch mode.To {
	case core.EndUp:
		for _, up := range node.above {
			f.hops[hopIdx].ExitVia = up
			f.visit(up, core.EndDown, node, "")
		}
		f.hops[hopIdx].ExitVia = nil
	case core.EndDown:
		for _, down := range node.below {
			f.hops[hopIdx].ExitVia = down
			f.visit(down, core.EndUp, node, "")
		}
		f.hops[hopIdx].ExitVia = nil
	case core.EndPhy:
		for _, pa := range node.phys {
			if pa.Pipe == f.hops[hopIdx].EntryPhys {
				continue // never exit the pipe we entered on
			}
			f.hops[hopIdx].ExitPhys = pa.Pipe
			if pa.External {
				f.maybeAccept(node)
			} else if pa.Peer != nil {
				f.visit(pa.Peer, core.EndPhy, nil, pa.PeerPipe)
			}
		}
		f.hops[hopIdx].ExitPhys = ""
	}
}

// maybeAccept records a completed path if we are exiting the goal
// module's external pipe with a clean header stack: the freshly pushed
// Ethernet header on top of the customer's original IP packet — every
// header pushed inside the network has been popped.
func (f *finder) maybeAccept(node *Node) {
	if node.Ref != f.spec.To {
		return
	}
	if f.spec.ToPipe != "" && f.hops[len(f.hops)-1].ExitPhys != f.spec.ToPipe {
		return
	}
	if len(f.stack) != 2 {
		return
	}
	top, under := &f.groups[f.stack[0]], &f.groups[f.stack[1]]
	if canon(top.Protocol) != core.NameETH || top.External {
		return
	}
	if !under.External {
		return
	}
	// Deep-copy the path.
	p := &Path{
		Hops:   append([]Hop(nil), f.hops...),
		Groups: make([]PeerGroup, len(f.groups)),
	}
	for i, g := range f.groups {
		p.Groups[i] = PeerGroup{
			Protocol: g.Protocol, Domain: g.Domain,
			Members:  append([]int(nil), g.Members...),
			External: g.External, Closed: g.Closed,
		}
	}
	f.paths = append(f.paths, p)
}

// SelectPath implements the paper's selector: minimise instantiated
// pipes, preferring modules that advertise fast forwarding (the MPLS
// preference of §III-C.1) on ties.
func SelectPath(paths []*Path) *Path {
	if len(paths) == 0 {
		return nil
	}
	best := paths[0]
	bestFast := pathFast(best)
	for _, p := range paths[1:] {
		switch {
		case p.Pipes() < best.Pipes():
			best, bestFast = p, pathFast(p)
		case p.Pipes() == best.Pipes() && pathFast(p) && !bestFast:
			best, bestFast = p, true
		}
	}
	return best
}

func pathFast(p *Path) bool {
	for _, h := range p.Hops {
		if h.Node.Abs.Attributes["forwarding"] == "fast" {
			return true
		}
	}
	return false
}

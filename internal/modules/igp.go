package modules

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
)

// IGP is a routing control module (paper §II-F): like a real routing
// daemon it wraps the kernel's routing table, floods link-state
// advertisements to its peer IGP modules — over the module-to-module
// management channel, standing in for the protocol's own link-local
// packets — and installs the transit routes that make multi-hop IP
// forwarding work. The NM never sees a route: it only creates one pipe
// per adjacency (Upper = IGP, Lower = the co-located IP module, peers =
// the neighbouring IGP/IP pair), exactly as it names IKE as the provider
// of IPSec's keying dependency. Deleting the pipes withdraws the routes
// the module owns.
//
// # Protocol
//
// Each module originates a sequence-numbered LSA describing its router:
// the kernel's connected subnets (with the router's host address on
// each, so neighbours can resolve next hops by subnet matching) and the
// set of adjacent IGP modules. LSAs flood reliably over the adjacency
// graph with duplicate suppression on (origin, seq); convergence is
// deterministic because acceptance depends only on sequence numbers,
// never on arrival order. Route computation is a breadth-first shortest
// path over the *bidirectionally confirmed* adjacency graph (an edge
// exists only if both ends advertise it), so a cut link disappears as
// soon as either end re-originates, and an unreachable router's subnets
// are withdrawn even while its stale LSA lingers in the database.
//
// # When SPF runs
//
// Every accepted LSA is stored and re-flooded, but routes are computed
// only when the stored LSA can have changed them (storeLocked): its
// prefixes differ from the LSA it replaces, or an edge to one of its old
// or new neighbours flips between confirmed and unconfirmed. A seq-only
// refresh, or an LSA naming a neighbour that has not listed it back,
// floods without computing. The rule reads only database content, never
// arrival order, so it holds under the concurrent executor; the module's
// own originations always compute.
//
// showActual carries the O(1) summary (lsdb-size, adjacencies, routes);
// the manager pulls per-LSA and per-route detail, and the spf-runs /
// lsas-accepted counters, with listFieldsAndValues ("lsdb", "routes",
// "self").
type IGP struct {
	device.BaseModule

	mu sync.Mutex
	// adjs maps this module's down pipes to their adjacencies.
	adjs map[core.PipeID]*igpAdj // guarded by mu
	// origins interns module refs: each origin or neighbour an LSA names
	// gets a dense index once, kept until the last adjacency goes.
	origins map[string]int32 // guarded by mu
	// lsdb is the link-state database, indexed by origins; nil where a
	// router has been named as a neighbour but its LSA is not held.
	lsdb []*igpLSA // guarded by mu
	// seq is the sequence number of this module's own LSA.
	seq uint64
	// installed is the set of kernel routes this module owns, so
	// recomputation withdraws exactly the stale ones.
	installed map[routeKey]struct{} // guarded by mu
	// desired is recompute's scratch set, kept only to reuse its storage.
	desired map[routeKey]struct{} // guarded by mu
	// spfRuns and lsasAccepted count route computations and stored peer
	// LSAs (ListFields "self").
	spfRuns, lsasAccepted int // guarded by mu
}

// routeKey identifies one owned kernel route.
type routeKey struct {
	dst netip.Prefix
	via netip.Addr
	dev string
}

func (r routeKey) String() string { return r.dst.String() + "|" + r.via.String() + "|" + r.dev }

// igpAdj is one adjacency derived from an NM-created pipe (keyed by
// the pipe id in IGP.adjs).
type igpAdj struct {
	nbr core.ModuleRef // neighbouring IGP module
}

// IPRouteToken is the dependency token linking the IP module's transit
// switching state to a routing control module, mirroring IPSecKeyToken.
const IPRouteToken = "ipv4-routes"

// igpUpdate is the convey body: a batch of LSAs, like a real IGP's
// Link State Update packet. Batching matters — a database sync or a
// multi-LSA reflood costs one management-channel round trip instead of
// one per LSA, which keeps the flooding traffic linear in what actually
// changed.
type igpUpdate struct {
	LSAs []*igpLSA `json:"lsas"`
}

// igpLSA is the flooded link-state advertisement.
type igpLSA struct {
	Origin string   `json:"origin"` // ModuleRef.String() of the advertiser
	Seq    uint64   `json:"seq"`
	Addrs  []string `json:"addrs"`     // host addresses with prefix length
	Nbrs   []string `json:"neighbors"` // adjacent IGP module refs

	// prefixes is the parsed form of Addrs and nbrIdx the interned form
	// of Nbrs, filled on store (unexported, so they never ride the wire).
	prefixes []netip.Prefix
	nbrIdx   []int32
}

func (l *igpLSA) parse() {
	l.prefixes = l.prefixes[:0]
	for _, a := range l.Addrs {
		if p, err := netip.ParsePrefix(a); err == nil {
			l.prefixes = append(l.prefixes, p)
		}
	}
}

// NewIGP creates an IGP control module.
func NewIGP(svc device.Services, id core.ModuleID) *IGP {
	return &IGP{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameIGP, svc.Device(), id),
			Svc:    svc,
		},
		adjs:      make(map[core.PipeID]*igpAdj),
		origins:   make(map[string]int32),
		installed: make(map[routeKey]struct{}),
		desired:   make(map[routeKey]struct{}),
	}
}

// Abstraction implements device.Module: a control module advertising
// that it can provide IPv4 reachability state (§II-F), runnable over an
// IPv4 module below.
func (g *IGP) Abstraction() core.Abstraction {
	return core.Abstraction{
		Ref:           g.Ref(),
		Kind:          core.KindControl,
		Down:          core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4}},
		Peerable:      []core.ModuleName{core.NameIGP},
		ProvidesState: []string{IPRouteToken},
	}
}

// Actual implements device.Module: the database and route counts, for
// showActual and reconciliation (the MA reports the adjacency pipes).
func (g *IGP) Actual() core.ModuleState {
	g.mu.Lock()
	defer g.mu.Unlock()
	return core.ModuleState{Ref: g.Ref(), LowLevel: g.summaryLocked()}
}

// localAddrs lists the kernel's connected interface addresses, excluding
// tunnel interfaces (their state is derived, not topology) in
// deterministic order.
func (g *IGP) localAddrs() []netip.Prefix {
	k := g.Svc.Kernel()
	var out []netip.Prefix
	for _, name := range k.Ifaces() {
		i, ok := k.Iface(name)
		if !ok || i.Kind == kernel.IfaceGRE {
			continue
		}
		out = append(out, i.Addrs...)
	}
	return out
}

// originateLocked bumps this module's sequence number, then builds and
// stores its current LSA. Caller holds g.mu.
func (g *IGP) originateLocked() *igpLSA {
	g.seq++
	lsa := &igpLSA{Origin: g.Ref().String(), Seq: g.seq}
	for _, p := range g.localAddrs() {
		lsa.Addrs = append(lsa.Addrs, p.String())
	}
	sort.Strings(lsa.Addrs)
	for _, nbr := range g.neighborsLocked() {
		lsa.Nbrs = append(lsa.Nbrs, nbr.String())
	}
	g.storeLocked(lsa)
	return lsa
}

// neighborsLocked snapshots the distinct adjacent IGP modules, sorted.
// Caller holds g.mu.
func (g *IGP) neighborsLocked() []core.ModuleRef {
	var out []core.ModuleRef
	seen := map[string]bool{}
	for _, adj := range g.adjs {
		if !seen[adj.nbr.String()] {
			seen[adj.nbr.String()] = true
			out = append(out, adj.nbr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// reoriginate bumps this module's sequence number, stores the fresh LSA
// and floods it to every neighbour, then recomputes routes.
func (g *IGP) reoriginate() {
	g.mu.Lock()
	lsa := g.originateLocked()
	nbrs := g.neighborsLocked()
	g.mu.Unlock()
	for _, nbr := range nbrs {
		g.sendUpdate(nbr, []*igpLSA{lsa})
	}
	g.recompute()
}

// sendUpdate conveys a batch of LSAs to a neighbouring IGP module,
// omitting the ones the neighbour originated itself. Never called with
// g.mu held: the in-process channel delivers synchronously and the
// receiver may flood back into us.
func (g *IGP) sendUpdate(to core.ModuleRef, lsas []*igpLSA) {
	var out []*igpLSA
	for _, lsa := range lsas {
		if lsa.Origin != to.String() {
			out = append(out, lsa)
		}
	}
	if len(out) == 0 {
		return
	}
	_ = g.Svc.Convey(g.Ref(), to, "igp-lsa", igpUpdate{LSAs: out})
}

// PipeAttached implements device.Module. The IGP end of an adjacency
// pipe is the upper end; forming the adjacency re-originates our LSA and
// synchronises the full database to the new neighbour (so a late joiner
// converges no matter the order the NM's concurrent executor created the
// pipes in).
func (g *IGP) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	if side != device.SideUpper {
		return nil
	}
	nbr := p.UpperPeer
	if nbr.IsZero() || nbr.Name != core.NameIGP {
		return fmt.Errorf("%s: adjacency pipe %s has no IGP peer", g.Ref(), p.ID)
	}
	g.mu.Lock()
	g.adjs[p.ID] = &igpAdj{nbr: nbr}
	own := g.originateLocked()
	db := g.heldLocked()
	sort.Slice(db, func(i, j int) bool { return db[i].Origin < db[j].Origin })
	var others []core.ModuleRef
	for _, n := range g.neighborsLocked() {
		if n != nbr {
			others = append(others, n)
		}
	}
	g.mu.Unlock()
	// One batched database sync to the new neighbour (including the
	// fresh self-LSA that now lists it), and the self-LSA alone to the
	// established ones so the rest of the network learns the new edge.
	g.sendUpdate(nbr, db)
	for _, n := range others {
		g.sendUpdate(n, []*igpLSA{own})
	}
	g.recompute()
	return nil
}

// PipeDeleted implements device.Module: losing an adjacency
// re-originates (so the rest of the network drops the edge), and losing
// the last adjacency withdraws every owned route and clears the
// database — the module's entire footprint goes with its pipes, which
// is what lets Withdraw/Destroy reconcile IGP state like any other
// component.
func (g *IGP) PipeDeleted(p *device.Pipe, side device.PipeSide) error {
	if side != device.SideUpper {
		return nil
	}
	g.mu.Lock()
	delete(g.adjs, p.ID)
	last := len(g.adjs) == 0
	if last {
		for key := range g.installed {
			g.withdrawLocked(key)
		}
		g.origins, g.lsdb = make(map[string]int32), nil
	}
	g.mu.Unlock()
	if !last {
		g.reoriginate()
	}
	return nil
}

// withdrawLocked removes one owned route from the kernel and the set.
func (g *IGP) withdrawLocked(key routeKey) {
	g.Svc.Kernel().DelRouteWhere("main", func(r kernel.Route) bool {
		return r.Dst == key.dst && r.Via == key.via && r.Dev == key.dev
	})
	delete(g.installed, key)
}

// internLocked returns ref's dense index, assigning the next one on
// first sight.
func (g *IGP) internLocked(ref string) int32 {
	i, ok := g.origins[ref]
	if !ok {
		i = int32(len(g.lsdb))
		g.origins[ref] = i
		g.lsdb = append(g.lsdb, nil)
	}
	return i
}

// lsaLocked returns the stored LSA of ref, or nil.
func (g *IGP) lsaLocked(ref string) *igpLSA {
	if i, ok := g.origins[ref]; ok {
		return g.lsdb[i]
	}
	return nil
}

// heldLocked lists the LSAs the database holds, in index order.
func (g *IGP) heldLocked() []*igpLSA {
	held := make([]*igpLSA, 0, len(g.lsdb))
	for _, lsa := range g.lsdb {
		if lsa != nil {
			held = append(held, lsa)
		}
	}
	return held
}

// storeLocked files lsa in the database and reports whether routes can
// have changed: the origin's prefixes differ from the LSA it replaces
// (a first LSA matters only through its edges — an origin with none
// confirmed is unreachable), or some neighbour that lists the origin
// back is named by exactly one of the old and new LSA, which flips that
// edge's confirmed status.
func (g *IGP) storeLocked(lsa *igpLSA) bool {
	lsa.parse()
	for _, nbr := range lsa.Nbrs {
		lsa.nbrIdx = append(lsa.nbrIdx, g.internLocked(nbr))
	}
	at := g.internLocked(lsa.Origin)
	old := g.lsdb[at]
	g.lsdb[at] = lsa
	if old == nil { // nothing to differ from, and every neighbour is new
		old = &igpLSA{prefixes: lsa.prefixes}
	}
	return !slices.Equal(old.prefixes, lsa.prefixes) || g.flipsLocked(at, old, lsa) || g.flipsLocked(at, lsa, old)
}

// flipsLocked reports whether a names a neighbour b does not, whose own
// LSA lists the origin at index at.
func (g *IGP) flipsLocked(at int32, a, b *igpLSA) bool {
	for _, n := range a.nbrIdx {
		if peer := g.lsdb[n]; peer != nil && !slices.Contains(b.nbrIdx, n) && slices.Contains(peer.nbrIdx, at) {
			return true
		}
	}
	return false
}

// HandleConvey implements device.Module: accept every LSA in the batch
// that is news (higher sequence number than what we hold), re-flood the
// accepted ones — as one batch per neighbour — and recompute routes
// once, if storing any of them can have changed the answer.
func (g *IGP) HandleConvey(from core.ModuleRef, kind string, body []byte) error {
	if kind != "igp-lsa" {
		return nil
	}
	var upd igpUpdate
	if err := json.Unmarshal(body, &upd); err != nil {
		return err
	}
	g.mu.Lock()
	var accepted []*igpLSA
	compute := false
	for _, lsa := range upd.LSAs {
		if lsa == nil {
			continue
		}
		if cur := g.lsaLocked(lsa.Origin); cur != nil && cur.Seq >= lsa.Seq {
			continue
		}
		compute = g.storeLocked(lsa) || compute
		accepted = append(accepted, lsa)
	}
	g.lsasAccepted += len(accepted)
	if len(accepted) == 0 {
		g.mu.Unlock()
		return nil
	}
	var flood []core.ModuleRef
	for _, nbr := range g.neighborsLocked() {
		if nbr != from {
			flood = append(flood, nbr)
		}
	}
	g.mu.Unlock()
	for _, nbr := range flood {
		g.sendUpdate(nbr, accepted)
	}
	if compute {
		g.recompute()
	}
	g.Svc.Kick()
	return nil
}

// recompute runs the shortest-path computation over the LSDB and
// reconciles the kernel's main table with the result: routes to every
// reachable remote subnet via the first-hop neighbour, installed and
// withdrawn incrementally so the module owns exactly the routes the
// current topology wants.
func (g *IGP) recompute() {
	g.mu.Lock()
	own := g.lsaLocked(g.Ref().String())
	if own == nil || len(g.adjs) == 0 {
		g.mu.Unlock()
		return
	}
	g.spfRuns++
	self := g.origins[own.Origin]

	// BFS from self over the bidirectionally confirmed edges, straight
	// off the LSDB; firstHop[o] is the neighbour a packet toward o leaves
	// through, -1 while o is unreached. Deterministic: neighbour lists
	// arrive sorted.
	firstHop := make([]int32, len(g.lsdb))
	for i := range firstHop {
		firstHop[i] = -1
	}
	firstHop[self] = self
	queue := append(make([]int32, 0, len(g.lsdb)), self)
	for ; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		for _, next := range g.lsdb[cur].nbrIdx {
			peer := g.lsdb[next]
			if firstHop[next] >= 0 || peer == nil || !slices.Contains(peer.nbrIdx, cur) {
				continue
			}
			firstHop[next] = firstHop[cur]
			if cur == self {
				firstHop[next] = next
			}
			queue = append(queue, next)
		}
	}

	// Desired routes: every reachable remote subnet (local ones are
	// directly connected, never routed) via the next-hop address — the
	// first-hop neighbour's address inside one of our connected subnets.
	k := g.Svc.Kernel()
	clear(g.desired)
	local := make([]netip.Prefix, 0, len(own.prefixes))
	for _, p := range own.prefixes {
		local = append(local, p.Masked())
	}
	nextHops := map[int32]routeKey{}
	for o, lsa := range g.lsdb {
		hop := firstHop[o]
		if lsa == nil || hop < 0 || int32(o) == self {
			continue
		}
		nh, resolved := nextHops[hop]
		if !resolved {
			for _, p := range g.lsdb[hop].prefixes {
				if iface, _, ok := k.IfaceForSubnet(p.Addr()); ok {
					nh = routeKey{via: p.Addr(), dev: iface}
					break
				}
			}
			nextHops[hop] = nh
		}
		if !nh.via.IsValid() {
			continue // adjacency formed but no shared subnet yet
		}
		for _, p := range lsa.prefixes {
			nh.dst = p.Masked()
			if !slices.Contains(local, nh.dst) {
				g.desired[nh] = struct{}{}
			}
		}
	}

	// Reconcile the kernel under the module lock (kernel calls never
	// re-enter the module, and the g.mu -> kernel.mu order is the one
	// every module method uses), so two concurrent recomputations cannot
	// interleave their installs and withdrawals. New routes go in sorted
	// by their dst|via|dev string, the only place it is built.
	type namedRoute struct {
		name string
		key  routeKey
	}
	var add []namedRoute
	for key := range g.desired {
		if _, have := g.installed[key]; !have {
			add = append(add, namedRoute{key.String(), key})
		}
	}
	changed := len(add) > 0
	for key := range g.installed {
		if _, keep := g.desired[key]; !keep {
			g.withdrawLocked(key)
			changed = true
		}
	}
	sort.Slice(add, func(i, j int) bool { return add[i].name < add[j].name })
	for _, a := range add {
		_ = k.AddRoute("", kernel.Route{Dst: a.key.dst, Via: a.key.via, Dev: a.key.dev, MPLSKey: -1})
		g.installed[a.key] = struct{}{}
	}
	g.mu.Unlock()

	if changed {
		g.Svc.Kick()
	}
}

// RouteCount reports how many kernel routes the module currently owns
// (tests and operators poll it for convergence).
func (g *IGP) RouteCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.installed)
}

// summaryLocked is the O(1)-sized convergence status showActual pushes.
func (g *IGP) summaryLocked() map[string]string {
	return map[string]string{
		"lsdb-size":   fmt.Sprint(len(g.heldLocked())),
		"adjacencies": fmt.Sprint(len(g.adjs)),
		"routes":      fmt.Sprint(len(g.installed)),
	}
}

// ListFields implements device.Module, for operators and the NM's
// debugging walk: "lsdb" and "routes" list the database and the owned
// routes entry by entry; any other component ("self") is the summary
// plus the SPF churn counters.
func (g *IGP) ListFields(component string) (map[string]string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := map[string]string{}
	switch component {
	case "lsdb":
		for _, lsa := range g.heldLocked() {
			out["lsa:"+lsa.Origin] = fmt.Sprintf("seq=%d addrs=%d nbrs=%d", lsa.Seq, len(lsa.Addrs), len(lsa.Nbrs))
		}
	case "routes":
		for key := range g.installed {
			out["route:"+key.String()] = "installed"
		}
	default:
		out = g.summaryLocked()
		out["spf-runs"], out["lsas-accepted"] = fmt.Sprint(g.spfRuns), fmt.Sprint(g.lsasAccepted)
	}
	return out, nil
}

// SelfTest implements device.Module: an IGP is healthy when every
// adjacency pipe's neighbour has a database entry confirming us back.
func (g *IGP) SelfTest(pipe core.PipeID) (bool, string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	adj, ok := g.adjs[pipe]
	if !ok {
		return false, fmt.Sprintf("no adjacency on pipe %s", pipe)
	}
	lsa := g.lsaLocked(adj.nbr.String())
	if lsa == nil {
		return false, fmt.Sprintf("no LSA from neighbour %s", adj.nbr)
	}
	if slices.Contains(lsa.Nbrs, g.Ref().String()) {
		return true, fmt.Sprintf("adjacency with %s confirmed (seq %d)", adj.nbr, lsa.Seq)
	}
	return false, fmt.Sprintf("neighbour %s does not list us", adj.nbr)
}

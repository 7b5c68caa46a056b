package modules

import (
	"encoding/json"
	"fmt"
	"maps"
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
// set of adjacent IGP modules. It originates once per MA request, not
// once per pipe: PipeAttached and PipeDeleted only record the adjacency
// change, and RequestDone, which the MA calls after every command batch
// and delete request, advertises it. LSAs flood reliably over the
// adjacency graph with duplicate suppression on (origin, seq);
// convergence is deterministic because acceptance depends only on
// sequence numbers, never on arrival order. Route computation is a
// breadth-first shortest path over the *bidirectionally confirmed*
// adjacency graph (an edge exists only if both ends advertise it), so a
// cut link disappears as soon as either end re-originates, and an
// unreachable router's subnets are withdrawn even while its stale LSA
// lingers in the database.
//
// # Adjacency bring-up
//
// A new neighbour gets one "igp-dd" convey: the fresh self-LSA plus the
// (origin, seq) summary of everything else the database holds. The
// receiver stores the LSA like any update and answers in at most one
// "igp-lsa" convey: the LSAs the summary lacks or holds at an older seq,
// and a request for the ones the summary is ahead on. It asks only over
// an adjacency whose own summary has already gone out — over a fresh one
// that summary is about to draw a push, and without one it needs no
// routes through the sender — and the asked side answers with one more
// "igp-lsa". Neither side echoes its whole database, and a router that
// lost its last adjacency (and with it its database) gets everything
// back from a neighbour whose pipe never went away.
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
// own originations always compute. A computation runs the BFS over the
// whole database but touches the kernel per origin: only an origin
// whose first-hop next hop or prefixes differ from what was last
// installed for it withdraws and adds routes.
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
	// unsent marks an adjacency change RequestDone has not advertised.
	unsent bool // guarded by mu
	// origins interns module refs: each origin or neighbour an LSA names
	// gets a dense index once, kept until the last adjacency goes.
	origins map[string]int32 // guarded by mu
	// lsdb is the link-state database, indexed by origins; nil where a
	// router has been named as a neighbour but its LSA is not held.
	lsdb []*igpLSA // guarded by mu
	// seq is the sequence number of this module's own LSA.
	seq uint64
	// routes is the set of kernel routes this module owns, each counted
	// once per origin whose installed record stands for it: two origins
	// can advertise one link subnet.
	routes map[routeKey]int32 // guarded by mu
	// installed is, per origin index, what recompute last installed for
	// that origin, and local the self-LSA whose prefixes those routes skip
	// as directly connected.
	installed []igpInstalled // guarded by mu
	local     *igpLSA        // guarded by mu
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

// igpInstalled records the routes installed for one origin: one per
// prefix of lsa (bar local ones), via the next hop nh (dst unset). A nil
// lsa stands for none — the origin is unreached or its next hop
// unresolved. Holding the LSA rather than a copy of its prefixes keeps
// the record a pointer wide.
type igpInstalled struct {
	lsa *igpLSA
	nh  routeKey
}

// same reports whether two records stand for the same routes.
func (r igpInstalled) same(o igpInstalled) bool {
	if r.lsa == nil || o.lsa == nil {
		return r.lsa == o.lsa
	}
	return r.nh == o.nh && slices.Equal(r.lsa.prefixes, o.lsa.prefixes)
}

// igpAdj is one adjacency derived from an NM-created pipe (keyed by
// the pipe id in IGP.adjs).
type igpAdj struct {
	nbr core.ModuleRef // neighbouring IGP module
	// fresh marks a pipe attached since the last RequestDone: its
	// neighbour is owed a database summary.
	fresh bool
}

// IPRouteToken is the dependency token linking the IP module's transit
// switching state to a routing control module, mirroring IPSecKeyToken.
const IPRouteToken = "ipv4-routes"

// The convey kinds: a summary opens an adjacency; an update carries LSAs
// and may ask for more.
const (
	igpKindSummary = "igp-dd"
	igpKindUpdate  = "igp-lsa"
)

// igpUpdate is the convey body of both kinds: a batch of LSAs, like a
// real IGP's Link State Update packet, so a push or a multi-LSA reflood
// costs one management-channel round trip instead of one per LSA. A
// summary also carries Have, the (origin, seq) of every other LSA its
// sender holds; an update answering one may carry Want, the origins its
// sender asks to be sent.
type igpUpdate struct {
	LSAs []*igpLSA         `json:"lsas,omitempty"`
	Have map[string]uint64 `json:"have,omitempty"`
	Want []string          `json:"want,omitempty"`
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
		adjs:    make(map[core.PipeID]*igpAdj),
		origins: make(map[string]int32),
		routes:  make(map[routeKey]int32),
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

// sendUpdate conveys a batch of LSAs to a neighbouring IGP module,
// omitting the ones the neighbour originated itself. Never called with
// g.mu held: the in-process channel delivers synchronously and the
// receiver may flood back into us.
func (g *IGP) sendUpdate(to core.ModuleRef, lsas []*igpLSA) {
	var out []*igpLSA
	dst := to.String()
	for _, lsa := range lsas {
		if lsa.Origin != dst {
			out = append(out, lsa)
		}
	}
	if len(out) == 0 {
		return
	}
	_ = g.Svc.Convey(g.Ref(), to, igpKindUpdate, igpUpdate{LSAs: out})
}

// PipeAttached implements device.Module. The IGP end of an adjacency
// pipe is the upper end; the adjacency is recorded here and advertised
// by RequestDone, once for the whole request.
func (g *IGP) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	if side != device.SideUpper {
		return nil
	}
	nbr := p.UpperPeer
	if nbr.IsZero() || nbr.Name != core.NameIGP {
		return fmt.Errorf("%s: adjacency pipe %s has no IGP peer", g.Ref(), p.ID)
	}
	g.mu.Lock()
	g.adjs[p.ID] = &igpAdj{nbr: nbr, fresh: true}
	g.unsent = true
	g.mu.Unlock()
	return nil
}

// PipeDeleted implements device.Module: losing an adjacency is advertised
// by RequestDone, but losing the last one withdraws every owned route and
// clears the database at once — the module's entire footprint goes with
// its pipes, which is what lets Withdraw + Reconcile remove IGP state like
// any other component.
func (g *IGP) PipeDeleted(p *device.Pipe, side device.PipeSide) error {
	if side != device.SideUpper {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.adjs, p.ID)
	g.unsent = len(g.adjs) > 0
	if !g.unsent {
		g.withdrawAllLocked()
		g.origins, g.lsdb = make(map[string]int32), nil
	}
	return nil
}

// RequestDone implements device.Module: it advertises the request's
// adjacency changes with one origination — a database summary to each
// neighbour a new pipe leads to, the fresh LSA alone to the others — and
// then recomputes routes.
func (g *IGP) RequestDone() {
	g.mu.Lock()
	if !g.unsent {
		g.mu.Unlock()
		return
	}
	g.unsent = false
	own := g.originateLocked()
	fresh := map[core.ModuleRef]bool{}
	for _, adj := range g.adjs {
		if adj.fresh {
			fresh[adj.nbr], adj.fresh = true, false
		}
	}
	nbrs := g.neighborsLocked()
	g.mu.Unlock()
	for _, nbr := range nbrs {
		if !fresh[nbr] {
			g.sendUpdate(nbr, []*igpLSA{own})
			continue
		}
		// Summarise afresh for each new neighbour: a push answering the
		// previous summary may have landed meanwhile.
		g.mu.Lock()
		have := make(map[string]uint64, len(g.lsdb))
		for _, lsa := range g.lsdb {
			if lsa != nil && lsa != own {
				have[lsa.Origin] = lsa.Seq
			}
		}
		g.mu.Unlock()
		_ = g.Svc.Convey(g.Ref(), nbr, igpKindSummary, igpUpdate{LSAs: []*igpLSA{own}, Have: have})
	}
	g.recompute()
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
// that is news (higher sequence number than what we hold), answer a
// summary or a request, re-flood the accepted LSAs — as one batch per
// neighbour — and recompute routes once, if storing any of them can have
// changed the answer.
func (g *IGP) HandleConvey(from core.ModuleRef, kind string, body []byte) error {
	if kind != igpKindUpdate && kind != igpKindSummary {
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
	var answer igpUpdate
	if kind == igpKindSummary {
		answer = g.answerLocked(from, upd.Have)
	} else {
		for _, origin := range upd.Want {
			if lsa := g.lsaLocked(origin); lsa != nil {
				answer.LSAs = append(answer.LSAs, lsa)
			}
		}
	}
	var flood []core.ModuleRef
	if len(accepted) > 0 {
		for _, nbr := range g.neighborsLocked() {
			if nbr != from {
				flood = append(flood, nbr)
			}
		}
	}
	g.mu.Unlock()
	if len(answer.LSAs) > 0 || len(answer.Want) > 0 {
		_ = g.Svc.Convey(g.Ref(), from, igpKindUpdate, answer)
	}
	for _, nbr := range flood {
		g.sendUpdate(nbr, accepted)
	}
	if compute {
		g.recompute()
	}
	if len(accepted) > 0 {
		g.Svc.Kick()
	}
	return nil
}

// answerLocked builds the reply to from's database summary: the held
// LSAs the summary lacks or holds at an older seq (bar from's own, which
// came with it), and the origins the summary is ahead on — asked for
// only when no push from from is coming, that is, when every adjacency to
// from has already sent its own summary.
func (g *IGP) answerLocked(from core.ModuleRef, have map[string]uint64) igpUpdate {
	var out igpUpdate
	sender := from.String()
	for _, lsa := range g.lsdb {
		if lsa != nil && lsa.Origin != sender && lsa.Seq > have[lsa.Origin] {
			out.LSAs = append(out.LSAs, lsa)
		}
	}
	synced := false
	for _, adj := range g.adjs {
		if adj.nbr == from {
			if adj.fresh {
				return out
			}
			synced = true
		}
	}
	if !synced {
		return out
	}
	for origin, seq := range have {
		if cur := g.lsaLocked(origin); cur == nil || cur.Seq < seq {
			out.Want = append(out.Want, origin)
		}
	}
	sort.Strings(out.Want)
	return out
}

// recompute runs the shortest-path computation over the LSDB and
// reconciles the kernel's main table with the result: routes to every
// reachable remote subnet via the first-hop neighbour. Only the origins
// whose next hop or prefixes changed since the last computation
// withdraw and add routes, so the module owns exactly the routes the
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

	// Local subnets are directly connected, never routed, so a change to
	// our own prefixes changes every origin's routes: start over.
	withdrawn := 0
	if g.local == nil || !slices.Equal(g.local.prefixes, own.prefixes) {
		withdrawn = g.withdrawAllLocked()
	}
	g.local = own
	local := make([]netip.Prefix, 0, len(own.prefixes))
	for _, p := range own.prefixes {
		local = append(local, p.Masked())
	}

	// Per origin, the wanted record: every reachable remote origin's
	// prefixes via the next-hop address — the first-hop neighbour's
	// address inside one of our connected subnets. An origin whose record
	// differs from the installed one gives up its old routes now; the new
	// ones are counted once every old one is, so a route that passes from
	// one origin to another in this computation stays installed.
	k := g.Svc.Kernel()
	g.installed = append(g.installed, make([]igpInstalled, len(g.lsdb)-len(g.installed))...)
	nextHops := map[int32]routeKey{}
	var changed []int
	var emptied []routeKey
	for o, lsa := range g.lsdb {
		var want igpInstalled
		if hop := firstHop[o]; lsa != nil && hop >= 0 && int32(o) != self {
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
			if nh.via.IsValid() { // else: adjacency formed but no shared subnet yet
				want = igpInstalled{lsa: lsa, nh: nh}
			}
		}
		if g.installed[o].same(want) {
			g.installed[o].lsa = want.lsa // let a superseded LSA go
			continue
		}
		emptied = g.countLocked(g.installed[o], local, -1, emptied)
		g.installed[o] = want
		changed = append(changed, o)
	}
	var added []routeKey
	for _, o := range changed {
		added = g.countLocked(g.installed[o], local, +1, added)
	}

	// Reconcile the kernel under the module lock (kernel calls never
	// re-enter the module, and the g.mu -> kernel.mu order is the one
	// every module method uses), so two concurrent recomputations cannot
	// interleave their installs and withdrawals. New routes go in sorted
	// by their dst|via|dev string, the only place it is built.
	if len(emptied) > 0 {
		withdrawn += g.flushLocked()
	}
	type namedRoute struct {
		name string
		key  routeKey
	}
	named := make([]namedRoute, len(added))
	for i, key := range added {
		named[i] = namedRoute{key.String(), key}
	}
	sort.Slice(named, func(i, j int) bool { return named[i].name < named[j].name })
	for _, a := range named {
		_ = k.AddRoute("", kernel.Route{Dst: a.key.dst, Via: a.key.via, Dev: a.key.dev, MPLSKey: -1})
	}
	g.mu.Unlock()

	if withdrawn > 0 || len(added) > 0 {
		g.Svc.Kick()
	}
}

// countLocked adds delta to the count of every route rec stands for and
// appends to touched each route that enters the set or drops to zero.
// A route at zero stays in the set until flushLocked withdraws it.
func (g *IGP) countLocked(rec igpInstalled, local []netip.Prefix, delta int32, touched []routeKey) []routeKey {
	if rec.lsa == nil {
		return touched
	}
	key := rec.nh
	for _, p := range rec.lsa.prefixes {
		key.dst = p.Masked()
		if slices.Contains(local, key.dst) {
			continue
		}
		n, held := g.routes[key]
		g.routes[key] = n + delta
		if !held || n+delta == 0 {
			touched = append(touched, key)
		}
	}
	return touched
}

// flushLocked withdraws every owned route whose count is zero, in one
// pass over the kernel table, and reports how many went.
func (g *IGP) flushLocked() int {
	n := g.Svc.Kernel().DelRouteWhere("main", func(r kernel.Route) bool {
		count, owned := g.routes[routeKey{dst: r.Dst, via: r.Via, dev: r.Dev}]
		return owned && count == 0
	})
	maps.DeleteFunc(g.routes, func(_ routeKey, count int32) bool { return count == 0 })
	return n
}

// withdrawAllLocked withdraws every owned route, forgets what was
// installed for each origin, and reports how many routes went.
func (g *IGP) withdrawAllLocked() int {
	for key := range g.routes {
		g.routes[key] = 0
	}
	g.installed, g.local = nil, nil
	return g.flushLocked()
}

// RouteCount reports how many kernel routes the module currently owns
// (tests and operators poll it for convergence).
func (g *IGP) RouteCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.routes)
}

// summaryLocked is the O(1)-sized convergence status showActual pushes.
func (g *IGP) summaryLocked() map[string]string {
	return map[string]string{
		"lsdb-size":   fmt.Sprint(len(g.heldLocked())),
		"adjacencies": fmt.Sprint(len(g.adjs)),
		"routes":      fmt.Sprint(len(g.routes)),
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
		for key := range g.routes {
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

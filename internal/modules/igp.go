package modules

import (
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
	"conman/internal/packet"
)

// IGP is a routing control module (paper §II-F): like a real routing
// daemon it wraps the kernel's routing table, floods link-state
// advertisements to its peer IGP modules in its own link-local packets
// (packet.LinkState, EtherType 0x88B6, sent straight onto the link of
// the adjacency) and installs the transit routes that make multi-hop IP
// forwarding work. The NM never sees a route or an LSA: it only creates
// one pipe per adjacency (Upper = IGP, Lower = the co-located IP module,
// peers = the neighbouring IGP/IP pair), exactly as it names IKE as the
// provider of IPSec's keying dependency. Deleting the pipes withdraws the
// routes the module owns.
//
// # Protocol
//
// Each module originates a sequence-numbered LSA describing its router:
// the kernel's connected subnets (with the router's host address on
// each, so neighbours can resolve next hops by subnet matching) and the
// set of adjacent IGP modules. It originates once per MA request, not
// once per pipe: PipeAttached and PipeDeleted only record the adjacency
// change, and RequestDone, which the MA calls after every command batch
// and every out-of-band delete, advertises it. LSAs flood reliably over the
// adjacency graph with duplicate suppression on (origin, seq);
// convergence is deterministic because acceptance depends only on
// sequence numbers, never on arrival order. Route computation is a
// breadth-first shortest path over the *bidirectionally confirmed*
// adjacency graph (an edge exists only if both ends advertise it), so a
// cut link disappears as soon as either end re-originates, and an
// unreachable router's subnets are withdrawn even while its stale LSA
// lingers in the database.
//
// # Links
//
// A device hosts at most one IGP module, which registers for the
// EtherType with the kernel. An adjacency's packets leave through the
// port whose link leads to the neighbour's device (Services.PortTo, the
// wiring the device reports to the NM), looked up when the pipe is
// attached, so an adjacency's first packet never waits; an answer leaves
// through the port its question came in on. A packet is accepted only
// from the IGP module of the device its port leads to, so a customer
// site, which no PortTo names, cannot speak for a router. Frames are
// handled inside the network's delivery, so a neighbour can answer
// before a send returns: the module never sends with g.mu held.
//
// A frame sent onto a cut link is lost, and nothing retransmits it. What
// recovers the LSA is a resync, the summary exchange that opens an
// adjacency (below), which brings the two databases level, each side
// re-flooding what it accepts. It runs when the link comes back (PortUp,
// over every adjacency on it) and when the NM re-routes around the cut,
// creating new adjacencies.
//
// # Adjacency bring-up
//
// A new neighbour gets one summary: the fresh self-LSA plus the
// (origin, seq) of everything else the database holds. The receiver
// stores the LSA like any update and answers in at most one update: the
// LSAs the summary lacks or holds at an older seq, and a request for the
// ones the summary is ahead on. It asks only over an adjacency whose own
// summary has already gone out — over a fresh one that summary is about
// to draw a push, and without one it needs no routes through the sender
// — and the asked side answers with one more update. Neither side echoes
// its whole database, and a router that lost its last adjacency (and
// with it its database) gets everything back from a neighbour whose pipe
// never went away.
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
	// name is Ref().String(), the module's identity in LSAs and packets.
	name string

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
	return r.nh == o.nh && slices.Equal(r.lsa.Prefixes, o.lsa.Prefixes)
}

// igpAdj is one adjacency derived from an NM-created pipe (keyed by
// the pipe id in IGP.adjs).
type igpAdj struct {
	nbr  string // the neighbouring IGP module's ref
	port string // the device port whose link leads to it
	// fresh marks a pipe attached since the last RequestDone: its
	// neighbour is owed a database summary.
	fresh bool
}

// IPRouteToken is the dependency token linking the IP module's transit
// switching state to a routing control module, mirroring IPSecKeyToken.
const IPRouteToken = "ipv4-routes"

// igpLSA is a stored link-state advertisement: the flooded LSA plus the
// interned form of its neighbours, filled on store.
type igpLSA struct {
	packet.LSA
	nbrIdx []int32
}

// NewIGP creates an IGP control module and registers it with the
// device kernel for link-state frames.
func NewIGP(svc device.Services, id core.ModuleID) *IGP {
	g := &IGP{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameIGP, svc.Device(), id),
			Svc:    svc,
		},
		adjs:    make(map[core.PipeID]*igpAdj),
		origins: make(map[string]int32),
		routes:  make(map[routeKey]int32),
	}
	g.name = g.Ref().String()
	svc.Kernel().RegisterEtherType(packet.EtherTypeLinkState, g.handleFrame)
	return g
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

// localAddrs lists the kernel's connected IPv4 interface addresses,
// excluding tunnel interfaces (their state is derived, not topology), in
// interface-name order.
func (g *IGP) localAddrs() []netip.Prefix {
	k := g.Svc.Kernel()
	var out []netip.Prefix
	for _, name := range k.Ifaces() {
		i, ok := k.Iface(name)
		if !ok || i.Kind == kernel.IfaceGRE {
			continue
		}
		for _, p := range i.Addrs {
			if p.Addr().Is4() { // the IGP routes IPv4 only
				out = append(out, p)
			}
		}
	}
	return out
}

// originateLocked bumps this module's sequence number, then builds and
// stores its current LSA. Caller holds g.mu.
func (g *IGP) originateLocked() *igpLSA {
	g.seq++
	lsa := &igpLSA{LSA: packet.LSA{Origin: g.name, Seq: g.seq, Prefixes: g.localAddrs()}}
	for _, nbr := range g.neighborsLocked() {
		lsa.Neighbors = append(lsa.Neighbors, nbr.nbr)
	}
	g.storeLocked(lsa)
	return lsa
}

// neighborsLocked snapshots the distinct adjacent IGP modules, sorted,
// each with its port. Caller holds g.mu.
func (g *IGP) neighborsLocked() []igpAdj {
	var out []igpAdj
	for _, adj := range g.adjs {
		if !slices.ContainsFunc(out, func(o igpAdj) bool { return o.nbr == adj.nbr }) {
			out = append(out, *adj)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].nbr < out[j].nbr })
	return out
}

// send transmits one link-state packet out of port. Never called with
// g.mu held: delivery is synchronous and the receiver may flood back
// into us. A frame that cannot go out is lost like one on a cut wire,
// and recovered the same way.
func (g *IGP) send(port string, ls *packet.LinkState) {
	ls.From = g.name
	_ = g.Svc.Kernel().SendFrame(port, packet.BroadcastMAC, packet.EtherTypeLinkState, ls.Append(nil))
}

// sendUpdate floods a batch of LSAs to a neighbouring IGP module,
// omitting the ones the neighbour originated itself.
func (g *IGP) sendUpdate(to igpAdj, lsas []*igpLSA) {
	var upd packet.LinkState
	for _, lsa := range lsas {
		if lsa.Origin != to.nbr {
			upd.LSAs = append(upd.LSAs, lsa.LSA)
		}
	}
	if len(upd.LSAs) > 0 {
		g.send(to.port, &upd)
	}
}

// PipeAttached implements device.Module. The IGP end of an adjacency
// pipe is the upper end; the adjacency is recorded here, with the port
// toward the neighbour, and advertised by RequestDone, once for the
// whole request.
func (g *IGP) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	if side != device.SideUpper {
		return nil
	}
	nbr := p.UpperPeer
	if nbr.IsZero() || nbr.Name != core.NameIGP {
		return fmt.Errorf("%s: adjacency pipe %s has no IGP peer", g.Ref(), p.ID)
	}
	port, ok := g.Svc.PortTo(nbr.Device)
	if !ok {
		return fmt.Errorf("%s: adjacency pipe %s: no port leads to %s", g.Ref(), p.ID, nbr.Device)
	}
	g.mu.Lock()
	g.adjs[p.ID] = &igpAdj{nbr: nbr.String(), port: port, fresh: true}
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
	fresh := map[string]bool{}
	for _, adj := range g.adjs {
		if adj.fresh {
			fresh[adj.nbr], adj.fresh = true, false
		}
	}
	nbrs := g.neighborsLocked()
	g.mu.Unlock()
	for _, nbr := range nbrs {
		if !fresh[nbr.nbr] {
			g.sendUpdate(nbr, []*igpLSA{own})
			continue
		}
		// Summarise afresh for each new neighbour: a push answering the
		// previous summary may have landed meanwhile.
		g.mu.Lock()
		sum := g.databaseSummaryLocked(own)
		g.mu.Unlock()
		g.send(nbr.port, &sum)
	}
	g.recompute()
}

// databaseSummaryLocked is the summary that opens or resyncs an
// adjacency: the self-LSA own and the (origin, seq) of every other LSA
// held.
func (g *IGP) databaseSummaryLocked(own *igpLSA) packet.LinkState {
	sum := packet.LinkState{Summary: true, LSAs: []packet.LSA{own.LSA}}
	for _, lsa := range g.lsdb {
		if lsa != nil && lsa != own {
			sum.Have = append(sum.Have, packet.LSAID{Origin: lsa.Origin, Seq: lsa.Seq})
		}
	}
	return sum
}

// PortUp implements device.Module: frames sent while the port's link was
// cut are lost, so the standing adjacencies across it are resynced with a
// database summary. The neighbour, which resyncs toward us too, answers
// with what we lack and asks for what it lacks. An adjacency still owed
// its first summary gets it from RequestDone.
func (g *IGP) PortUp(port string) {
	g.mu.Lock()
	own := g.lsaLocked(g.name)
	resync := false
	for _, adj := range g.adjs {
		resync = resync || own != nil && adj.port == port && !adj.fresh
	}
	var sum packet.LinkState
	if resync {
		sum = g.databaseSummaryLocked(own)
	}
	g.mu.Unlock()
	if resync {
		g.send(port, &sum)
	}
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
	for _, nbr := range lsa.Neighbors {
		lsa.nbrIdx = append(lsa.nbrIdx, g.internLocked(nbr))
	}
	at := g.internLocked(lsa.Origin)
	old := g.lsdb[at]
	g.lsdb[at] = lsa
	if old == nil { // nothing to differ from, and every neighbour is new
		old = &igpLSA{LSA: packet.LSA{Prefixes: lsa.Prefixes}}
	}
	return !slices.Equal(old.Prefixes, lsa.Prefixes) || g.flipsLocked(at, old, lsa) || g.flipsLocked(at, lsa, old)
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

// handleFrame is the kernel's handler for link-state frames, run inside
// the network's delivery. It accepts every LSA in the packet that is news
// (higher sequence number than what we hold), answers a summary or a
// request back out of the port the frame came in on, re-floods the
// accepted LSAs — as one packet per neighbour — and recomputes routes
// once, if storing any of them can have changed the answer. A malformed
// packet, or one whose sender the port does not lead to, is dropped.
func (g *IGP) handleFrame(port string, _ packet.Ethernet, payload []byte) {
	ls, err := packet.DecodeLinkState(payload)
	if err != nil || !g.cameFrom(port, ls.From) {
		return
	}
	g.mu.Lock()
	var accepted []*igpLSA
	compute := false
	for _, in := range ls.LSAs {
		if cur := g.lsaLocked(in.Origin); cur != nil && cur.Seq >= in.Seq {
			continue
		}
		lsa := &igpLSA{LSA: in}
		compute = g.storeLocked(lsa) || compute
		accepted = append(accepted, lsa)
	}
	g.lsasAccepted += len(accepted)
	var answer packet.LinkState
	if ls.Summary {
		answer = g.answerLocked(ls.From, ls.Have)
	} else {
		for _, origin := range ls.Want {
			if lsa := g.lsaLocked(origin); lsa != nil {
				answer.LSAs = append(answer.LSAs, lsa.LSA)
			}
		}
	}
	var flood []igpAdj
	if len(accepted) > 0 {
		for _, nbr := range g.neighborsLocked() {
			if nbr.nbr != ls.From {
				flood = append(flood, nbr)
			}
		}
	}
	g.mu.Unlock()
	if len(answer.LSAs) > 0 || len(answer.Want) > 0 {
		g.send(port, &answer)
	}
	for _, nbr := range flood {
		g.sendUpdate(nbr, accepted)
	}
	if compute {
		g.recompute()
	}
}

// cameFrom reports whether port leads to the device of from, an IGP
// module: the port of an adjacency to from, or else — a summary can
// arrive before our own pipe to its sender — the port the wiring names.
func (g *IGP) cameFrom(port, from string) bool {
	g.mu.Lock()
	for _, adj := range g.adjs {
		if adj.nbr == from && adj.port == port {
			g.mu.Unlock()
			return true
		}
	}
	g.mu.Unlock()
	ref, err := core.ParseModuleRef(from)
	if err != nil || ref.Name != core.NameIGP {
		return false
	}
	at, ok := g.Svc.PortTo(ref.Device)
	return ok && at == port
}

// answerLocked builds the update answering from's database summary: the
// held LSAs the summary lacks or holds at an older seq (bar from's own,
// which came with it), and the origins the summary is ahead on — asked
// for only when no push from from is coming, that is, when every
// adjacency to from has already sent its own summary.
func (g *IGP) answerLocked(from string, have []packet.LSAID) packet.LinkState {
	var out packet.LinkState
	held := make(map[string]uint64, len(have))
	for _, h := range have {
		held[h.Origin] = h.Seq
	}
	for _, lsa := range g.lsdb {
		if lsa != nil && lsa.Origin != from && lsa.Seq > held[lsa.Origin] {
			out.LSAs = append(out.LSAs, lsa.LSA)
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
	for _, h := range have {
		if cur := g.lsaLocked(h.Origin); cur == nil || cur.Seq < h.Seq {
			out.Want = append(out.Want, h.Origin)
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
	own := g.lsaLocked(g.name)
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
	if g.local == nil || !slices.Equal(g.local.Prefixes, own.Prefixes) {
		withdrawn = g.withdrawAllLocked()
	}
	g.local = own
	local := make([]netip.Prefix, 0, len(own.Prefixes))
	for _, p := range own.Prefixes {
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
				for _, p := range g.lsdb[hop].Prefixes {
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
	for _, p := range rec.lsa.Prefixes {
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
	held := 0
	for _, lsa := range g.lsdb {
		if lsa != nil {
			held++
		}
	}
	return map[string]string{
		"lsdb-size":   strconv.Itoa(held),
		"adjacencies": strconv.Itoa(len(g.adjs)),
		"routes":      strconv.Itoa(len(g.routes)),
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
			out["lsa:"+lsa.Origin] = fmt.Sprintf("seq=%d addrs=%d nbrs=%d", lsa.Seq, len(lsa.Prefixes), len(lsa.Neighbors))
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
	lsa := g.lsaLocked(adj.nbr)
	if lsa == nil {
		return false, fmt.Sprintf("no LSA from neighbour %s", adj.nbr)
	}
	if slices.Contains(lsa.Neighbors, g.name) {
		return true, fmt.Sprintf("adjacency with %s confirmed (seq %d)", adj.nbr, lsa.Seq)
	}
	return false, fmt.Sprintf("neighbour %s does not list us", adj.nbr)
}

package modules

import (
	"fmt"
	"maps"
	"math/rand"
	"net/netip"
	"sort"
	"testing"

	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
	"conman/internal/packet"
)

// The IGP's route computation is incremental twice over — it runs only
// when a stored LSA can have changed the answer, and it reconciles the
// kernel by difference — so it is held to its from-scratch equivalent:
// referenceRoutes is the always-recompute, string-keyed SPF the module
// used to run on every accepted update, kept here as the oracle.

// referenceRoutes computes, from scratch, the routes a module holding
// lsdb must own, keyed dst|via|dev.
func referenceRoutes(self string, adjs int, lsdb map[string]*igpLSA, k *kernel.Kernel) map[string]kernel.Route {
	sortedOrigins := func() []string {
		origins := make([]string, 0, len(lsdb))
		for o := range lsdb {
			origins = append(origins, o)
		}
		sort.Strings(origins)
		return origins
	}
	desired := map[string]kernel.Route{}
	own, haveSelf := lsdb[self]
	if !haveSelf || adjs == 0 {
		return desired
	}

	// Bidirectionally confirmed adjacency graph.
	edges := make(map[string][]string, len(lsdb))
	declared := func(lsa *igpLSA, nbr string) bool {
		for _, n := range lsa.Neighbors {
			if n == nbr {
				return true
			}
		}
		return false
	}
	for _, origin := range sortedOrigins() {
		lsa := lsdb[origin]
		for _, nbr := range lsa.Neighbors {
			if peer, ok := lsdb[nbr]; ok && declared(peer, origin) {
				edges[origin] = append(edges[origin], nbr)
			}
		}
	}

	// BFS from self; firstHop[o] is the neighbour a packet toward o
	// leaves through. Deterministic: origins and edge lists are sorted.
	firstHop := map[string]string{}
	queue := []string{self}
	visited := map[string]bool{self: true}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range edges[cur] {
			if visited[next] {
				continue
			}
			visited[next] = true
			if cur == self {
				firstHop[next] = next
			} else {
				firstHop[next] = firstHop[cur]
			}
			queue = append(queue, next)
		}
	}

	// Local subnets are never routed: they are directly connected.
	local := map[netip.Prefix]bool{}
	for _, p := range own.Prefixes {
		local[p.Masked()] = true
	}

	// Desired routes: every reachable remote subnet via the next-hop
	// address — the first-hop neighbour's address inside one of our
	// connected subnets.
	for _, origin := range sortedOrigins() {
		if origin == self {
			continue
		}
		hop, reachable := firstHop[origin]
		if !reachable {
			continue
		}
		hopLSA := lsdb[hop]
		var via netip.Addr
		var dev string
		for _, p := range hopLSA.Prefixes {
			if iface, _, ok := k.IfaceForSubnet(p.Addr()); ok {
				via, dev = p.Addr(), iface
				break
			}
		}
		if !via.IsValid() {
			continue // adjacency formed but no shared subnet yet
		}
		for _, p := range lsdb[origin].Prefixes {
			dst := p.Masked()
			if local[dst] {
				continue
			}
			key := dst.String() + "|" + via.String() + "|" + dev
			if _, dup := desired[key]; !dup {
				desired[key] = kernel.Route{Dst: dst, Via: via, Dev: dev, MPLSKey: -1}
			}
		}
	}
	return desired
}

// lsdbOf and ownedRoutes read a module's database and owned route keys
// in the oracle's terms.
func lsdbOf(g *IGP) (lsdb map[string]*igpLSA, adjs int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	lsdb = make(map[string]*igpLSA, len(g.lsdb))
	for _, lsa := range g.heldLocked() {
		lsdb[lsa.Origin] = lsa
	}
	return lsdb, len(g.adjs)
}

func ownedRoutes(g *IGP) []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	keys := make([]string, 0, len(g.routes))
	for key := range g.routes {
		keys = append(keys, key.String())
	}
	sort.Strings(keys)
	return keys
}

// igpNet is a mini-network of IGP modules on real kernels, joined by
// point-to-point links. Frames are queued and delivered one at a time in
// seeded-shuffled order, so a run explores an arrival order the FIFO
// netsim pump never produces and replays exactly from its seed.
type igpNet struct {
	t     *testing.T
	rng   *rand.Rand
	nodes []*igpNode
	queue []igpFrame
	pipes int
	// cut marks links (by port name, the same at both ends) whose frames
	// are lost as they are sent, as netsim loses them on a cut medium;
	// lost counts them.
	cut  map[string]bool
	lost int
}

// igpFrame is one frame in flight, to the port of the node it reaches.
type igpFrame struct {
	to    *igpNode
	port  string
	frame []byte
}

// igpNode is one router: the module, its kernel and the fake MA
// services between them.
type igpNode struct {
	device.Services // the methods an IGP never calls stay nil
	net             *igpNet
	dev             core.DeviceID
	k               *kernel.Kernel
	g               *IGP
	pipes           map[core.PipeID]*device.Pipe
	adj             map[int]core.PipeID // neighbour index -> our adjacency pipe
	// links maps each port to the node and port at its far end, and
	// ports each neighbouring device to the port leading there.
	links map[string]igpFrame
	ports map[core.DeviceID]string
}

func (n *igpNode) Device() core.DeviceID  { return n.dev }
func (n *igpNode) Kernel() *kernel.Kernel { return n.k }
func (n *igpNode) Kick()                  {}
func (n *igpNode) PipeByID(id core.PipeID) (*device.Pipe, bool) {
	p, ok := n.pipes[id]
	return p, ok
}
func (n *igpNode) PortTo(dev core.DeviceID) (string, bool) {
	port, ok := n.ports[dev]
	return port, ok
}

// send is the kernel's wire: it queues the frame for the far end, unless
// the link is cut.
func (n *igpNode) send(port string, frame []byte) error {
	if n.net.cut[port] {
		n.net.lost++
		return nil
	}
	far := n.links[port]
	n.net.queue = append(n.net.queue, igpFrame{to: far.to, port: far.port, frame: frame})
	return nil
}

// newIGPNet builds n routers wired as a ring plus chords random chords.
// Every link is a /30 with an address on each end, every router has a
// stub LAN, and the last two routers share one LAN prefix so a
// destination reachable through two origins is covered.
func newIGPNet(t *testing.T, seed int64, n, chords int) (*igpNet, [][2]int) {
	t.Helper()
	net := &igpNet{t: t, rng: rand.New(rand.NewSource(seed)), cut: map[string]bool{}}
	for i := 0; i < n; i++ {
		dev := core.DeviceID(fmt.Sprintf("R%03d", i))
		node := &igpNode{net: net, dev: dev, pipes: map[core.PipeID]*device.Pipe{}, adj: map[int]core.PipeID{},
			links: map[string]igpFrame{}, ports: map[core.DeviceID]string{}}
		node.k = kernel.New(dev, kernel.RoleRouter, node.send,
			func(string) (packet.MAC, bool) { return packet.MAC{0x02, 0, 0, 0, 0, byte(i)}, true })
		lan := i
		if i == n-1 {
			lan = n - 2
		}
		node.k.AddLAN("lan0", netip.MustParsePrefix(fmt.Sprintf("172.16.%d.%d/24", lan, 1+i-lan)))
		node.g = NewIGP(node, "igp")
		net.nodes = append(net.nodes, node)
	}
	var links [][2]int
	seen := map[[2]int]bool{}
	link := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		if a == b || seen[[2]int{a, b}] {
			return
		}
		seen[[2]int{a, b}] = true
		e := len(links)
		links = append(links, [2]int{a, b})
		iface := fmt.Sprintf("eth%d", e)
		na, nb := net.nodes[a], net.nodes[b]
		na.links[iface], nb.links[iface] = igpFrame{to: nb, port: iface}, igpFrame{to: na, port: iface}
		na.ports[nb.dev], nb.ports[na.dev] = iface, iface
		for side, i := range []int{a, b} {
			net.nodes[i].k.AddPhysical(iface)
			addr := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.%d/30", e/256, e%256, side+1))
			if err := net.nodes[i].k.AddAddr(iface, addr); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	for c := 0; c < chords; c++ {
		link(net.rng.Intn(n), net.rng.Intn(n))
	}
	return net, links
}

// request is one MA request on node a: for each of bs it deletes a's
// adjacency pipe toward that node if there is one and creates it if not,
// as the NM's command batch would, then runs the end-of-request hook the
// MA runs after every batch, and checks the module.
func (net *igpNet) request(a int, bs ...int) {
	net.t.Helper()
	na := net.nodes[a]
	for _, b := range bs {
		if id, up := na.adj[b]; up {
			p := na.pipes[id]
			delete(na.pipes, id)
			delete(na.adj, b)
			if err := na.g.PipeDeleted(p, device.SideUpper); err != nil {
				net.t.Fatal(err)
			}
			continue
		}
		nb := net.nodes[b]
		net.pipes++
		p := &device.Pipe{
			ID:        core.PipeID(fmt.Sprintf("P%d", net.pipes)),
			Upper:     na.g.Ref(),
			Lower:     core.Ref(core.NameIPv4, na.dev, "ip"),
			UpperPeer: nb.g.Ref(),
			LowerPeer: core.Ref(core.NameIPv4, nb.dev, "ip"),
		}
		na.pipes[p.ID], na.adj[b] = p, p.ID
		if err := na.g.PipeAttached(p, device.SideUpper); err != nil {
			net.t.Fatal(err)
		}
	}
	na.g.RequestDone()
	net.check(na, "request")
}

// deliverSome delivers up to max-1 queued frames, a seeded number.
func (net *igpNet) deliverSome(max int) {
	net.t.Helper()
	for k := net.rng.Intn(max); k > 0 && len(net.queue) > 0; k-- {
		net.deliver()
	}
}

// deliver hands one queued frame, chosen at random, to the kernel it
// reaches and checks the module it changed.
func (net *igpNet) deliver() {
	net.t.Helper()
	i := net.rng.Intn(len(net.queue))
	f := net.queue[i]
	net.queue[i] = net.queue[len(net.queue)-1]
	net.queue = net.queue[:len(net.queue)-1]
	f.to.k.HandleFrame(f.port, f.frame)
	net.check(f.to, "deliver")
}

// drain delivers until no frame is in flight, then checks every module.
func (net *igpNet) drain() {
	net.t.Helper()
	for len(net.queue) > 0 {
		net.deliver()
	}
	for _, node := range net.nodes {
		net.check(node, "quiescent")
	}
}

// check holds one module to the oracle: the routes it owns are exactly
// what a from-scratch computation over its database gives, and the
// kernel's main table holds exactly those gateway routes, once each.
func (net *igpNet) check(node *igpNode, when string) {
	net.t.Helper()
	lsdb, adjs := lsdbOf(node.g)
	want := referenceRoutes(node.g.Ref().String(), adjs, lsdb, node.k)
	wantKeys := make([]string, 0, len(want))
	for key := range want {
		wantKeys = append(wantKeys, key)
	}
	sort.Strings(wantKeys)
	if got := ownedRoutes(node.g); fmt.Sprint(got) != fmt.Sprint(wantKeys) {
		net.t.Fatalf("%s after %s: module owns %d routes %v\nfrom-scratch over its LSDB gives %d %v", node.dev, when, len(got), got, len(wantKeys), wantKeys)
	}
	inKernel := map[string]int{}
	for _, rt := range node.k.Routes("main") {
		if rt.Via.IsValid() {
			inKernel[rt.Dst.String()+"|"+rt.Via.String()+"|"+rt.Dev]++
		}
	}
	for key, count := range inKernel {
		if _, ok := want[key]; !ok || count != 1 {
			net.t.Fatalf("%s after %s: kernel holds %s ×%d, from-scratch wants it: %v", node.dev, when, key, count, ok)
		}
	}
	if len(inKernel) != len(want) {
		net.t.Fatalf("%s after %s: kernel holds %d gateway routes, from-scratch wants %d", node.dev, when, len(inKernel), len(want))
	}
}

// sidesOf lists the far ends of node a's sides that are, or are not, up.
func (net *igpNet) sidesOf(a int, sides [][2]int, up bool) []int {
	var out []int
	for _, s := range sides {
		if _, ok := net.nodes[a].adj[s[1]]; s[0] == a && ok == up {
			out = append(out, s[1])
		}
	}
	return out
}

// converged requires every module to hold one LSA per router, each at
// the newest seq any module holds for that router, and to own routes.
func (net *igpNet) converged(when string) {
	net.t.Helper()
	newest := map[string]uint64{}
	for _, node := range net.nodes {
		lsdb, _ := lsdbOf(node.g)
		for origin, lsa := range lsdb {
			newest[origin] = max(newest[origin], lsa.Seq)
		}
	}
	for _, node := range net.nodes {
		lsdb, _ := lsdbOf(node.g)
		if len(lsdb) != len(net.nodes) || node.g.RouteCount() == 0 {
			net.t.Fatalf("%s did not converge after %s: %d LSAs, %d routes", node.dev, when, len(lsdb), node.g.RouteCount())
		}
		for origin, lsa := range lsdb {
			if lsa.Seq != newest[origin] {
				net.t.Fatalf("%s after %s holds %s at seq %d, another module at %d", node.dev, when, origin, lsa.Seq, newest[origin])
			}
		}
	}
}

// frameOf wraps a link-state packet in the Ethernet frame a neighbour
// would send.
func frameOf(t *testing.T, ls *packet.LinkState) []byte {
	t.Helper()
	frame, err := packet.Serialize(ls.Append(nil), packet.Ethernet{Dst: packet.BroadcastMAC, Type: packet.EtherTypeLinkState})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestIGPRoutesMatchFromScratchOracle brings random ring+chords
// networks up side by side in random order, then churns adjacencies,
// delivering frames in shuffled order throughout; after every delivered
// message and request the module it touched, and at quiescence every
// module, agrees with referenceRoutes. A request may change several
// adjacencies before its one end-of-request hook, as an NM command batch
// does. Finally every missing side is attached again, and the databases
// must agree.
func TestIGPRoutesMatchFromScratchOracle(t *testing.T) {
	sizes := []int{6, 12, 24}
	if testing.Short() {
		sizes = []int{6, 12}
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 8; seed++ {
			net, links := newIGPNet(t, seed*100+int64(n), n, n/3)
			// Bring-up: every side of every link, in random order, up to
			// three sides of one router per request, with deliveries
			// interleaved.
			var sides [][2]int
			for _, l := range links {
				sides = append(sides, l, [2]int{l[1], l[0]})
			}
			net.rng.Shuffle(len(sides), func(i, j int) { sides[i], sides[j] = sides[j], sides[i] })
			for _, s := range sides {
				if _, up := net.nodes[s[0]].adj[s[1]]; up {
					continue
				}
				batch := []int{s[1]}
				for _, b := range net.sidesOf(s[0], sides, false) {
					if b != s[1] && len(batch) < 1+net.rng.Intn(3) {
						batch = append(batch, b)
					}
				}
				net.request(s[0], batch...)
				net.deliverSome(4)
			}
			net.drain()
			for _, node := range net.nodes {
				if lsdb, _ := lsdbOf(node.g); len(lsdb) != n || node.g.RouteCount() == 0 {
					t.Fatalf("n=%d seed=%d: %s did not converge after bring-up: %d LSAs, %d routes", n, seed, node.dev, len(lsdb), node.g.RouteCount())
				}
			}
			// Churn, while earlier floods are still in flight: flip a
			// random side (delete an attached one, attach a missing one),
			// or make a router lose every adjacency in one request and
			// regain them in a later one — one-sidedly, as the
			// neighbours' pipes toward it never went away. One event in
			// four first gives the router a new stub LAN, so its next LSA
			// changes prefixes as well as neighbours; one in eight instead
			// gives it an address in another router's LAN, which turns a
			// routed subnet local.
			for ev := 0; ev < 3*n; ev++ {
				s := sides[net.rng.Intn(len(sides))]
				switch net.rng.Intn(8) {
				case 0, 1:
					net.nodes[s[0]].k.AddLAN(fmt.Sprintf("lan%d", ev+1), netip.MustParsePrefix(fmt.Sprintf("172.17.%d.1/24", ev)))
				case 2:
					other := net.rng.Intn(n)
					net.nodes[s[0]].k.AddLAN(fmt.Sprintf("lan%d", ev+1), netip.MustParsePrefix(fmt.Sprintf("172.16.%d.%d/24", other, 10+ev)))
				case 3:
					if up := net.sidesOf(s[0], sides, true); len(up) > 0 {
						net.request(s[0], up...)
						net.deliverSome(6)
						net.request(s[0], up...)
						net.deliverSome(6)
						continue
					}
				}
				net.request(s[0], s[1])
				net.deliverSome(6)
			}
			net.drain()
			for r := range net.nodes {
				if missing := net.sidesOf(r, sides, false); len(missing) > 0 {
					net.request(r, missing...)
					net.deliverSome(6)
				}
			}
			net.drain()
			net.converged(fmt.Sprintf("n=%d seed=%d heal", n, seed))
		}
	}
}

// TestIGPRecoversFloodLostOnCutLink pins how an LSA lost on a cut link
// comes back: nothing retransmits it, and a router beyond the cut holds
// the stale copy until the link's carrier returns, when both ends resync
// their standing adjacency with a database summary and re-flood what
// they pull over. On the chain A—B—C—D—E (the ring's E—A side left down),
// B—C is cut and B re-originates twice; C, D and E miss both LSAs.
// Healing the link, with the PortUp the MA sends on the carrier
// interrupt, brings every database level and loses nothing more.
func TestIGPRecoversFloodLostOnCutLink(t *testing.T) {
	net, _ := newIGPNet(t, 1, 5, 0) // ring links eth0 = A—B, eth1 = B—C, …, eth4 = E—A
	for i := 0; i < 4; i++ {
		net.request(i, i+1)
		net.request(i+1, i)
	}
	net.drain()
	b, c := net.nodes[1], net.nodes[2]
	seqAt := func(node *igpNode, origin *igpNode) uint64 {
		lsdb, _ := lsdbOf(node.g)
		if lsa := lsdb[origin.g.name]; lsa != nil {
			return lsa.Seq
		}
		return 0
	}
	before := seqAt(net.nodes[4], b)

	net.cut["eth1"] = true
	b.k.AddLAN("lan9", netip.MustParsePrefix("172.18.0.1/24"))
	net.request(1, 0) // B drops its side toward A: a new LSA, flooded only toward C
	net.drain()
	net.request(1, 0) // and regains it: a summary to A, an update toward C
	net.drain()
	if net.lost == 0 {
		t.Fatal("no frame was sent onto the cut link")
	}
	newest := seqAt(b, b)
	if newest != before+2 || seqAt(net.nodes[0], b) != newest {
		t.Fatalf("B originated seq %d (was %d); A holds %d", newest, before, seqAt(net.nodes[0], b))
	}
	for _, node := range net.nodes[2:] {
		if got := seqAt(node, b); got != before {
			t.Fatalf("%s holds B's LSA at seq %d across the cut, want the stale %d", node.dev, got, before)
		}
	}

	delete(net.cut, "eth1")
	lost := net.lost
	b.g.PortUp("eth1")
	c.g.PortUp("eth1")
	net.drain()
	if net.lost != lost {
		t.Errorf("%d frames lost after the heal", net.lost-lost)
	}
	for _, node := range net.nodes[2:] {
		if got := seqAt(node, b); got != newest {
			t.Errorf("%s holds B's LSA at seq %d after the heal, want %d", node.dev, got, newest)
		}
	}
	if c.g.RouteCount() == 0 {
		t.Error("C owns no routes after the heal")
	}
	net.converged("the heal")
	// A port whose link did not carry an adjacency resyncs nothing.
	queued := len(net.queue)
	b.g.PortUp("lan0")
	if len(net.queue) != queued {
		t.Errorf("PortUp on a port with no adjacency sent %d frames", len(net.queue)-queued)
	}
}

// TestIGPDropsFramesFromOffLinkSenders sends a router forged link-state
// packets and requires its database and routes to stay as they were: a
// packet naming a sender its port does not lead to (another router's
// module, or a module of the neighbouring device that is not an IGP), and
// one arriving on a port that leads to no neighbour.
func TestIGPDropsFramesFromOffLinkSenders(t *testing.T) {
	net, _ := newIGPNet(t, 1, 4, 0) // ring A(0)—B(1)—C(2)—D(3)—A, eth0 = A—B
	for i := 0; i < 4; i++ {
		net.request(i, (i+1)%4)
		net.request((i+1)%4, i)
	}
	net.drain()
	a, b, c := net.nodes[0], net.nodes[1], net.nodes[2]
	lsdb := func() map[string]string {
		fields, err := a.g.ListFields("lsdb")
		if err != nil {
			t.Fatal(err)
		}
		return fields
	}
	before, routes := lsdb(), fmt.Sprint(ownedRoutes(a.g))
	forged := func(from core.ModuleRef) *packet.LinkState {
		return &packet.LinkState{From: from.String(), LSAs: []packet.LSA{{
			Origin:   c.g.name,
			Seq:      1000,
			Prefixes: []netip.Prefix{netip.MustParsePrefix("198.51.100.1/24")},
		}}}
	}
	// eth0 leads to B: C's module and B's IP module are not on its far end.
	for _, from := range []core.ModuleRef{c.g.Ref(), core.Ref(core.NameIPv4, b.dev, "ip")} {
		a.k.HandleFrame("eth0", frameOf(t, forged(from)))
	}
	// A customer site behind lan0: no neighbour's port.
	a.k.HandleFrame("lan0", frameOf(t, forged(core.Ref(core.NameIGP, "SITE", "igp"))))
	if len(net.queue) != 0 {
		t.Errorf("the forged packets drew %d frames", len(net.queue))
	}
	if got := lsdb(); !maps.Equal(got, before) {
		t.Errorf("A's database changed: %v, was %v", got, before)
	}
	if got := fmt.Sprint(ownedRoutes(a.g)); got != routes {
		t.Errorf("A's routes changed: %s, was %s", got, routes)
	}
	// The same packet from B, on B's link, is accepted.
	a.k.HandleFrame("eth0", frameOf(t, forged(b.g.Ref())))
	if lsdb, _ := lsdbOf(a.g); lsdb[c.g.name].Seq != 1000 {
		t.Errorf("A refused the packet from B: C's LSA at seq %d", lsdb[c.g.name].Seq)
	}
}

// TestIGPOriginatesWithIPv6Address gives a router an IPv6 address beside
// its IPv4 ones: it still originates, flooding its IPv4 prefixes only.
func TestIGPOriginatesWithIPv6Address(t *testing.T) {
	net, _ := newIGPNet(t, 1, 3, 0)
	a := net.nodes[0]
	if err := a.k.AddAddr("lan0", netip.MustParsePrefix("2001:db8::1/64")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		net.request(i, (i+1)%3)
		net.request((i+1)%3, i)
	}
	net.drain()
	net.converged("bring-up")
	lsdb, _ := lsdbOf(net.nodes[1].g)
	for _, p := range lsdb[a.g.name].Prefixes {
		if !p.Addr().Is4() {
			t.Errorf("A's LSA carries %s", p)
		}
	}
}

// TestIGPSPFRunsOnlyWhenRoutesCanChange walks one module through the
// skip rule: every accepted LSA is re-flooded, but SPF runs only for the
// ones that flip a confirmed edge or change prefixes; one request that
// forms two adjacencies originates and computes once; losing the last
// adjacency empties routes, database and intern table.
func TestIGPSPFRunsOnlyWhenRoutesCanChange(t *testing.T) {
	net, _ := newIGPNet(t, 1, 4, 0) // ring A(0)—B(1)—C(2)—D(3)—A
	a, b, c, d := net.nodes[0], net.nodes[1], net.nodes[2], net.nodes[3]
	ref := func(n *igpNode) string { return n.g.Ref().String() }
	net.request(0, 1, 3)
	if a.g.spfRuns != 1 || a.g.seq != 1 {
		t.Fatalf("one request forming two adjacencies: %d SPF runs at seq %d, want one of each", a.g.spfRuns, a.g.seq)
	}

	pfxs := func(ss ...string) []netip.Prefix {
		out := make([]netip.Prefix, len(ss))
		for i, s := range ss {
			out[i] = netip.MustParsePrefix(s)
		}
		return out
	}
	bAddrs := pfxs("10.0.0.2/30", "10.0.1.1/30", "172.16.1.1/24")
	for _, step := range []struct {
		name      string
		lsa       packet.LSA
		spf       int  // SPF runs this LSA must cause
		reflooded bool // accepted and passed on to D
		routes    int  // routes A owns afterwards
	}{
		{"B lists A back: edge A—B confirmed", packet.LSA{Origin: ref(b), Seq: 1, Prefixes: bAddrs, Neighbors: []string{ref(a)}}, 1, true, 2},
		{"seq-only refresh", packet.LSA{Origin: ref(b), Seq: 2, Prefixes: bAddrs, Neighbors: []string{ref(a)}}, 0, true, 2},
		{"B adds C, who has not listed B", packet.LSA{Origin: ref(b), Seq: 3, Prefixes: bAddrs, Neighbors: []string{ref(a), ref(c)}}, 0, true, 2},
		{"C reciprocates: edge B—C confirmed", packet.LSA{Origin: ref(c), Seq: 1, Prefixes: pfxs("10.0.1.2/30", "172.16.2.1/24"), Neighbors: []string{ref(b)}}, 1, true, 3},
		{"B's prefixes change", packet.LSA{Origin: ref(b), Seq: 4, Prefixes: append(pfxs("172.18.0.1/24"), bAddrs...), Neighbors: []string{ref(a), ref(c)}}, 1, true, 4},
		{"B drops C", packet.LSA{Origin: ref(b), Seq: 5, Prefixes: bAddrs, Neighbors: []string{ref(a)}}, 1, true, 2},
		{"duplicate of the last", packet.LSA{Origin: ref(b), Seq: 5, Prefixes: bAddrs, Neighbors: []string{ref(a)}}, 0, false, 2},
	} {
		net.queue = nil
		before := a.g.spfRuns
		upd := packet.LinkState{From: ref(b), LSAs: []packet.LSA{step.lsa}}
		a.k.HandleFrame(a.ports[b.dev], frameOf(t, &upd))
		net.check(a, step.name)
		if got := a.g.spfRuns - before; got != step.spf {
			t.Errorf("%s: %d SPF runs, want %d", step.name, got, step.spf)
		}
		if reflooded := len(net.queue) == 1 && net.queue[0].to == d; reflooded != step.reflooded {
			t.Errorf("%s: re-flooded to D = %v (queue %d), want %v", step.name, reflooded, len(net.queue), step.reflooded)
		}
		if got := a.g.RouteCount(); got != step.routes {
			t.Errorf("%s: %d routes %v, want %d", step.name, got, ownedRoutes(a.g), step.routes)
		}
	}

	fields, err := a.g.ListFields("self")
	if err != nil || fields["spf-runs"] != "5" || fields["lsas-accepted"] != "6" || fields["lsdb-size"] != "3" {
		t.Errorf("ListFields(self) = %v, %v; want spf-runs 5, lsas-accepted 6, lsdb-size 3", fields, err)
	}
	net.request(0, 1)
	if a.g.RouteCount() != 0 {
		t.Errorf("with edge A—B gone A still owns %v", ownedRoutes(a.g))
	}
	net.request(0, 3)
	if lsdb, _ := lsdbOf(a.g); len(lsdb) != 0 || len(a.g.lsdb) != 0 || len(a.g.origins) != 0 || a.g.RouteCount() != 0 {
		t.Errorf("after the last adjacency: %d LSAs, %d database slots, %d interned origins, %d routes; want none", len(lsdb), len(a.g.lsdb), len(a.g.origins), a.g.RouteCount())
	}
	net.check(a, "last adjacency deleted")
}

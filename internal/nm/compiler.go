package nm

import (
	"fmt"
	"strings"
	"sync/atomic"

	"conman/internal/core"
	"conman/internal/msg"
)

// Goal is the NM-internal form of a high-level connectivity goal:
// "configure connectivity between the customer-facing interfaces From and
// To for traffic between FromDomain and ToDomain" (§III-C).
type Goal struct {
	From, To      core.ModuleRef
	FromDomain    string // e.g. "C1-S1"
	ToDomain      string // e.g. "C1-S2"
	FromGateway   string // abstract token, e.g. "S1-gateway"
	ToGateway     string // e.g. "S2-gateway"
	TrafficDomain string // e.g. "C1"
	Tradeoffs     []core.Tradeoff
	// TagClassified marks the customer-side classification on L2
	// endpoints ("Tagged" in Fig 9b).
	TagClassified bool
	// FromPipe/ToPipe optionally pin the external physical pipes the
	// path must enter and leave through ("Phy-<port>"). Edge modules
	// with a single customer-facing port can leave them empty; on a
	// multi-tenant edge (several customer ports behind one module) they
	// select which customer attachment this goal serves.
	FromPipe, ToPipe core.PipeID
}

// DefaultTradeoffs are the paper's choices for the GRE pipe: in-order
// delivery and low error-rate (Fig 7b command (2)).
func DefaultTradeoffs() []core.Tradeoff {
	return []core.Tradeoff{
		{Give: []core.Metric{core.MetricJitter, core.MetricDelay}, Get: []core.Metric{core.MetricOrdering}, Scope: core.EndUp},
		{Give: []core.Metric{core.MetricLossRate}, Get: []core.Metric{core.MetricErrorRate}, Scope: core.EndUp},
	}
}

// DeviceScript is the compiled per-device command batch plus its
// paper-style rendering.
type DeviceScript struct {
	Device   core.DeviceID
	Items    []msg.CommandItem
	Rendered []string
}

// Script renders the batch as the figures print it.
func (d DeviceScript) Script() string { return strings.Join(d.Rendered, "\n") }

type compiledPipe struct {
	id           core.PipeID
	device       core.DeviceID
	upper, lower *Node
	upperPeer    core.ModuleRef
	lowerPeer    core.ModuleRef
	deps         []core.DependencyChoice
	emitted      bool
}

// Compile translates a chosen path into per-device CONMan command batches
// (the algorithmically generated scripts of Figs 7b/8b/9b). The NM
// resolves its own abstract tokens (domains, gateways) into
// MatchResolved/ViaResolved; everything else stays abstract.
func (n *NM) Compile(path *Path, goal Goal) ([]DeviceScript, error) {
	if len(path.Hops) < 2 {
		return nil, fmt.Errorf("nm: path too short to compile")
	}
	if len(goal.Tradeoffs) == 0 {
		goal.Tradeoffs = DefaultTradeoffs()
	}

	// 1. Materialise pipes at each co-located transition.
	pipeSeq := map[core.DeviceID]int{}
	entryPipe := make([]*compiledPipe, len(path.Hops)) // pipe the hop was entered through
	exitPipe := make([]*compiledPipe, len(path.Hops))
	for i := 0; i < len(path.Hops)-1; i++ {
		hop, next := path.Hops[i], path.Hops[i+1]
		if hop.ExitVia == nil {
			continue // physical transition
		}
		dev := hop.Node.Ref.Device
		var upper, lower *Node
		if hop.Mode.To == core.EndDown {
			upper, lower = hop.Node, next.Node
		} else {
			upper, lower = next.Node, hop.Node
		}
		cp := &compiledPipe{
			id:     core.PipeID(fmt.Sprintf("P%d", pipeSeq[dev])),
			device: dev,
			upper:  upper, lower: lower,
		}
		pipeSeq[dev]++
		// Peers from the group roles.
		upperHop, lowerHop := i, i+1
		if upper != hop.Node {
			upperHop, lowerHop = i+1, i
		}
		cp.upperPeer = n.peerFor(path, upperHop, upperHop != i)
		cp.lowerPeer = n.peerFor(path, lowerHop, lowerHop != i)
		// Dependencies: any declared for this pipe get the goal's
		// trade-off choices.
		if len(lower.Abs.Up.Dependencies) > 0 || len(upper.Abs.Down.Dependencies) > 0 {
			for _, t := range goal.Tradeoffs {
				cp.deps = append(cp.deps, core.DependencyChoice{Tradeoff: t.Key()})
			}
		}
		exitPipe[i] = cp
		entryPipe[i+1] = cp
	}

	// 2. Identify the customer-edge IP hops (first and last members of
	// the external IP group) for the classified rules.
	startEdge, goalEdge := -1, -1
	for _, g := range path.Groups {
		if g.External && canon(g.Protocol) == core.NameIPv4 && len(g.Members) > 0 {
			startEdge = g.Members[0]
			goalEdge = g.Members[len(g.Members)-1]
		}
	}

	// 3. Emit per-device scripts in hop order.
	var out []DeviceScript
	scriptOf := map[core.DeviceID]int{}
	getScript := func(dev core.DeviceID) *DeviceScript {
		if idx, ok := scriptOf[dev]; ok {
			return &out[idx]
		}
		out = append(out, DeviceScript{Device: dev})
		scriptOf[dev] = len(out) - 1
		return &out[len(out)-1]
	}

	emitPipe := func(ds *DeviceScript, cp *compiledPipe) {
		if cp == nil || cp.emitted {
			return
		}
		cp.emitted = true
		req := core.PipeRequest{
			Upper: cp.upper.Ref, Lower: cp.lower.Ref,
			UpperPeer: cp.upperPeer, LowerPeer: cp.lowerPeer,
			Satisfy: cp.deps,
		}
		ds.Items = append(ds.Items, msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: cp.id, Req: req}})
		ds.Rendered = append(ds.Rendered, renderPipeCreate(cp.id, req))
	}

	for i := range path.Hops {
		hop := &path.Hops[i]
		dev := hop.Node.Ref.Device
		ds := getScript(dev)
		emitPipe(ds, entryPipe[i])
		emitPipe(ds, exitPipe[i])

		entryRef := refOf(entryPipe[i], hop.EntryPhys)
		exitRef := refOf(exitPipe[i], hop.ExitPhys)

		switch {
		case i == startEdge:
			prefix, _ := n.resolveDomain(goal.ToDomain)
			gw, _ := n.resolveGateway(goal.FromGateway)
			n.emitClassified(ds, hop.Node.Ref, entryRef, exitRef,
				goal.ToDomain, prefix, goal.FromGateway, gw)
		case i == goalEdge:
			prefix, _ := n.resolveDomain(goal.FromDomain)
			gw, _ := n.resolveGateway(goal.ToGateway)
			n.emitClassified(ds, hop.Node.Ref, exitRef, entryRef,
				goal.FromDomain, prefix, goal.ToGateway, gw)
		case hop.Node.Ref.Name == core.NameETH && (i == 0 || i == len(path.Hops)-1):
			// Endpoint ETH module. On routers the customer port feeds
			// its single up pipe implicitly (Fig 7b has no rule for a).
			// On L2 switches the Tagged classification selects the
			// VLAN tunnel (Fig 9b).
			if goal.TagClassified {
				rule := core.SwitchRule{
					Module: hop.Node.Ref, From: entryRef, To: exitRef,
					Match: &core.Classifier{Kind: "tagged", Value: ""},
				}
				ds.Items = append(ds.Items, msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: rule}})
				ds.Rendered = append(ds.Rendered, renderSwitchCreate(rule))
				rev := core.SwitchRule{Module: hop.Node.Ref, From: exitRef, To: entryRef}
				ds.Items = append(ds.Items, msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: rev}})
				ds.Rendered = append(ds.Rendered, renderSwitchCreate(rev))
			}
		default:
			rule := core.SwitchRule{
				Module: hop.Node.Ref, From: entryRef, To: exitRef, Bidirectional: true,
			}
			ds.Items = append(ds.Items, msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: rule}})
			ds.Rendered = append(ds.Rendered, renderSwitchCreate(rule))
		}
	}

	// 4. Control-module state (§II-F). A closed internal IPv4 peer group
	// with transit members — a tunnel whose endpoints are more than one
	// router apart — needs reachability state the IP modules cannot
	// derive from their own pairwise exchanges: the transit routers have
	// no routes between the link subnets. When every member's device
	// hosts a control module whose ProvidesState matches the IP module's
	// switch-state dependency token, the NM compiles one pipe per
	// adjacency (Upper = provider, Lower = IP, peers = the neighbouring
	// provider/IP pair) and the providers flood the rest among
	// themselves, exactly as IKE is named for IPSec's keying dependency.
	// Without full provider coverage the group compiles as before and
	// forwarding relies on directly connected subnets (the paper's n=3).
	n.emitRouteProviders(path, getScript, pipeSeq)
	return out, nil
}

// emitRouteProviders appends the control-module adjacency pipes for
// every transit IPv4 group that has full provider coverage (see step 4
// of Compile).
func (n *NM) emitRouteProviders(path *Path, getScript func(core.DeviceID) *DeviceScript, pipeSeq map[core.DeviceID]int) {
	type memberInfo struct {
		ip, provider core.ModuleRef
		token        string
	}
	for _, grp := range path.Groups {
		if grp.External || !grp.Closed || canon(grp.Protocol) != core.NameIPv4 || len(grp.Members) < 3 {
			continue
		}
		members := make([]memberInfo, 0, len(grp.Members))
		covered := true
		for _, hi := range grp.Members {
			node := path.Hops[hi].Node
			provider, token, ok := n.routeProvider(node)
			if !ok {
				covered = false
				break
			}
			members = append(members, memberInfo{ip: node.Ref, provider: provider, token: token})
		}
		if !covered {
			continue
		}
		for k, m := range members {
			emitAdj := func(other memberInfo) {
				dev := m.ip.Device
				ds := getScript(dev)
				id := core.PipeID(fmt.Sprintf("P%d", pipeSeq[dev]))
				pipeSeq[dev]++
				req := core.PipeRequest{
					Upper: m.provider, Lower: m.ip,
					UpperPeer: other.provider, LowerPeer: other.ip,
					Satisfy: []core.DependencyChoice{{
						Token: m.token, Provider: m.provider.String(),
					}},
				}
				ds.Items = append(ds.Items, msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: id, Req: req}})
				ds.Rendered = append(ds.Rendered, renderPipeCreate(id, req))
			}
			if k > 0 {
				emitAdj(members[k-1])
			}
			if k < len(members)-1 {
				emitAdj(members[k+1])
			}
		}
	}
}

// routeProvider finds a co-located control module satisfying the
// member IP module's switch-state dependency. The match is pure token
// equality plus mutual connectability — the NM needs no idea what the
// state is, only who can provide it (§II-F).
func (n *NM) routeProvider(member *Node) (core.ModuleRef, string, bool) {
	dep := member.Abs.Switch.StateDependency
	if dep == nil || dep.Token == "" {
		return core.ModuleRef{}, "", false
	}
	info, ok := n.Device(member.Ref.Device)
	if !ok || info == nil {
		return core.ModuleRef{}, "", false
	}
	for _, abs := range info.Modules {
		if abs.Kind != core.KindControl {
			continue
		}
		if !abs.Down.CanConnect(member.Ref.Name) || !member.Abs.Up.CanConnect(abs.Ref.Name) {
			continue
		}
		for _, tok := range abs.ProvidesState {
			if tok == dep.Token {
				return abs.Ref, tok, true
			}
		}
	}
	return core.ModuleRef{}, "", false
}

// peerFor derives a module's peer on one of its pipes from the path's
// peer groups (§III-C.1). entrySide says whether the pipe is the hop's
// entry pipe (toward the start of the path) or its exit pipe.
func (n *NM) peerFor(path *Path, hopIdx int, entrySide bool) core.ModuleRef {
	hop := path.Hops[hopIdx]
	grp := path.Groups[hop.Group]
	pos := -1
	for i, m := range grp.Members {
		if m == hopIdx {
			pos = i
			break
		}
	}
	if pos < 0 {
		return core.ModuleRef{}
	}
	if entrySide {
		if pos > 0 {
			return path.Hops[grp.Members[pos-1]].Node.Ref
		}
		// Pusher: the peer across the pipe above the encapsulation is
		// the popper at the far end.
		if !grp.External && grp.Closed && len(grp.Members) > 1 {
			return path.Hops[grp.Members[len(grp.Members)-1]].Node.Ref
		}
		return core.ModuleRef{}
	}
	if pos < len(grp.Members)-1 {
		return path.Hops[grp.Members[pos+1]].Node.Ref
	}
	// Popper: peer is the pusher.
	if !grp.External && grp.Closed && len(grp.Members) > 1 {
		return path.Hops[grp.Members[0]].Node.Ref
	}
	return core.ModuleRef{}
}

func refOf(cp *compiledPipe, phys core.PipeID) core.PipeID {
	if cp != nil {
		return cp.id
	}
	return phys
}

func (n *NM) emitClassified(ds *DeviceScript, module core.ModuleRef, customerPipe, insidePipe core.PipeID,
	dstDomain, dstPrefix, gwToken, gwAddr string) {
	in := core.SwitchRule{
		Module: module, From: customerPipe, To: insidePipe,
		Match: &core.Classifier{Kind: "dst-domain", Value: dstDomain},
	}
	ds.Items = append(ds.Items, msg.CommandItem{Switch: &msg.CreateSwitchReq{
		Rule: in, MatchResolved: dstPrefix,
	}})
	ds.Rendered = append(ds.Rendered, renderSwitchCreate(in))

	outRule := core.SwitchRule{
		Module: module, From: insidePipe, To: customerPipe, Via: gwToken,
	}
	ds.Items = append(ds.Items, msg.CommandItem{Switch: &msg.CreateSwitchReq{
		Rule: outRule, ViaResolved: gwAddr,
	}})
	ds.Rendered = append(ds.Rendered, renderSwitchCreate(outRule))
}

// renderPipeCreate renders one create (pipe, ...) command as the
// figures print it: upper and lower modules, the two remote peers, then
// the dependency choices ("None" where absent).
func renderPipeCreate(id core.PipeID, req core.PipeRequest) string {
	up, low := "None", "None"
	if !req.UpperPeer.IsZero() {
		up = req.UpperPeer.String()
	}
	if !req.LowerPeer.IsZero() {
		low = req.LowerPeer.String()
	}
	extra := "None"
	if len(req.Satisfy) > 0 {
		var parts []string
		for _, d := range req.Satisfy {
			parts = append(parts, "trade-off: "+tradeoffGetName(d.Tradeoff))
		}
		extra = strings.Join(parts, ", ")
	}
	return fmt.Sprintf("%s = create (pipe, %s, %s, %s, %s, %s)",
		id, req.Upper, req.Lower, up, low, extra)
}

// renderSwitchCreate renders one create (switch, ...) command in the
// form the figures use for the rule's shape: bidirectional rules in the
// bare three-argument form, classified and via-directed rules in the
// bracketed [from => to] forms.
func renderSwitchCreate(r core.SwitchRule) string {
	switch {
	case r.Bidirectional:
		return fmt.Sprintf("create (switch, %s, %s, %s)", r.Module, r.From, r.To)
	case r.Match != nil && r.Match.Kind == "tagged":
		return fmt.Sprintf("create (switch, %s, [%s, Tagged => %s])", r.Module, r.From, r.To)
	case r.Match != nil:
		return fmt.Sprintf("create (switch, %s, [%s, dst:%s => %s])", r.Module, r.From, r.Match.Value, r.To)
	case r.Via != "":
		return fmt.Sprintf("create (switch, %s, [%s => %s, %s])", r.Module, r.From, r.To, r.Via)
	default:
		return fmt.Sprintf("create (switch, %s, [%s => %s])", r.Module, r.From, r.To)
	}
}

// tradeoffGetName extracts the "get" metric names from a trade-off key
// for rendering ("ordering", "error-rate").
func tradeoffGetName(key string) string {
	parts := strings.Split(key, "|")
	if len(parts) != 3 {
		return key
	}
	return parts[1]
}

// Execute runs compiled device scripts, one batch per device (Table VI's
// "commands to each router along the path").
//
// By default scripts are grouped into per-device chains that run
// concurrently, each chain strictly in order: a device that appears more
// than once has its later scripts follow its earlier ones, but no device
// ever waits on another device's progress — the executor pipelines
// instead of synchronising every chain on the slowest device at a
// barrier. Module peering stays correct because the initiator rule keys
// on module references (device identity), not on configuration arrival
// order, and every module defers work whose parameters have not arrived
// yet (ErrPending / pending replies). The message Counters are therefore
// byte-identical to sequential execution. On the first batch failure the
// other chains stop starting new batches. Setting n.Sequential runs the
// chains one at a time on the caller's goroutine — with one script per
// device (what the compiler and both diff entry points emit) that is
// strict script order, the paper's accounting mode.
func (n *NM) Execute(scripts []DeviceScript) error {
	_, err := n.executeCollect(scripts)
	return err
}

// executeCollect runs scripts like Execute and additionally returns the
// per-script batch responses, aligned with scripts, so callers can bind
// desired state to the component ids the devices actually created.
// Entries for scripts not reached before an error are zero-valued.
func (n *NM) executeCollect(scripts []DeviceScript) ([]msg.CommandBatchResp, error) {
	resps := make([]msg.CommandBatchResp, len(scripts))
	chains := executionChains(scripts)
	var failed atomic.Bool
	return resps, n.forEach(len(chains), func(c int) error {
		for _, idx := range chains[c] {
			if failed.Load() {
				return nil
			}
			r, err := n.runScript(&scripts[idx])
			resps[idx] = r
			if err != nil {
				failed.Store(true)
				return err
			}
		}
		return nil
	})
}

// executionChains groups script indexes into per-device chains ordered by
// each device's first appearance; within a chain the original script
// order is preserved. With one script per device (the compiler's normal
// output) every chain has length one.
func executionChains(scripts []DeviceScript) [][]int {
	chainOf := make(map[core.DeviceID]int, len(scripts))
	var chains [][]int
	for i := range scripts {
		c, ok := chainOf[scripts[i].Device]
		if !ok {
			c = len(chains)
			chains = append(chains, nil)
			chainOf[scripts[i].Device] = c
		}
		chains[c] = append(chains[c], i)
	}
	return chains
}

// runScript sends one device's batch and surfaces per-item errors.
func (n *NM) runScript(ds *DeviceScript) (msg.CommandBatchResp, error) {
	resp, err := n.ExecuteBatch(ds.Device, ds.Items)
	if err != nil {
		return resp, fmt.Errorf("nm: batch on %s: %w", ds.Device, err)
	}
	for i, e := range resp.Errors {
		if e != "" {
			return resp, fmt.Errorf("nm: batch on %s item %d (%s): %s", ds.Device, i, ds.Rendered[i], e)
		}
	}
	return resp, nil
}

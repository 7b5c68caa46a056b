package modules

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
)

// GRE models the paper's GRE module (§III-B, Table III): a user-level
// wrapper around the kernel GRE implementation that negotiates keys,
// sequence numbers and checksums with its peer GRE module through the
// management channel and keeps all of that out of the NM's sight. The NM
// only ever expresses trade-offs: in-order delivery (=> sequence numbers)
// and low error-rate (=> checksums).
type GRE struct {
	device.BaseModule
	keys *device.Exchange // "gre-params" with the peer GRE module

	mu sync.Mutex
	// params holds per-peer parameters: the options this end would
	// propose until the keys are agreed (Done).
	params map[string]*greParams
	// tunnels counts the installed switch rules riding each kernel
	// tunnel interface; the last rule's undo deletes the tunnel.
	tunnels  map[string]int
	keySeq   uint32
	insmoded bool
}

type greParams struct {
	IKey, OKey uint32
	Seq, Csum  bool
	Done       bool
}

// greProposal is the convey body of the key negotiation (Fig 3's
// "Key Values, Seq No. usage and other parameters" exchange). The
// responder's reply confirms the same keys from its side.
type greProposal struct {
	// YourIKey is the key the sender proposes the receiver use for its
	// inbound direction (the sender's okey).
	YourIKey uint32 `json:"your_ikey"`
	// MyIKey is the sender's inbound key.
	MyIKey uint32 `json:"my_ikey"`
	Seq    bool   `json:"seq"`
	Csum   bool   `json:"csum"`
}

// NewGRE creates a GRE module.
func NewGRE(svc device.Services, id core.ModuleID) *GRE {
	g := &GRE{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameGRE, svc.Device(), id),
			Svc:    svc,
		},
		params:  make(map[string]*greParams),
		tunnels: make(map[string]int),
	}
	g.keys = device.Pairwise("gre-params", g.offer, g.accept)
	svc.Declare(g.Ref(), g.keys)
	return g
}

// Tradeoffs advertised in Table III row xi.
func greTradeoffs() []core.Tradeoff {
	return []core.Tradeoff{
		{
			Give:  []core.Metric{core.MetricJitter, core.MetricDelay},
			Get:   []core.Metric{core.MetricOrdering},
			Scope: core.EndUp,
		},
		{
			Give:  []core.Metric{core.MetricLossRate},
			Get:   []core.Metric{core.MetricErrorRate},
			Scope: core.EndUp,
		},
	}
}

// Abstraction implements device.Module — Table III, row by row.
func (g *GRE) Abstraction() core.Abstraction {
	return core.Abstraction{
		Ref:  g.Ref(), // (i)   Name <GRE, device-id, module-id>
		Kind: core.KindData,
		Up: core.PipeSpec{ // (ii, iii)
			Connectable: []core.ModuleName{core.NameIPv4},
			Dependencies: []core.Dependency{{
				Kind:        core.DepTradeoff,
				Description: "Performance trade-offs to be specified",
			}},
		},
		Down: core.PipeSpec{ // (iv, v)
			Connectable: []core.ModuleName{core.NameIPv4},
		},
		// (vi) no physical pipes; (vii) peerable: GRE.
		Peerable: []core.ModuleName{core.NameGRE},
		// (viii) no filtering.
		Switch: core.SwitchSpec{ // (ix)
			Modes:       []core.SwitchMode{core.SwUpDown, core.SwDownUp},
			StateSource: core.StateLocal,
		},
		// (x) limited performance reporting.
		PerfReporting: []string{"rx-packets/pipe", "tx-packets/pipe"},
		// (xi) trade-offs; (xii) no enforcement; (xiii) no security.
		Tradeoffs: greTradeoffs(),
	}
}

// Actual implements device.Module.
func (g *GRE) Actual() core.ModuleState {
	g.mu.Lock()
	defer g.mu.Unlock()
	st := core.ModuleState{Ref: g.Ref(), LowLevel: map[string]string{}}
	k := g.Svc.Kernel()
	for iface := range g.tunnels {
		if tun, ok := k.Tunnel(iface); ok {
			st.LowLevel["tunnel:"+iface] = fmt.Sprintf("dev=%s local=%s remote=%s ikey=%d okey=%d seq=%v csum=%v",
				iface, tun.Local, tun.Remote, tun.IKey, tun.OKey, tun.ISeq, tun.ICsum)
		}
		rx, tx := k.IfaceCounters(iface)
		st.Perf.Metrics = map[string]float64{
			"rx-packets": float64(rx),
			"tx-packets": float64(tx),
		}
	}
	return st
}

// PipeAttached implements device.Module: our up pipe (IP payload
// above) records the options the pipe's trade-offs chose and asks for
// the key negotiation with the peer GRE module.
func (g *GRE) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	peer := p.LowerPeer
	if side != device.SideLower || peer.IsZero() || peer.Name != core.NameGRE {
		return nil
	}
	g.mu.Lock()
	if g.params[peer.String()] == nil {
		g.params[peer.String()] = &greParams{
			Seq:  p.TradeoffChosen(core.MetricOrdering),
			Csum: p.TradeoffChosen(core.MetricErrorRate),
		}
	}
	g.mu.Unlock()
	g.keys.With(peer)
	return nil
}

// offer is the gre-params offer: the keys agreed with peer, allocated
// here when this end initiates.
func (g *GRE) offer(peer core.ModuleRef) (greProposal, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	pr := g.params[peer.String()]
	if pr == nil {
		return greProposal{}, device.ErrPending
	}
	if !pr.Done {
		pr.IKey, pr.OKey = 1001+2*g.keySeq, 2001+2*g.keySeq
		pr.Done = true
		g.keySeq++
	}
	return greProposal{YourIKey: pr.OKey, MyIKey: pr.IKey, Seq: pr.Seq, Csum: pr.Csum}, nil
}

// accept adopts the peer's keys and options (our ikey = their
// "YourIKey").
func (g *GRE) accept(peer core.ModuleRef, prop greProposal) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.params[peer.String()] = &greParams{
		IKey: prop.YourIKey, OKey: prop.MyIKey,
		Seq: prop.Seq, Csum: prop.Csum, Done: true,
	}
	return nil
}

// HandleConvey implements device.Module: the peer's teardown notice
// resets sequence state.
func (g *GRE) HandleConvey(from core.ModuleRef, kind string, body []byte) error {
	if kind != "gre-down" {
		return nil
	}
	// The peer tore its tunnel end down: accept a restarted transmit
	// sequence when it comes back.
	g.mu.Lock()
	for iface := range g.tunnels {
		g.Svc.Kernel().ResetTunnelSeq(iface)
	}
	g.mu.Unlock()
	return nil
}

// InstallSwitchRule implements device.Module: [up-pipe <=> down-pipe]
// binds the tunnel together. By now the peer negotiation supplies keys and
// options, and the IP module below supplies the endpoint addresses; the
// module then emits the same `ip tunnel add` command a human writes in
// Fig 7(a) — but nobody had to write it. The returned undo deletes the
// tunnel once no rule rides it.
func (g *GRE) InstallSwitchRule(r *device.SwitchRuleInstance) (func(), error) {
	up, upSide, ok1 := g.OwnPipe(r.Rule.From)
	dn, dnSide, ok2 := g.OwnPipe(r.Rule.To)
	if upSide == device.SideUpper {
		up, dn, upSide, dnSide = dn, up, dnSide, upSide
	}
	if !ok1 || !ok2 || upSide != device.SideLower || dnSide != device.SideUpper {
		return nil, fmt.Errorf("%s: switch rule needs one up and one down pipe", g.Ref())
	}

	peer := up.LowerPeer
	g.mu.Lock()
	pr, haveParams := g.params[peer.String()]
	g.mu.Unlock()
	if peer.IsZero() {
		return nil, fmt.Errorf("%s: up pipe %s has no peer", g.Ref(), up.ID)
	}
	if !haveParams || !pr.Done {
		return nil, device.ErrPending
	}

	// Tunnel endpoints from the IP module below (which exchanged
	// addresses with its own peer).
	lowerIP, ok := g.Svc.LocalModule(dn.Lower.Module)
	if !ok {
		return nil, fmt.Errorf("%s: no lower module %s", g.Ref(), dn.Lower)
	}
	fields, err := lowerIP.ListFields("peer:" + dn.LowerPeer.String())
	if err != nil {
		return nil, err
	}
	if fields["local"] == "" || fields["remote"] == "" {
		return nil, device.ErrPending
	}
	local, err1 := netip.ParseAddr(fields["local"])
	remote, err2 := netip.ParseAddr(fields["remote"])
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("%s: bad endpoint addresses %q/%q", g.Ref(), fields["local"], fields["remote"])
	}

	name := fmt.Sprintf("gre-%s-%s", up.ID, dn.ID)
	k := g.Svc.Kernel()
	undo := func() {
		g.mu.Lock()
		g.tunnels[name]--
		last := g.tunnels[name] <= 0
		if last {
			delete(g.tunnels, name)
		}
		g.mu.Unlock()
		if !last {
			return
		}
		k.DelIface(name)
		// Tell the peer GRE module so it resets its receive-sequence
		// protection: a re-created near end restarts transmit sequences
		// at zero, which the peer would otherwise drop as replay (§II-D
		// coordination through the NM, never on the data path).
		if peer.Name == core.NameGRE {
			_ = g.Svc.Convey(g.Ref(), peer, "gre-down", struct{}{})
		}
	}
	g.mu.Lock()
	if g.tunnels[name] > 0 {
		// Another rule already built this tunnel; this one shares it.
		g.tunnels[name]++
		g.mu.Unlock()
		return undo, nil
	}
	needInsmod := !g.insmoded
	g.insmoded = true
	g.mu.Unlock()

	if needInsmod {
		if _, err := k.Exec("insmod /lib/modules/2.6.14-2/ip_gre.ko"); err != nil {
			return nil, err
		}
	}
	cmd := fmt.Sprintf("ip tunnel add name %s mode gre remote %s local %s ikey %d okey %d",
		name, remote, local, pr.IKey, pr.OKey)
	if pr.Csum {
		cmd += " icsum ocsum"
	}
	if pr.Seq {
		cmd += " iseq oseq"
	}
	if _, err := k.Exec(cmd); err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.tunnels[name]++
	g.mu.Unlock()
	// The IP module above may be waiting for our device handle.
	g.Svc.Kick()
	return undo, nil
}

// ListFields implements device.Module: exposes the tunnel device handle
// to the IP module above, and the negotiated low-level values to
// showActual/debugging.
func (g *GRE) ListFields(component string) (map[string]string, error) {
	comp := strings.TrimPrefix(component, "pipe:")
	if _, _, ok := g.OwnPipe(core.PipeID(comp)); !ok && comp != "self" {
		return nil, fmt.Errorf("%s: unknown component %q", g.Ref(), component)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	// Any pipe of ours maps onto the single tunnel built across it.
	for iface := range g.tunnels {
		return map[string]string{"dev": iface}, nil
	}
	return map[string]string{}, nil
}

// SelfTest implements device.Module: checks IP reachability of the tunnel
// remote endpoint (detects the paper's "invalid filter rule blocking IP
// connectivity between the tunnel end points").
func (g *GRE) SelfTest(pipe core.PipeID) (bool, string) {
	g.mu.Lock()
	var iface string
	for i := range g.tunnels {
		iface = i
	}
	g.mu.Unlock()
	if iface == "" {
		return false, "no tunnel configured"
	}
	k := g.Svc.Kernel()
	tun, ok := k.Tunnel(iface)
	if !ok {
		return false, "tunnel interface missing"
	}
	return probe(k, tun.Local, tun.Remote, "endpoint %s reachable", "endpoint %s unreachable")
}

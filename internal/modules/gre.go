package modules

import (
	"encoding/json"
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

	mu sync.Mutex
	// params holds per-peer negotiated parameters.
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
// "Key Values, Seq No. usage and other parameters" exchange).
type greProposal struct {
	// YourIKey is the key the initiator proposes the responder use for
	// its inbound direction (the initiator's okey).
	YourIKey uint32 `json:"your_ikey"`
	// MyIKey is the initiator's inbound key.
	MyIKey uint32 `json:"my_ikey"`
	Seq    bool   `json:"seq"`
	Csum   bool   `json:"csum"`
	Ack    bool   `json:"ack"`
}

// NewGRE creates a GRE module.
func NewGRE(svc device.Services, id core.ModuleID) *GRE {
	return &GRE{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameGRE, svc.Device(), id),
			Svc:    svc,
		},
		params:  make(map[string]*greParams),
		tunnels: make(map[string]int),
	}
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

// PipeAttached implements device.Module.
func (g *GRE) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	var (
		propose bool
		peer    core.ModuleRef
		prop    greProposal
	)
	g.mu.Lock()
	// Our up pipe (IP payload above): kick off parameter negotiation with
	// the peer GRE module if we are the initiator (the module with the
	// lexically smaller reference, so each pair negotiates exactly once).
	peer = p.LowerPeer
	if side == device.SideLower && !peer.IsZero() && peer.Name == core.NameGRE {
		pkey := peer.String()
		_, have := g.params[pkey]
		if !have && g.Ref().String() < pkey {
			pr := &greParams{
				IKey: 1001 + 2*g.keySeq,
				OKey: 2001 + 2*g.keySeq,
				Seq:  p.TradeoffChosen(core.MetricOrdering),
				Csum: p.TradeoffChosen(core.MetricErrorRate),
				Done: true,
			}
			g.keySeq++
			g.params[pkey] = pr
			prop = greProposal{YourIKey: pr.OKey, MyIKey: pr.IKey, Seq: pr.Seq, Csum: pr.Csum}
			propose = true
		}
	}
	g.mu.Unlock()
	// The convey can synchronously trigger the peer's reply (in-process
	// channel), which re-enters HandleConvey: send without holding g.mu.
	if propose {
		_ = g.Svc.Convey(g.Ref(), peer, "gre-params", prop)
	}
	return nil
}

// HandleConvey implements device.Module: the responder half of the key
// negotiation, plus the teardown notification resetting sequence state.
func (g *GRE) HandleConvey(from core.ModuleRef, kind string, body []byte) error {
	if kind == "gre-down" {
		// The peer tore its tunnel end down: accept a restarted transmit
		// sequence when it comes back.
		g.mu.Lock()
		for iface := range g.tunnels {
			g.Svc.Kernel().ResetTunnelSeq(iface)
		}
		g.mu.Unlock()
		return nil
	}
	if kind != "gre-params" {
		return nil
	}
	var prop greProposal
	if err := json.Unmarshal(body, &prop); err != nil {
		return err
	}
	g.mu.Lock()
	pkey := from.String()
	if prop.Ack {
		if pr, ok := g.params[pkey]; ok {
			pr.Done = true
		}
		g.mu.Unlock()
		g.Svc.Kick()
		return nil
	}
	// The initiator proposed; adopt (our ikey = their "YourIKey").
	g.params[pkey] = &greParams{
		IKey: prop.YourIKey, OKey: prop.MyIKey,
		Seq: prop.Seq, Csum: prop.Csum, Done: true,
	}
	g.mu.Unlock()
	_ = g.Svc.Convey(g.Ref(), from, "gre-params", greProposal{Ack: true})
	g.Svc.Kick()
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
	token := probeToken()
	if err := k.SendProbeFrom(tun.Local, tun.Remote, token); err != nil {
		return false, err.Error()
	}
	if k.AwaitProbeReply(token) {
		return true, fmt.Sprintf("endpoint %s reachable", tun.Remote)
	}
	return false, fmt.Sprintf("endpoint %s unreachable", tun.Remote)
}

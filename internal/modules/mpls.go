package modules

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
)

// MPLS models an MPLS module (§III-C). Neighbouring LSRs negotiate labels
// over the management channel (downstream label allocation: each module
// allocates the incoming label for traffic arriving from a given
// neighbour and tells that neighbour). Switch rules translate to the
// mpls-linux commands of Fig 8(a): labelspace/ilm/nhlfe/xc.
type MPLS struct {
	device.BaseModule
	labels *device.Exchange // "mpls-label" with neighbouring LSRs

	mu        sync.Mutex
	labelBase uint32
	labelSeq  uint32
	// neighbors holds per-peer label negotiation state keyed by the peer
	// module's ref string.
	neighbors map[string]*mplsNeighbor // guarded by mu
	// pushKeys and via per up-pipe expose the ingress handle to the IP
	// module above ({"mpls-key", "via"}).
	pushKey string
	pushVia string
	// notified records the "lsp-established" report the pure responder
	// at the far end of the LSP sends the NM (Table VI's final received
	// message).
	notified  bool
	modprobed bool
	spacesSet map[string]bool // guarded by mu
}

type mplsNeighbor struct {
	// Pipe is our down pipe toward this neighbour, once attached.
	Pipe core.PipeID
	// MyInLabel is the label we allocated for traffic arriving from this
	// neighbour; zero until our down pipe toward it is attached.
	MyInLabel uint32
	// PeerInLabel is the label the neighbour allocated for traffic we
	// send to it.
	PeerInLabel uint32
	// PeerLinkAddr is the neighbour's IP address on the shared link (the
	// NHLFE next hop).
	PeerLinkAddr netip.Addr
	HavePeer     bool
}

// mplsLabelMsg is the convey body of the label exchange.
type mplsLabelMsg struct {
	// Label is the sender's incoming label for traffic from the
	// receiver.
	Label uint32 `json:"label"`
	// LinkAddr is the sender's address on the shared link.
	LinkAddr netip.Addr `json:"link_addr"`
}

// NewMPLS creates an MPLS module. labelBase seeds this LSR's label
// allocator (the Fig 8 experiment uses 10001 on A, 2001 on B, 3001 on C).
func NewMPLS(svc device.Services, id core.ModuleID, labelBase uint32) *MPLS {
	m := &MPLS{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameMPLS, svc.Device(), id),
			Svc:    svc,
		},
		labelBase: labelBase,
		neighbors: make(map[string]*mplsNeighbor),
		spacesSet: make(map[string]bool),
	}
	m.labels = device.Pairwise("mpls-label", m.offer, m.accept)
	svc.Declare(m.Ref(), m.labels)
	return m
}

// Abstraction implements device.Module (Table IV's MPLS row).
func (m *MPLS) Abstraction() core.Abstraction {
	return core.Abstraction{
		Ref:      m.Ref(),
		Kind:     core.KindData,
		Up:       core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4}},
		Down:     core.PipeSpec{Connectable: []core.ModuleName{core.NameETH}},
		Peerable: []core.ModuleName{core.NameMPLS},
		Switch: core.SwitchSpec{
			Modes: []core.SwitchMode{
				core.SwDownUp, core.SwUpDown, core.SwDownDown,
			},
			StateSource: core.StateLocal,
		},
		PerfReporting: []string{"rx-packets/pipe", "tx-packets/pipe"},
		// The ingress NHLFE handle exposed to the module above via
		// listFieldsAndValues("pipe:<up>"). Advertising it tells the NM
		// that consumers embed values that can churn independently of
		// the consuming rule, so §II-E dependency maintenance must
		// watch them (installTrigger) and re-check embedded copies.
		HandleFields: []string{"mpls-key", "via"},
		// The path selector prefers MPLS because the abstraction
		// advertises good forwarding bandwidth (§III-C.1).
		Attributes: map[string]string{"forwarding": "fast"},
	}
}

// Actual implements device.Module.
func (m *MPLS) Actual() core.ModuleState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := core.ModuleState{Ref: m.Ref(), LowLevel: map[string]string{}}
	for peer, n := range m.neighbors {
		st.LowLevel["labels:"+peer] = fmt.Sprintf("in=%d out=%d nexthop=%s", n.MyInLabel, n.PeerInLabel, n.PeerLinkAddr)
	}
	return st
}

// PipeAttached implements device.Module: a down pipe with a known MPLS
// peer allocates our in-label for that neighbour and asks for the label
// exchange. Labels are handed out here and nowhere else, so they follow
// the device's own batch order and not the arrival order of neighbours'
// messages, which the concurrent executor does not fix.
func (m *MPLS) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	peer := p.UpperPeer
	if side != device.SideUpper || peer.IsZero() || peer.Name != core.NameMPLS {
		return nil
	}
	m.mu.Lock()
	n := m.neighborLocked(peer.String())
	n.Pipe = p.ID
	if n.MyInLabel == 0 {
		n.MyInLabel = m.labelBase + m.labelSeq
		m.labelSeq++
	}
	m.mu.Unlock()
	m.labels.With(peer)
	return nil
}

// neighborLocked returns the negotiation state for a peer, creating an
// empty record (no in-label yet) on first sight. Caller holds m.mu.
func (m *MPLS) neighborLocked(key string) *mplsNeighbor {
	n := m.neighbors[key]
	if n == nil {
		n = &mplsNeighbor{}
		m.neighbors[key] = n
	}
	return n
}

// nhlfeKeyInt parses the 0x-prefixed key string `mpls nhlfe add` printed.
func nhlfeKeyInt(s string) int {
	var v int
	if _, err := fmt.Sscanf(s, "0x%x", &v); err != nil {
		return -1
	}
	return v
}

// offer is the mpls-label offer: our in-label for peer and our address
// on the link under our down pipe toward it. Both come with that pipe; if
// it does not exist yet (the NM configures devices in path order, so the
// requester's batch usually precedes ours), a responder's reply waits
// until it does.
func (m *MPLS) offer(peer core.ModuleRef) (mplsLabelMsg, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.neighbors[peer.String()]
	if n == nil || n.MyInLabel == 0 {
		return mplsLabelMsg{}, device.ErrPending
	}
	p, ok := m.Svc.PipeByID(n.Pipe)
	if !ok {
		return mplsLabelMsg{}, device.ErrPending
	}
	dev, err := m.devUnder(p)
	if err != nil {
		return mplsLabelMsg{}, err
	}
	addr, ok := m.Svc.Kernel().AddrOf(dev)
	if !ok {
		return mplsLabelMsg{}, device.ErrPending
	}
	return mplsLabelMsg{Label: n.MyInLabel, LinkAddr: addr}, nil
}

// accept records the neighbour's in-label and link address.
func (m *MPLS) accept(peer core.ModuleRef, x mplsLabelMsg) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.neighborLocked(peer.String())
	n.PeerInLabel, n.PeerLinkAddr, n.HavePeer = x.Label, x.LinkAddr, true
	return nil
}

// neighborFor returns a copy of the negotiation state for the peer
// across a down pipe (HandleConvey updates the record under m.mu).
func (m *MPLS) neighborFor(p *device.Pipe) (mplsNeighbor, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.neighbors[p.UpperPeer.String()]
	if !ok {
		return mplsNeighbor{}, false
	}
	return *n, true
}

// InstallSwitchRule implements device.Module. Two shapes:
//
//   - edge ([up-pipe <=> down-pipe]): ingress NHLFE pushing the
//     neighbour's label (handle exposed to the IP module above) plus the
//     egress ILM delivering popped traffic to the customer gateway
//     (learned from the IP module above).
//   - transit ([down-pipe <=> down-pipe], Fig 8's router B): two
//     ILM->NHLFE swaps, one per direction.
func (m *MPLS) InstallSwitchRule(r *device.SwitchRuleInstance) (func(), error) {
	from, fromSide, ok1 := m.OwnPipe(r.Rule.From)
	to, toSide, ok2 := m.OwnPipe(r.Rule.To)
	switch {
	case !ok1 || !ok2:
		return nil, fmt.Errorf("%s: switch rule pipes not attached to this module", m.Ref())
	case fromSide == device.SideLower && toSide == device.SideUpper:
		return m.installEdge(from, to)
	case toSide == device.SideLower && fromSide == device.SideUpper:
		return m.installEdge(to, from)
	case fromSide == device.SideUpper && toSide == device.SideUpper:
		return m.installTransit(from, to)
	default:
		return nil, fmt.Errorf("%s: switch rule pipes not attached to this module", m.Ref())
	}
}

// ensureBase loads the MPLS kernel modules and sets the labelspace on an
// interface once.
func (m *MPLS) ensureBase(dev string) error {
	k := m.Svc.Kernel()
	m.mu.Lock()
	needProbe := !m.modprobed
	m.modprobed = true
	needSpace := !m.spacesSet[dev]
	m.spacesSet[dev] = true
	m.mu.Unlock()
	if needProbe {
		if _, err := k.ExecScript("modprobe mpls\nmodprobe mpls4"); err != nil {
			return err
		}
	}
	if needSpace {
		if _, err := k.Exec(fmt.Sprintf("mpls labelspace set dev %s labelspace 0", dev)); err != nil {
			return err
		}
	}
	return nil
}

// devUnder resolves the kernel interface below a down pipe.
func (m *MPLS) devUnder(p *device.Pipe) (string, error) {
	lower, ok := m.Svc.LocalModule(p.Lower.Module)
	if !ok {
		return "", fmt.Errorf("%s: no lower module %s", m.Ref(), p.Lower)
	}
	fields, err := lower.ListFields(string(p.ID))
	if err != nil {
		return "", err
	}
	if fields["dev"] == "" {
		return "", device.ErrPending
	}
	return fields["dev"], nil
}

func (m *MPLS) installEdge(up, dn *device.Pipe) (func(), error) {
	n, ok := m.neighborFor(dn)
	if !ok || !n.HavePeer {
		return nil, device.ErrPending
	}
	dev, err := m.devUnder(dn)
	if err != nil {
		return nil, err
	}
	// Customer delivery next hop comes from the IP module above, which
	// learns it from its own [pipe => customer, gateway] rule.
	upper, ok := m.Svc.LocalModule(up.Upper.Module)
	if !ok {
		return nil, fmt.Errorf("%s: no upper module %s", m.Ref(), up.Upper)
	}
	delivery, err := upper.ListFields("delivery")
	if err != nil {
		return nil, err
	}
	if delivery["via"] == "" || delivery["dev"] == "" {
		return nil, device.ErrPending
	}
	if err := m.ensureBase(dev); err != nil {
		return nil, err
	}
	k := m.Svc.Kernel()

	// Egress: pop our in-label, deliver to the customer gateway
	// (Fig 8a's "MPLS LSP for traffic from S2->S1" block).
	if _, err := k.Exec(fmt.Sprintf("mpls ilm add label gen %d labelspace 0", n.MyInLabel)); err != nil {
		return nil, err
	}
	out, err := k.Exec(fmt.Sprintf("mpls nhlfe add key 0 mtu 1500 instructions nexthop %s ipv4 %s",
		delivery["dev"], delivery["via"]))
	if err != nil {
		return nil, err
	}
	egressKey := extractNHLFEKey(out)
	if _, err := k.Exec(fmt.Sprintf("mpls xc add ilm label gen %d ilm labelspace 0 nhlfe key %s",
		n.MyInLabel, egressKey)); err != nil {
		return nil, err
	}

	// Ingress: NHLFE pushing the neighbour's label (Fig 8a's
	// "MPLS LSP for traffic from S1->S2" block). The IP module above
	// fetches the key via listFields("pipe:<up>") and emits the route.
	out, err = k.Exec(fmt.Sprintf("mpls nhlfe add key 0 mtu 1500 instructions push gen %d nexthop %s ipv4 %s",
		n.PeerInLabel, dev, n.PeerLinkAddr))
	if err != nil {
		return nil, err
	}
	inLabel, ingressKey := n.MyInLabel, extractNHLFEKey(out)
	upComponent := "pipe:" + string(up.ID)
	// Asked outside m.mu (the exchange's lock orders before the
	// module's); HavePeer above means the peer's label has arrived.
	pure := m.labels.PureResponder()
	m.mu.Lock()
	handleChanged := m.pushKey != ingressKey || m.pushVia != n.PeerLinkAddr.String()
	m.pushKey = ingressKey
	m.pushVia = n.PeerLinkAddr.String()
	undo := func() {
		k.DelILM(inLabel, 0)
		k.DelNHLFE(nhlfeKeyInt(egressKey))
		k.DelNHLFE(nhlfeKeyInt(ingressKey))
		m.mu.Lock()
		cleared := m.pushKey == ingressKey
		if cleared {
			m.pushKey, m.pushVia = "", ""
		}
		m.mu.Unlock()
		if cleared {
			// The exported handle is gone: fire §II-E triggers so the
			// NM learns any embedded copy (an IP route's NHLFE key) is
			// now dangling.
			m.Svc.FieldsChanged(m.Ref(), upComponent, map[string]string{})
		}
	}
	notify := pure && !m.notified
	if notify {
		m.notified = true
	}
	m.mu.Unlock()

	if notify {
		// Pure responder (the far end of the LSP): report establishment
		// to the NM — the single unsolicited "received" message in the
		// paper's Table VI accounting for MPLS/VLAN.
		_ = m.Svc.Notify(m.Ref(), "lsp-established", "egress configured")
	}
	if handleChanged {
		// Dependency maintenance (§II-E): the ingress handle consumers
		// embed (listFields("pipe:<up>")) has new values; fire any
		// installed triggers. FieldsChanged also kicks pending rules.
		m.Svc.FieldsChanged(m.Ref(), upComponent, map[string]string{
			"mpls-key": ingressKey, "via": n.PeerLinkAddr.String(),
		})
	} else {
		m.Svc.Kick()
	}
	return undo, nil
}

func (m *MPLS) installTransit(a, b *device.Pipe) (func(), error) {
	na, okA := m.neighborFor(a)
	nb, okB := m.neighborFor(b)
	if !okA || !okB || !na.HavePeer || !nb.HavePeer {
		return nil, device.ErrPending
	}
	devA, err := m.devUnder(a)
	if err != nil {
		return nil, err
	}
	devB, err := m.devUnder(b)
	if err != nil {
		return nil, err
	}
	if err := m.ensureBase(devA); err != nil {
		return nil, err
	}
	if err := m.ensureBase(devB); err != nil {
		return nil, err
	}
	k := m.Svc.Kernel()
	// Direction A->B: traffic from neighbour A arrives with our in-label
	// allocated for A, is swapped to B's in-label.
	swap := func(in, out mplsNeighbor, outDev string) (string, error) {
		if _, err := k.Exec(fmt.Sprintf("mpls ilm add label gen %d labelspace 0", in.MyInLabel)); err != nil {
			return "", err
		}
		o, err := k.Exec(fmt.Sprintf("mpls nhlfe add key 0 mtu 1500 instructions push gen %d nexthop %s ipv4 %s",
			out.PeerInLabel, outDev, out.PeerLinkAddr))
		if err != nil {
			return "", err
		}
		key := extractNHLFEKey(o)
		if _, err := k.Exec(fmt.Sprintf("mpls xc add ilm label gen %d ilm labelspace 0 nhlfe key %s",
			in.MyInLabel, key)); err != nil {
			return "", err
		}
		return key, nil
	}
	keyAB, err := swap(na, nb, devB)
	if err != nil {
		return nil, err
	}
	keyBA, err := swap(nb, na, devA)
	if err != nil {
		return nil, err
	}
	labA, labB := na.MyInLabel, nb.MyInLabel
	m.Svc.Kick()
	return func() {
		k.DelILM(labA, 0)
		k.DelILM(labB, 0)
		k.DelNHLFE(nhlfeKeyInt(keyAB))
		k.DelNHLFE(nhlfeKeyInt(keyBA))
	}, nil
}

// extractNHLFEKey pulls the 0x-prefixed key out of `mpls nhlfe add`
// output (the script does it with `grep key | cut -c 17-26`).
func extractNHLFEKey(out string) string {
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "key") && len(line) >= 26 {
			return line[16:26]
		}
	}
	return ""
}

// ListFields implements device.Module: the ingress handle for the IP
// module above.
func (m *MPLS) ListFields(component string) (map[string]string, error) {
	comp := strings.TrimPrefix(component, "pipe:")
	_, side, ok := m.OwnPipe(core.PipeID(comp))
	switch {
	case comp == "self" || ok && side == device.SideLower:
		m.mu.Lock()
		defer m.mu.Unlock()
		out := map[string]string{}
		if m.pushKey != "" {
			out["mpls-key"] = m.pushKey
			out["via"] = m.pushVia
		}
		return out, nil
	case ok:
		return map[string]string{}, nil
	}
	return nil, fmt.Errorf("%s: unknown component %q", m.Ref(), component)
}

// SelfTest implements device.Module: verifies the neighbour's link
// address answers probes.
func (m *MPLS) SelfTest(pipe core.PipeID) (bool, string) {
	p, side, ok := m.OwnPipe(pipe)
	if !ok || side != device.SideUpper {
		return false, fmt.Sprintf("no down pipe %s", pipe)
	}
	n, okN := m.neighborFor(p)
	if !okN || !n.HavePeer {
		return false, "labels not negotiated"
	}
	return probe(m.Svc.Kernel(), netip.Addr{}, n.PeerLinkAddr, "neighbour %s reachable", "neighbour %s unreachable")
}

package modules

import (
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"

	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
)

// IP models an IPv4 module. A device may host several (the paper's router
// A has a customer-facing virtual router g and an ISP-facing h); each owns
// its own policy-routing state in the shared kernel. The NM assigns
// addresses and knows address domains (§III-C); the module derives
// everything else: tunnel endpoints and next hops through conveyMessage
// exchanges with peer IP modules, device handles (tunnel interface names,
// MPLS keys) from the modules below it.
type IP struct {
	device.BaseModule
	addrExchange *device.Exchange // "ip-exchange" with peer IP modules

	mu     sync.Mutex
	domain string
	// addrs binds kernel interfaces to this module's assigned addresses.
	addrs map[string]netip.Prefix // guarded by mu

	// peerAddrs caches addresses learned through ip-exchange conveys,
	// keyed by peer module ref string.
	peerAddrs map[string]netip.Addr // guarded by mu

	// delivery is the resolved customer-delivery next hop ([pipe =>
	// customer-pipe, gateway] rules); MPLS egress modules query it.
	delivery map[string]string // guarded by mu

	// extraConnectable extends the advertised connectable lists beyond
	// the paper's Table IV defaults (e.g. IPSec for the §II-F scenario).
	extraConnectable []core.ModuleName

	// filters holds the installed filters by id, for §II-E re-resolution.
	filters map[string]*device.FilterRuleInstance // guarded by mu
}

// ipExchange is the convey body for address exchanges between peer IP
// modules (the paper's Fig 3 "IP-address of tunnel end-points" and
// "IP-address of next-hop" steps).
type ipExchange struct {
	Addr netip.Addr `json:"addr"`
}

// NewIP creates an IP module in the given address domain with interface
// address bindings (NM-assigned, §III-C). The bindings are applied to the
// kernel immediately.
func NewIP(svc device.Services, id core.ModuleID, domain string, addrs map[string]netip.Prefix) (*IP, error) {
	m := &IP{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameIPv4, svc.Device(), id),
			Svc:    svc,
		},
		domain:    domain,
		addrs:     make(map[string]netip.Prefix),
		peerAddrs: make(map[string]netip.Addr),
		delivery:  make(map[string]string),
		filters:   make(map[string]*device.FilterRuleInstance),
	}
	for iface, p := range addrs {
		// NM-assigned interface addresses are device-lifetime state:
		// they outlive every rule and pipe this module will manage.
		if err := svc.Kernel().AddAddr(iface, p); err != nil {
			return nil, err
		}
		m.addrs[iface] = p
	}
	m.addrExchange = device.Pairwise("ip-exchange", m.offer, m.accept)
	svc.Declare(m.Ref(), m.addrExchange)
	return m, nil
}

// Domain returns the module's address domain.
func (m *IP) Domain() string { return m.domain }

// PrimaryAddr returns the module's first assigned address (deterministic
// by interface name order).
func (m *IP) PrimaryAddr() (netip.Addr, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	best := ""
	for iface := range m.addrs {
		if best == "" || iface < best {
			best = iface
		}
	}
	if best == "" {
		return netip.Addr{}, false
	}
	return m.addrs[best].Addr(), true
}

// AllowConnectable extends the module's advertised connectable lists
// (used by deployments with additional protocols such as IPSec).
func (m *IP) AllowConnectable(names ...core.ModuleName) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.extraConnectable = append(m.extraConnectable, names...)
}

// Abstraction implements device.Module (Table IV's IP rows).
func (m *IP) Abstraction() core.Abstraction {
	m.mu.Lock()
	extra := append([]core.ModuleName(nil), m.extraConnectable...)
	m.mu.Unlock()
	up := append([]core.ModuleName{core.NameIPv4, core.NameGRE}, extra...)
	down := append([]core.ModuleName{
		core.NameIPv4, core.NameGRE, core.NameMPLS, core.NameETH,
	}, extra...)
	return core.Abstraction{
		Ref:      m.Ref(),
		Kind:     core.KindData,
		Up:       core.PipeSpec{Connectable: up},
		Down:     core.PipeSpec{Connectable: down},
		Peerable: []core.ModuleName{core.NameIPv4},
		Switch: core.SwitchSpec{
			Modes: []core.SwitchMode{
				core.SwDownUp, core.SwUpDown, core.SwDownDown, core.SwUpUp,
			},
			StateSource: core.StateLocal,
			// Transit switching between subnets the module is not
			// directly connected to needs reachability state it cannot
			// derive from its own peer exchanges; a routing control
			// module (§II-F) advertising ProvidesState for the same
			// token supplies it. The NM matches the two by token
			// equality, exactly like IPSec's keying dependency on IKE.
			StateDependency: &core.Dependency{
				Kind:        core.DepExternalState,
				Token:       IPRouteToken,
				Description: "transit routes from a routing control module (IGP)",
			},
		},
		Filter: core.FilterSpec{
			Classifiers: []core.FilterClassifier{
				core.FilterByModule, core.FilterByDevice, core.FilterByModuleType,
			},
			Locations: []core.PipeEnd{core.EndUp, core.EndDown},
		},
		PerfReporting: []string{"rx-packets/pipe", "tx-packets/pipe"},
		Attributes: map[string]string{
			"address-domain": m.domain,
			// The paper notes the IP module relies on ARP for IP-to-MAC
			// mapping and exposes that in its abstraction (§III-B).
			"resolves-peers-via": "ARP",
		},
	}
}

// Actual implements device.Module.
func (m *IP) Actual() core.ModuleState {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := core.ModuleState{Ref: m.Ref(), LowLevel: map[string]string{}}
	for iface, p := range m.addrs {
		st.LowLevel["addr:"+iface] = p.String()
	}
	for peer, a := range m.peerAddrs {
		st.LowLevel["peer-addr:"+peer] = a.String()
	}
	return st
}

// PipeAttached implements device.Module: asks for the address exchange
// with the peer IP module — 2 messages per pair, the paper's Table VI
// accounting (2 sent, 2 received at the NM per pair).
func (m *IP) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	var peer core.ModuleRef
	switch side {
	case device.SideLower:
		// Our up pipe: something above us (GRE, or IP for IP-IP). The
		// peer is the far IP module — the tunnel's other endpoint.
		peer = p.LowerPeer
	case device.SideUpper:
		// Our down pipe. Exchange only with a next-hop IP peer across an
		// ETH hop (Fig 3's "IP-address of next-hop" step).
		if p.Lower.Name != core.NameETH {
			return nil
		}
		peer = p.UpperPeer
	}
	if peer.IsZero() || peer.Name != core.NameIPv4 {
		return nil
	}
	m.addrExchange.With(peer)
	return nil
}

// offer is the ip-exchange offer: our address facing the peer once its
// own is known (a responder's reply), else the primary one.
func (m *IP) offer(peer core.ModuleRef) (ipExchange, error) {
	if a, ok := m.peerAddr(peer); ok {
		if my, ok := m.addrFacing(a); ok {
			return ipExchange{my}, nil
		}
	}
	my, ok := m.PrimaryAddr()
	if !ok {
		return ipExchange{}, device.ErrPending
	}
	return ipExchange{my}, nil
}

// accept records the peer's address.
func (m *IP) accept(peer core.ModuleRef, x ipExchange) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.peerAddrs[peer.String()] = x.Addr
	return nil
}

// addrFacing picks this module's address on the subnet containing a.
func (m *IP) addrFacing(a netip.Addr) (netip.Addr, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, p := range m.addrs {
		if p.Masked().Contains(a) {
			return p.Addr(), true
		}
	}
	return netip.Addr{}, false
}

// peerAddr fetches a learned peer address.
func (m *IP) peerAddr(peer core.ModuleRef) (netip.Addr, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.peerAddrs[peer.String()]
	return a, ok
}

// ListFields implements device.Module (§II-E): resolves pipes and peers
// to concrete fields.
func (m *IP) ListFields(component string) (map[string]string, error) {
	switch {
	case component == "self":
		out := map[string]string{"domain": m.domain}
		if a, ok := m.PrimaryAddr(); ok {
			out["address"] = a.String()
		}
		return out, nil
	case component == "delivery":
		m.mu.Lock()
		defer m.mu.Unlock()
		out := map[string]string{}
		for k, v := range m.delivery {
			out[k] = v
		}
		return out, nil
	case len(component) > 5 && component[:5] == "peer:":
		ref, err := core.ParseModuleRef(component[5:])
		if err != nil {
			return nil, err
		}
		out := map[string]string{}
		if a, ok := m.PrimaryAddr(); ok {
			out["local"] = a.String()
		}
		if a, ok := m.peerAddr(ref); ok {
			out["remote"] = a.String()
		}
		return out, nil
	default:
		peer, ok := m.pipePeer(core.PipeID(component))
		if !ok {
			return nil, fmt.Errorf("%s: unknown component %q", m.Ref(), component)
		}
		out := map[string]string{}
		if a, ok := m.PrimaryAddr(); ok {
			out["address"] = a.String()
		}
		if !peer.IsZero() {
			out["peer"] = peer.String()
		}
		return out, nil
	}
}

// pipePeer returns this module's remote peer across one of its pipes.
func (m *IP) pipePeer(id core.PipeID) (core.ModuleRef, bool) {
	p, side, ok := m.OwnPipe(id)
	switch {
	case !ok:
		return core.ModuleRef{}, false
	case side == device.SideUpper:
		return p.UpperPeer, true
	}
	return p.LowerPeer, true
}

// lowerHandle asks the module below a pipe how to send traffic into it:
// {"dev": iface} for ETH and GRE, {"mpls-key", "via"} for MPLS.
func (m *IP) lowerHandle(p *device.Pipe) (map[string]string, error) {
	lower, ok := m.Svc.LocalModule(p.Lower.Module)
	if !ok {
		return nil, fmt.Errorf("%s: no lower module %s", m.Ref(), p.Lower)
	}
	return lower.ListFields("pipe:" + string(p.ID))
}

// InstallSwitchRule implements device.Module. Three shapes arise in the
// paper's scripts:
//
//   - classified ingress ([P0, dst:C1-S2 => P1], Fig 7b/8b (3)): route the
//     customer prefix into the pipe below — a policy table + default route
//     for GRE/IP tunnels, an `mpls` route for MPLS.
//   - classified egress ([P1 => P0, gateway], Fig 7b/8b (4)): deliver
//     tunnel traffic to the customer gateway.
//   - plain bidirectional (Fig 2's (5): switch(c, P2, P3)): the outer
//     tunnel route `ip route add to <peer> via <next-hop> dev <iface>`.
func (m *IP) InstallSwitchRule(r *device.SwitchRuleInstance) (func(), error) {
	from, ok1 := m.Svc.PipeByID(r.Rule.From)
	to, ok2 := m.Svc.PipeByID(r.Rule.To)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%s: switch rule references unknown pipes", m.Ref())
	}
	var (
		undo func()
		err  error
	)
	switch {
	case r.Rule.Match != nil:
		undo, err = m.installClassifiedIngress(r, from, to)
	case r.Rule.Via != "":
		undo, err = m.installClassifiedEgress(r, from, to)
	default:
		undo, err = m.installTransit(r, from, to)
	}
	if err != nil {
		return nil, err
	}
	m.Svc.Kick()
	return undo, nil
}

// installClassifiedIngress handles [fromPipe, dst:<domain> => toPipe].
// The returned undo removes the routes/tables it installed.
func (m *IP) installClassifiedIngress(r *device.SwitchRuleInstance, from, to *device.Pipe) (func(), error) {
	if r.MatchResolved == "" {
		return nil, fmt.Errorf("%s: classifier %v not resolved by NM", m.Ref(), r.Rule.Match)
	}
	prefix, err := netip.ParsePrefix(r.MatchResolved)
	if err != nil {
		return nil, fmt.Errorf("%s: bad resolved classifier %q: %v", m.Ref(), r.MatchResolved, err)
	}
	handle, err := m.lowerHandle(to)
	if err != nil || (handle["dev"] == "" && handle["mpls-key"] == "") {
		return nil, device.ErrPending
	}
	// Record the exported handle this rule embeds (the MPLS NHLFE key;
	// ETH and GRE export none) so showActual reports it next to the
	// To pipe's, and the NM can tell it went stale (§II-E).
	if lower, _ := m.Svc.LocalModule(to.Lower.Module); len(lower.Abstraction().HandleFields) > 0 {
		r.HandleResolved = core.CanonicalHandle(handle)
	}
	k := m.Svc.Kernel()
	// A virtual router forwards by definition (Fig 7a/8a command
	// "echo 1 > /proc/sys/net/ipv4/ip_forward").
	if !k.IPForward() {
		if _, err := k.Exec("echo 1 > /proc/sys/net/ipv4/ip_forward"); err != nil {
			return nil, err
		}
	}
	switch {
	case handle["mpls-key"] != "":
		// MPLS below: one route in main, exactly as Fig 8a.
		cmd := fmt.Sprintf("ip route add %s via %s mpls %s", prefix, handle["via"], handle["mpls-key"])
		if _, err := k.Exec(cmd); err != nil {
			return nil, err
		}
		return func() {
			k.DelRouteWhere("main", func(rt kernel.Route) bool {
				return rt.MPLSKey > 0 && rt.Dst == prefix
			})
		}, nil
	default:
		// GRE (or IP-IP) tunnel below: policy table + default route, as
		// Fig 7a lines (5)-(7).
		table := fmt.Sprintf("tun-%s-%s", r.Rule.From, r.Rule.To)
		num := 202 + k.NumberedTables()
		script := fmt.Sprintf("echo %d %s >> /etc/iproute2/rt_tables\nip rule add to %s table %s\nip route add default dev %s table %s",
			num, table, prefix, table, handle["dev"], table)
		if _, err := k.ExecScript(script); err != nil {
			return nil, err
		}
		return func() { k.DropTable(table) }, nil
	}
}

// installClassifiedEgress handles [fromPipe => toPipe, gateway]: deliver
// decapsulated traffic to the customer gateway out of toPipe. The
// returned undo removes the policy table and the delivery record.
func (m *IP) installClassifiedEgress(r *device.SwitchRuleInstance, from, to *device.Pipe) (func(), error) {
	if r.ViaResolved == "" {
		return nil, fmt.Errorf("%s: gateway token %q not resolved by NM", m.Ref(), r.Rule.Via)
	}
	gw, err := netip.ParseAddr(r.ViaResolved)
	if err != nil {
		return nil, fmt.Errorf("%s: bad resolved gateway %q: %v", m.Ref(), r.ViaResolved, err)
	}
	// The customer-facing pipe must sit on ETH; find its interface.
	outHandle, err := m.lowerHandle(to)
	if err != nil || outHandle["dev"] == "" {
		return nil, device.ErrPending
	}
	dev := outHandle["dev"]
	k := m.Svc.Kernel()

	// Record the delivery next hop for co-located egress modules (MPLS
	// pops straight to the customer gateway).
	m.mu.Lock()
	published := m.delivery["via"] == gw.String() && m.delivery["dev"] == dev
	m.delivery["via"] = gw.String()
	m.delivery["dev"] = dev
	m.mu.Unlock()
	if !published {
		// Only a changed record is news: a retry of this rule while it
		// waits on the module below must not kick the MA again, or every
		// attempt would ask for another.
		m.Svc.FieldsChanged(m.Ref(), "delivery", map[string]string{"via": gw.String(), "dev": dev})
	}
	undoDelivery := func() {
		m.mu.Lock()
		delete(m.delivery, "via")
		delete(m.delivery, "dev")
		m.mu.Unlock()
	}

	// Note: on the pending paths below, the delivery record stays
	// published — a co-located MPLS module consumes it to configure its
	// egress, which in turn supplies the mpls-key this rule is waiting
	// for. Teardown only happens through the returned undo.
	inHandle, err := m.lowerHandle(from)
	if err != nil {
		return nil, device.ErrPending
	}
	if inHandle["mpls-key"] != "" {
		// MPLS handles egress delivery in its own NHLFE; nothing more
		// to install here.
		return undoDelivery, nil
	}
	if inHandle["dev"] == "" {
		// The module below has not derived its device handle yet (the
		// GRE tunnel is still negotiating, or the MPLS key will appear
		// once the LSR is configured): retry later.
		return nil, device.ErrPending
	}
	// Tunnel (GRE) ingress from `from`: policy-route by input interface,
	// as Fig 7a lines (8)-(10).
	table := fmt.Sprintf("tun-%s-%s", r.Rule.From, r.Rule.To)
	num := 202 + k.NumberedTables()
	script := fmt.Sprintf("echo %d %s >> /etc/iproute2/rt_tables\nip rule add iff %s table %s\nip route add default via %s dev %s table %s",
		num, table, inHandle["dev"], table, gw, dev, table)
	if _, err := k.ExecScript(script); err != nil {
		return nil, err
	}
	return func() {
		k.DropTable(table)
		undoDelivery()
	}, nil
}

// installTransit handles the plain bidirectional rule: route traffic for
// the up-pipe's remote peer via the next-hop learned across the down
// pipe (Fig 2 command (5) -> `ip route add to 204.9.169.1 via 204.9.168.1
// dev eth1`).
func (m *IP) installTransit(r *device.SwitchRuleInstance, from, to *device.Pipe) (func(), error) {
	// Identify which pipe is our up pipe (tunnel above) and which is the
	// down pipe (toward the wire).
	up, down := from, to
	if up.Lower.Module != m.Ref().Module {
		up, down = down, up
	}
	if up.Lower.Module != m.Ref().Module || down.Upper.Module != m.Ref().Module {
		// Neither orientation fits: treat as forwarding enable only.
		m.Svc.Kernel().SetIPForward(true)
		return nil, nil
	}
	// Destination: our peer on the up pipe (the tunnel's far endpoint).
	peer := up.LowerPeer
	if peer.IsZero() {
		m.Svc.Kernel().SetIPForward(true)
		return nil, nil
	}
	dst, ok := m.peerAddr(peer)
	if !ok {
		return nil, device.ErrPending
	}
	// Next hop: our peer across the down pipe, if it is a remote IP
	// module; a directly-connected peer needs no via.
	handle, err := m.lowerHandle(down)
	if err != nil || handle["dev"] == "" {
		return nil, device.ErrPending
	}
	nhPeer := down.UpperPeer
	var cmd string
	if !nhPeer.IsZero() && nhPeer.Name == core.NameIPv4 {
		nh, ok := m.peerAddr(nhPeer)
		if !ok {
			return nil, device.ErrPending
		}
		cmd = fmt.Sprintf("ip route add to %s via %s dev %s", dst, nh, handle["dev"])
	} else {
		cmd = fmt.Sprintf("ip route add to %s dev %s", dst, handle["dev"])
	}
	// Only a rule that is about to install touches the kernel: a pending
	// rule is retried, and each retry must leave the kernel as it was.
	k := m.Svc.Kernel()
	if _, err := k.Exec("echo 1 > /proc/sys/net/ipv4/ip_forward"); err != nil {
		return nil, err
	}
	if _, err := k.Exec(cmd); err != nil {
		return nil, err
	}
	dstPrefix := netip.PrefixFrom(dst, dst.BitLen())
	dev := handle["dev"]
	return func() {
		k.DelRouteWhere("main", func(rt kernel.Route) bool {
			return rt.Dst == dstPrefix && rt.Dev == dev
		})
	}, nil
}

// InstallFilterRule implements device.Module (§II-E): resolve the abstract
// endpoints via listFieldsAndValues, then install a concrete kernel
// filter.
func (m *IP) InstallFilterRule(r *device.FilterRuleInstance) (func(), error) {
	f, resolved, err := m.resolveFilter(r)
	if err != nil {
		return nil, err
	}
	k := m.Svc.Kernel()
	k.AddFilter(f)
	r.ResolvedFields = resolved
	r.KernelID = f.ID
	m.mu.Lock()
	m.filters[r.ID] = r
	m.mu.Unlock()
	return func() {
		m.mu.Lock()
		delete(m.filters, r.ID)
		m.mu.Unlock()
		k.DelFilter(f.ID)
	}, nil
}

// resolveFilter turns an abstract filter into a kernel filter, resolving
// its endpoint modules to concrete fields.
func (m *IP) resolveFilter(r *device.FilterRuleInstance) (kernel.FilterEntry, map[string]string, error) {
	f := kernel.FilterEntry{ID: r.ID, Action: r.Rule.Action}
	resolved := map[string]string{}
	if r.Rule.FromModule != nil {
		fields, err := m.Svc.QueryFields(m.Ref(), *r.Rule.FromModule, "self")
		if err != nil {
			return f, nil, err
		}
		if a := fields["address"]; a != "" {
			addr, err := netip.ParseAddr(a)
			if err != nil {
				return f, nil, fmt.Errorf("%s: filter source address %q: %v", m.Ref(), a, err)
			}
			f.SrcPrefix = netip.PrefixFrom(addr, addr.BitLen())
			resolved["src"] = a
		}
	}
	if r.Rule.ToModule != nil {
		fields, err := m.Svc.QueryFields(m.Ref(), *r.Rule.ToModule, "self")
		if err != nil {
			return f, nil, err
		}
		if a := fields["address"]; a != "" {
			addr, err := netip.ParseAddr(a)
			if err != nil {
				return f, nil, fmt.Errorf("%s: filter destination address %q: %v", m.Ref(), a, err)
			}
			f.DstPrefix = netip.PrefixFrom(addr, addr.BitLen())
			resolved["dst"] = a
		}
		if p := fields["port"]; p != "" {
			var port uint16
			if _, err := fmt.Sscanf(p, "%d", &port); err != nil {
				return f, nil, fmt.Errorf("%s: filter port %q: %v", m.Ref(), p, err)
			}
			f.DstPort, f.HasPort = port, true
			resolved["dst-port"] = p
		}
	}
	return f, resolved, nil
}

// ReResolveFilter re-resolves an installed filter after a dependency
// trigger fired (§II-E dependency maintenance) and swaps its kernel
// filter for one built from the fresh fields. showActual keeps the
// resolution the MA recorded at install.
func (m *IP) ReResolveFilter(id string) error {
	m.mu.Lock()
	inst := m.filters[id]
	m.mu.Unlock()
	if inst == nil {
		return fmt.Errorf("%s: no filter %q", m.Ref(), id)
	}
	f, _, err := m.resolveFilter(inst)
	if err != nil {
		return err
	}
	k := m.Svc.Kernel()
	k.DelFilter(id)
	k.AddFilter(f)
	return nil
}

// SelfTest implements device.Module: probe the peer across a pipe
// (§II-D.2 — "errors like path MTU problems are detected when NM asks the
// IP module to self test its connectivity to its peer").
func (m *IP) SelfTest(pipe core.PipeID) (bool, string) {
	peer, ok := m.pipePeer(pipe)
	if !ok {
		return false, fmt.Sprintf("no pipe %s", pipe)
	}
	if peer.IsZero() {
		return false, "pipe has no known peer"
	}
	dst, ok := m.peerAddr(peer)
	if !ok {
		return false, fmt.Sprintf("peer %s address unknown", peer)
	}
	src, _ := m.PrimaryAddr()
	return probe(m.Svc.Kernel(), src, dst, "probe to %s answered", "probe to %s unanswered")
}

// probeTokens numbers the modules' self-test probes.
var probeTokens atomic.Uint32

// probe sends a probe echo from src (zero: the kernel picks) to dst and
// reports as SelfTest does: whether the reply arrived, in the words of
// answered or unanswered about dst.
func probe(k *kernel.Kernel, src, dst netip.Addr, answered, unanswered string) (bool, string) {
	token := 0xC0000000 + probeTokens.Add(1)
	if err := k.SendProbeFrom(src, dst, token); err != nil {
		return false, err.Error()
	}
	if k.AwaitProbeReply(token) {
		return true, fmt.Sprintf(answered, dst)
	}
	return false, fmt.Sprintf(unanswered, dst)
}

// Package kernel is the per-device "Linux/CatOS kernel" of the
// reproduction: a byte-level software router and L2 switch that the
// CONMan protocol modules wrap, exactly as the paper's modules wrap the
// Linux 2.6.14 kernel implementations (§III).
//
// It implements Ethernet I/O with ARP (including proxy ARP), IPv4
// forwarding with policy routing (multiple tables selected by `ip rule`
// entries), GRE-IP tunnels with key/checksum/sequence options, MPLS
// label switching (labelspaces, ILM, NHLFE, cross-connects), 802.1Q
// VLAN bridging with QinQ tunnel ports, packet filters, UDP sockets and
// a probe responder for module self-tests.
//
// State is mutated two ways: programmatically (by protocol modules) and
// through Exec, which parses the same device-level command dialects the
// paper prints in Figs 7(a), 8(a) and 9(a) (`ip tunnel add …`,
// `mpls nhlfe add …`, CatOS `set vlan …`). Both paths converge on the
// same structures, so a configuration is "real" regardless of who wrote
// it — the data plane then forwards real encoded packets.
package kernel

import (
	"fmt"
	"net/netip"
	"sort"
	"sync"

	"conman/internal/core"
	"conman/internal/packet"
)

// Role selects the device's forwarding personality.
type Role uint8

const (
	// RoleRouter devices terminate Ethernet at each port and route IPv4.
	RoleRouter Role = iota
	// RoleSwitch devices bridge frames between ports, VLAN-aware.
	RoleSwitch
)

// IfaceKind distinguishes interface flavours.
type IfaceKind uint8

const (
	IfacePhysical IfaceKind = iota
	IfaceGRE
	IfaceLAN // local stub network (customer site hosts); no port
)

// Iface is one kernel interface.
type Iface struct {
	Name       string
	Kind       IfaceKind
	Addrs      []netip.Prefix
	Tunnel     *GRETunnel // for IfaceGRE
	LabelSpace int        // MPLS labelspace; -1 when unset

	RxPkts, TxPkts uint64
}

// GRETunnel is the state of one GRE-IP tunnel interface.
type GRETunnel struct {
	Name          string
	Local, Remote netip.Addr
	HasIKey       bool
	IKey          uint32
	HasOKey       bool
	OKey          uint32
	ICsum, OCsum  bool
	ISeq, OSeq    bool

	txSeq uint32
	rxSeq uint32
	rxAny bool
}

// Route is one routing table entry.
type Route struct {
	Dst     netip.Prefix // invalid prefix means default (0.0.0.0/0)
	Via     netip.Addr   // optional gateway
	Dev     string       // optional egress device
	MPLSKey int          // NHLFE key; -1 when none
}

func (r Route) dst() netip.Prefix {
	if r.Dst.IsValid() {
		return r.Dst
	}
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{}), 0)
}

// RouteTable is a named routing table with longest-prefix-match lookup.
type RouteTable struct {
	Name   string
	Routes []Route
}

func (t *RouteTable) lookup(dst netip.Addr) (Route, bool) {
	best := -1
	var out Route
	for _, r := range t.Routes {
		p := r.dst()
		if p.Contains(dst) && p.Bits() > best {
			best = p.Bits()
			out = r
		}
	}
	return out, best >= 0
}

// PolicyRule is one `ip rule` entry: select Table when the packet matches.
type PolicyRule struct {
	To    netip.Prefix // match on destination, when valid
	IIF   string       // match on input interface, when non-empty
	Table string
}

// FilterEntry is one packet filter. Nil/invalid fields are wildcards.
type FilterEntry struct {
	ID        string
	SrcPrefix netip.Prefix
	DstPrefix netip.Prefix
	Proto     packet.IPProto
	HasProto  bool
	DstPort   uint16
	HasPort   bool
	Action    core.FilterAction
	Hits      uint64
}

func (f *FilterEntry) matches(ip packet.IPv4, payload []byte) bool {
	if f.SrcPrefix.IsValid() && !f.SrcPrefix.Contains(ip.Src) {
		return false
	}
	if f.DstPrefix.IsValid() && !f.DstPrefix.Contains(ip.Dst) {
		return false
	}
	if f.HasProto && ip.Proto != f.Proto {
		return false
	}
	if f.HasPort {
		if ip.Proto != packet.ProtoUDP {
			return false
		}
		u, _, _, err := packet.DecodeUDP(payload)
		if err != nil || u.Dst != f.DstPort {
			return false
		}
	}
	return true
}

// ilmKey indexes incoming label mappings.
type ilmKey struct {
	Label      uint32
	LabelSpace int
}

// NHLFE is a next-hop label forwarding entry.
type NHLFE struct {
	Key        int
	MTU        int
	PushLabels []uint32
	NexthopDev string
	NexthopIP  netip.Addr
}

type mplsState struct {
	loaded  bool
	ilm     map[ilmKey]bool // declared ILMs
	xc      map[ilmKey]int  // ILM -> NHLFE key
	nhlfe   map[int]*NHLFE
	nextKey int
}

// UDPHandler receives datagrams delivered to a registered UDP port.
type UDPHandler func(src netip.Addr, srcPort uint16, payload []byte)

// ProbeEvent records a probe echo or reply seen by the kernel.
type ProbeEvent struct {
	Op    uint8
	Token uint32
	Src   netip.Addr
	Dst   netip.Addr
}

// EtherTypeHandler receives raw frames of a registered EtherType before
// any bridging or routing (used by the self-bootstrapping management
// channel).
type EtherTypeHandler func(port string, eth packet.Ethernet, payload []byte)

type pendingPkt struct {
	etherType packet.EtherType
	data      []byte
}

// Kernel is the device's forwarding engine and configuration store.
type Kernel struct {
	dev     core.DeviceID
	role    Role
	send    func(port string, frame []byte) error
	portMAC func(port string) (packet.MAC, bool)

	mu         sync.Mutex
	ifaces     map[string]*Iface
	ipForward  bool
	proxyARP   bool
	rtNames    map[int]string
	tables     map[string]*RouteTable
	rules      []PolicyRule
	arp        map[netip.Addr]packet.MAC
	arpPending map[netip.Addr][]pendingPkt
	mpls       mplsState
	bridge     bridgeState
	filters    []*FilterEntry
	udp        map[uint16]UDPHandler
	ethHandler map[packet.EtherType]EtherTypeHandler
	modules    map[string]bool // `insmod`/`modprobe` flags
	probes     []ProbeEvent
	// awaited holds the tokens AwaitProbeReply calls are waiting on (one
	// per concurrent waiter) and whether the reply came: the probe log is
	// bounded, so under enough other traffic a reply can arrive and be
	// evicted before its waiter looks again.
	awaited map[uint32]bool
	execLog []string

	// OnProbe, when set, is invoked for every probe echo or reply the
	// kernel delivers locally (module self-tests subscribe here).
	OnProbe func(ev ProbeEvent)

	// Quiesce, when set, blocks until the data plane the kernel is wired
	// to has delivered every frame in flight (netsim's Network.Flush).
	// AwaitProbeReply uses it as the negative bound of a self-test: a
	// reply still missing once the network is quiet is never coming.
	// Set before traffic starts; it must not be called from inside a
	// frame handler.
	Quiesce func()
}

// probeLogMax bounds the probe event log: once it is reached the older
// half is dropped, so a long-running kernel keeps the recent window
// (what read-after-send checks look at) instead of every probe ever.
const probeLogMax = 4096

// maxEncapDepth bounds recursive encapsulation/decapsulation.
const maxEncapDepth = 10

// originTTL is the TTL of locally originated IPv4 packets (and GRE
// outer headers). Routers originate at the protocol maximum rather than
// the host default of 64 so the scale chains forward end-to-end: a
// linear topology of n routers needs n-1 forwarding hops, and the IGP
// scenarios run at n=128.
const originTTL = 255

// New creates a kernel for a device. send transmits a frame out of a
// physical port; portMAC resolves a port's MAC address.
func New(dev core.DeviceID, role Role, send func(port string, frame []byte) error, portMAC func(port string) (packet.MAC, bool)) *Kernel {
	k := &Kernel{
		dev:        dev,
		role:       role,
		send:       send,
		portMAC:    portMAC,
		ifaces:     make(map[string]*Iface),
		rtNames:    map[int]string{254: "main"},
		tables:     map[string]*RouteTable{"main": {Name: "main"}},
		arp:        make(map[netip.Addr]packet.MAC),
		arpPending: make(map[netip.Addr][]pendingPkt),
		udp:        make(map[uint16]UDPHandler),
		awaited:    make(map[uint32]bool),
		ethHandler: make(map[packet.EtherType]EtherTypeHandler),
		modules:    make(map[string]bool),
	}
	k.mpls = mplsState{ilm: make(map[ilmKey]bool), xc: make(map[ilmKey]int), nhlfe: make(map[int]*NHLFE), nextKey: 1}
	k.bridge = newBridgeState()
	return k
}

// Device returns the owning device id.
func (k *Kernel) Device() core.DeviceID { return k.dev }

// PortMAC resolves a physical port's MAC address.
func (k *Kernel) PortMAC(port string) (packet.MAC, bool) { return k.portMAC(port) }

// Role returns the forwarding personality.
func (k *Kernel) Role() Role { return k.role }

// ---------------------------------------------------------------------------
// Interface management

// AddPhysical registers a physical port as a routed/bridged interface.
func (k *Kernel) AddPhysical(name string) *Iface {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := &Iface{Name: name, Kind: IfacePhysical, LabelSpace: -1}
	k.ifaces[name] = i
	return i
}

// AddLAN registers a local stub network (a customer site) with an address.
func (k *Kernel) AddLAN(name string, addr netip.Prefix) *Iface {
	k.mu.Lock()
	defer k.mu.Unlock()
	i := &Iface{Name: name, Kind: IfaceLAN, Addrs: []netip.Prefix{addr}, LabelSpace: -1}
	k.ifaces[name] = i
	k.addConnectedRoute(name, addr)
	return i
}

// addConnectedRoute mirrors Linux: assigning a subnet address installs a
// connected route in main. Caller holds k.mu.
func (k *Kernel) addConnectedRoute(iface string, p netip.Prefix) {
	if p.IsSingleIP() {
		return
	}
	t := k.tables["main"]
	t.Routes = append(t.Routes, Route{Dst: p.Masked(), Dev: iface, MPLSKey: -1})
}

// Iface returns an interface by name.
func (k *Kernel) Iface(name string) (*Iface, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	i, ok := k.ifaces[name]
	return i, ok
}

// Ifaces returns interface names, sorted.
func (k *Kernel) Ifaces() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	names := make([]string, 0, len(k.ifaces))
	for n := range k.ifaces {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// AddAddr assigns an address (with prefix) to an interface.
func (k *Kernel) AddAddr(iface string, p netip.Prefix) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	i, ok := k.ifaces[iface]
	if !ok {
		return fmt.Errorf("kernel[%s]: no interface %q", k.dev, iface)
	}
	i.Addrs = append(i.Addrs, p)
	k.addConnectedRoute(iface, p)
	return nil
}

// AddrOf returns the first address assigned to an interface.
func (k *Kernel) AddrOf(iface string) (netip.Addr, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	i, ok := k.ifaces[iface]
	if !ok || len(i.Addrs) == 0 {
		return netip.Addr{}, false
	}
	return i.Addrs[0].Addr(), true
}

// SetIPForward enables or disables IPv4 forwarding.
func (k *Kernel) SetIPForward(on bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ipForward = on
}

// IPForward reports whether forwarding is enabled.
func (k *Kernel) IPForward() bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.ipForward
}

// SetProxyARP makes the kernel answer ARP requests for any address it has
// a route to (Linux's proxy_arp=1); customer edge routers use it so the
// ISP's on-link default routes resolve (§III-C today-scripts).
func (k *Kernel) SetProxyARP(on bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.proxyARP = on
}

func (k *Kernel) isLocal(a netip.Addr) bool {
	for _, i := range k.ifaces {
		for _, p := range i.Addrs {
			if p.Addr() == a {
				return true
			}
		}
	}
	return false
}

// IsLocalAddr reports whether the address is assigned to this device.
func (k *Kernel) IsLocalAddr(a netip.Addr) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.isLocal(a)
}

// IfaceForSubnet returns the interface (and our address on it) whose
// subnet contains a — how a module answers "which of my addresses faces
// this neighbour".
func (k *Kernel) IfaceForSubnet(a netip.Addr) (iface string, self netip.Addr, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	i, p, found := k.ifaceForSubnet(a)
	if !found {
		return "", netip.Addr{}, false
	}
	return i.Name, p.Addr(), true
}

// NumberedTables counts the policy tables registered beyond "main"; IP
// modules use it to pick the next rt_tables number (202, 203, ... as in
// Fig 7a).
func (k *Kernel) NumberedTables() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	n := 0
	for num := range k.rtNames {
		if num != 254 {
			n++
		}
	}
	return n
}

// ifaceForSubnet returns the interface whose subnet contains a.
func (k *Kernel) ifaceForSubnet(a netip.Addr) (*Iface, netip.Prefix, bool) {
	for _, i := range k.ifaces {
		for _, p := range i.Addrs {
			if p.Masked().Contains(a) {
				return i, p, true
			}
		}
	}
	return nil, netip.Prefix{}, false
}

// ---------------------------------------------------------------------------
// Tables, rules, routes, tunnels, filters: programmatic API

// RegisterTable names a routing table number (the rt_tables file).
func (k *Kernel) RegisterTable(num int, name string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.rtNames[num] = name
	if _, ok := k.tables[name]; !ok {
		k.tables[name] = &RouteTable{Name: name}
	}
}

// AddRule appends a policy rule.
func (k *Kernel) AddRule(r PolicyRule) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.tables[r.Table]; !ok {
		return fmt.Errorf("kernel[%s]: rule references unknown table %q", k.dev, r.Table)
	}
	k.rules = append(k.rules, r)
	return nil
}

// AddRoute appends a route to the named table ("" means main).
func (k *Kernel) AddRoute(table string, r Route) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if table == "" {
		table = "main"
	}
	t, ok := k.tables[table]
	if !ok {
		return fmt.Errorf("kernel[%s]: unknown table %q", k.dev, table)
	}
	if r.MPLSKey == 0 {
		r.MPLSKey = -1
	}
	t.Routes = append(t.Routes, r)
	return nil
}

// DelRoutes removes all routes from the named table matching dev.
func (k *Kernel) DelRoutes(table, dev string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	t, ok := k.tables[table]
	if !ok {
		return
	}
	kept := t.Routes[:0]
	for _, r := range t.Routes {
		if r.Dev != dev {
			kept = append(kept, r)
		}
	}
	t.Routes = kept
}

// DelRouteWhere removes every route matching pred from the named table
// ("" = main) and reports how many were removed. Modules use it to undo
// the routes their switch rules installed (declarative teardown).
func (k *Kernel) DelRouteWhere(table string, pred func(Route) bool) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	if table == "" {
		table = "main"
	}
	t, ok := k.tables[table]
	if !ok {
		return 0
	}
	kept := t.Routes[:0]
	removed := 0
	for _, r := range t.Routes {
		if pred(r) {
			removed++
			continue
		}
		kept = append(kept, r)
	}
	t.Routes = kept
	return removed
}

// Routes returns a copy of the named table's routes ("" = main), for
// tests and operators inspecting what modules installed.
func (k *Kernel) Routes(table string) []Route {
	k.mu.Lock()
	defer k.mu.Unlock()
	if table == "" {
		table = "main"
	}
	t, ok := k.tables[table]
	if !ok {
		return nil
	}
	return append([]Route(nil), t.Routes...)
}

// DropTable removes a named policy table: its routes, every policy rule
// selecting it, and its rt_tables registration — the inverse of the
// `echo N name >> rt_tables` / `ip rule add ... table name` /
// `ip route add ... table name` sequence the IP module emits. "main" is
// never dropped.
func (k *Kernel) DropTable(name string) {
	if name == "main" || name == "" {
		return
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.tables, name)
	for num, n := range k.rtNames {
		if n == name {
			delete(k.rtNames, num)
		}
	}
	kept := k.rules[:0]
	for _, r := range k.rules {
		if r.Table != name {
			kept = append(kept, r)
		}
	}
	k.rules = kept
}

// AddGRETunnel creates a GRE tunnel interface.
func (k *Kernel) AddGRETunnel(t GRETunnel) (*Iface, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if _, ok := k.ifaces[t.Name]; ok {
		return nil, fmt.Errorf("kernel[%s]: interface %q exists", k.dev, t.Name)
	}
	tun := t
	i := &Iface{Name: t.Name, Kind: IfaceGRE, Tunnel: &tun, LabelSpace: -1}
	k.ifaces[t.Name] = i
	return i, nil
}

// DelIface removes an interface (and its tunnel state).
func (k *Kernel) DelIface(name string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.ifaces, name)
}

// ResetTunnelSeq clears a GRE tunnel's receive-sequence protection so a
// re-established far end (whose transmit sequence restarted at zero) is
// accepted again. Invoked by the GRE module when its peer reports a
// tunnel teardown.
func (k *Kernel) ResetTunnelSeq(name string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i, ok := k.ifaces[name]; ok && i.Tunnel != nil {
		i.Tunnel.rxSeq = 0
		i.Tunnel.rxAny = false
	}
}

// Tunnel returns a GRE tunnel's state by interface name.
func (k *Kernel) Tunnel(name string) (*GRETunnel, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	i, ok := k.ifaces[name]
	if !ok || i.Tunnel == nil {
		return nil, false
	}
	return i.Tunnel, true
}

// AddFilter installs a packet filter and returns it.
func (k *Kernel) AddFilter(f FilterEntry) *FilterEntry {
	k.mu.Lock()
	defer k.mu.Unlock()
	nf := f
	k.filters = append(k.filters, &nf)
	return &nf
}

// DelFilter removes a filter by id.
func (k *Kernel) DelFilter(id string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	kept := k.filters[:0]
	for _, f := range k.filters {
		if f.ID != id {
			kept = append(kept, f)
		}
	}
	k.filters = kept
}

// Filters returns the installed filters.
func (k *Kernel) Filters() []FilterEntry {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]FilterEntry, len(k.filters))
	for i, f := range k.filters {
		out[i] = *f
	}
	return out
}

// SetLabelSpace assigns an MPLS labelspace to a device interface.
func (k *Kernel) SetLabelSpace(iface string, space int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	i, ok := k.ifaces[iface]
	if !ok {
		return fmt.Errorf("kernel[%s]: no interface %q", k.dev, iface)
	}
	i.LabelSpace = space
	return nil
}

// AddILM declares an incoming label mapping.
func (k *Kernel) AddILM(label uint32, space int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.mpls.ilm[ilmKey{label, space}] = true
}

// AddNHLFE allocates a next-hop label forwarding entry and returns its key.
func (k *Kernel) AddNHLFE(n NHLFE) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	key := k.mpls.nextKey
	k.mpls.nextKey++
	n.Key = key
	k.mpls.nhlfe[key] = &n
	return key
}

// AddXC cross-connects an ILM to an NHLFE.
func (k *Kernel) AddXC(label uint32, space, nhlfeKey int) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	ik := ilmKey{label, space}
	if !k.mpls.ilm[ik] {
		return fmt.Errorf("kernel[%s]: xc references undeclared ilm %d/%d", k.dev, label, space)
	}
	if _, ok := k.mpls.nhlfe[nhlfeKey]; !ok {
		return fmt.Errorf("kernel[%s]: xc references unknown nhlfe key %d", k.dev, nhlfeKey)
	}
	k.mpls.xc[ik] = nhlfeKey
	return nil
}

// DelILM removes an incoming label mapping and its cross-connect.
func (k *Kernel) DelILM(label uint32, space int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	ik := ilmKey{label, space}
	delete(k.mpls.ilm, ik)
	delete(k.mpls.xc, ik)
}

// DelNHLFE removes a next-hop label forwarding entry by key.
func (k *Kernel) DelNHLFE(key int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.mpls.nhlfe, key)
}

// HasNHLFE reports whether an NHLFE with the given key exists. Routes
// referencing a missing key silently drop traffic (the stale-handle
// black hole of §II-E), so consistency checks want this visible.
func (k *Kernel) HasNHLFE(key int) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.mpls.nhlfe[key]
	return ok
}

// ForwardingConfig renders the configuration no other accessor exposes —
// rt_tables names, policy rules, every table and its routes, and the
// MPLS ILM/XC/NHLFE entries — as sorted canonical lines, so a
// consistency check can compare a kernel against an earlier copy of
// itself.
func (k *Kernel) ForwardingConfig() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []string
	for num, name := range k.rtNames {
		out = append(out, fmt.Sprintf("rt_tables %d %s", num, name))
	}
	for _, r := range k.rules {
		out = append(out, fmt.Sprintf("rule to %v iif %q table %s", r.To, r.IIF, r.Table))
	}
	for name, t := range k.tables {
		out = append(out, "table "+name)
		for _, r := range t.Routes {
			out = append(out, fmt.Sprintf("route %s %v via %v dev %q mpls %d", name, r.dst(), r.Via, r.Dev, r.MPLSKey))
		}
	}
	for ik := range k.mpls.ilm {
		out = append(out, fmt.Sprintf("ilm %d/%d", ik.Label, ik.LabelSpace))
	}
	for ik, key := range k.mpls.xc {
		out = append(out, fmt.Sprintf("xc %d/%d nhlfe %d", ik.Label, ik.LabelSpace, key))
	}
	for key, n := range k.mpls.nhlfe {
		out = append(out, fmt.Sprintf("nhlfe %d mtu %d push %v nexthop %q %v", key, n.MTU, n.PushLabels, n.NexthopDev, n.NexthopIP))
	}
	sort.Strings(out)
	return out
}

// RegisterUDP binds a handler to a local UDP port.
func (k *Kernel) RegisterUDP(port uint16, h UDPHandler) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.udp[port] = h
}

// UnregisterUDP removes a UDP binding.
func (k *Kernel) UnregisterUDP(port uint16) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.udp, port)
}

// RegisterEtherType registers a raw frame handler (management channel).
func (k *Kernel) RegisterEtherType(et packet.EtherType, h EtherTypeHandler) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ethHandler[et] = h
}

// IfaceCounters returns rx/tx packet counts for an interface.
func (k *Kernel) IfaceCounters(name string) (rx, tx uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i, ok := k.ifaces[name]; ok {
		return i.RxPkts, i.TxPkts
	}
	return 0, 0
}

// ExecLog returns the device-level commands executed so far.
func (k *Kernel) ExecLog() []string {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]string(nil), k.execLog...)
}

// ---------------------------------------------------------------------------
// Frame input

// HandleFrame is the netsim entry point: a frame arrived on a port.
func (k *Kernel) HandleFrame(port string, frame []byte) {
	eth, n, _, err := packet.DecodeEthernet(frame)
	if err != nil {
		return
	}
	payload := frame[n:]

	k.mu.Lock()
	if h, ok := k.ethHandler[eth.Type]; ok {
		k.mu.Unlock()
		h(port, eth, payload)
		return
	}
	if i, ok := k.ifaces[port]; ok {
		i.RxPkts++
	}
	role := k.role
	k.mu.Unlock()

	if role == RoleSwitch {
		k.bridgeInput(port, eth, frame)
		return
	}

	mac, ok := k.portMAC(port)
	if !ok {
		return
	}
	if eth.Dst != mac && !eth.Dst.IsBroadcast() {
		return
	}
	switch eth.Type {
	case packet.EtherTypeARP:
		k.arpInput(port, payload)
	case packet.EtherTypeIPv4:
		k.ipInput(port, payload, 0)
	case packet.EtherTypeMPLS:
		k.mplsInput(port, payload)
	}
}

// ---------------------------------------------------------------------------
// ARP

func (k *Kernel) arpInput(port string, data []byte) {
	a, _, _, err := packet.DecodeARP(data)
	if err != nil {
		return
	}
	k.mu.Lock()
	// Opportunistically learn the sender.
	k.arp[a.SenderIP] = a.SenderMAC
	pend := k.arpPending[a.SenderIP]
	delete(k.arpPending, a.SenderIP)
	k.mu.Unlock()

	for _, p := range pend {
		_ = k.SendFrame(port, a.SenderMAC, p.etherType, p.data)
	}

	if a.Op != packet.ARPRequest {
		return
	}
	k.mu.Lock()
	answer := k.isLocal(a.TargetIP)
	if !answer && k.proxyARP {
		// Proxy ARP: answer for addresses we can route somewhere else.
		if _, _, ok := k.lockedRouteLookup(port, a.TargetIP); ok {
			answer = true
		}
	}
	k.mu.Unlock()
	if !answer {
		return
	}
	mac, ok := k.portMAC(port)
	if !ok {
		return
	}
	reply := packet.ARP{
		Op:        packet.ARPReply,
		SenderMAC: mac,
		SenderIP:  a.TargetIP,
		TargetMAC: a.SenderMAC,
		TargetIP:  a.SenderIP,
	}
	frame, err := packet.Serialize(nil,
		packet.Ethernet{Dst: a.SenderMAC, Src: mac, Type: packet.EtherTypeARP}, reply)
	if err == nil {
		_ = k.send(port, frame)
	}
}

// arpResolve sends data (of etherType) to nexthop on iface, resolving the
// MAC first if needed.
func (k *Kernel) arpResolve(iface string, nexthop netip.Addr, etherType packet.EtherType, data []byte) {
	k.mu.Lock()
	mac, known := k.arp[nexthop]
	if !known {
		k.arpPending[nexthop] = append(k.arpPending[nexthop], pendingPkt{etherType, data})
		if len(k.arpPending[nexthop]) > 16 {
			k.arpPending[nexthop] = k.arpPending[nexthop][1:]
		}
	}
	var srcIP netip.Addr
	if i, ok := k.ifaces[iface]; ok {
		if len(i.Addrs) > 0 {
			srcIP = i.Addrs[0].Addr()
		}
		i.TxPkts++
	}
	k.mu.Unlock()

	if known {
		_ = k.SendFrame(iface, mac, etherType, data)
		return
	}
	srcMAC, ok := k.portMAC(iface)
	if !ok {
		return
	}
	if !srcIP.IsValid() {
		srcIP = netip.AddrFrom4([4]byte{})
	}
	req := packet.ARP{
		Op:        packet.ARPRequest,
		SenderMAC: srcMAC,
		SenderIP:  srcIP,
		TargetIP:  nexthop,
	}
	frame, err := packet.Serialize(nil,
		packet.Ethernet{Dst: packet.BroadcastMAC, Src: srcMAC, Type: packet.EtherTypeARP}, req)
	if err == nil {
		_ = k.send(iface, frame)
	}
}

// SendFrame transmits data as one Ethernet frame of etherType to dst out
// of port, below routing and ARP: the raw send ARP resolution ends in,
// and the one a link-local protocol (the IGP's LSAs) uses. The frame is
// delivered through the device's send function, so on the simulated
// network it may be handled before SendFrame returns.
func (k *Kernel) SendFrame(port string, dst packet.MAC, etherType packet.EtherType, data []byte) error {
	src, ok := k.portMAC(port)
	if !ok {
		return fmt.Errorf("kernel[%s]: no port %q", k.dev, port)
	}
	frame, err := packet.Serialize(data, packet.Ethernet{Dst: dst, Src: src, Type: etherType})
	if err != nil {
		return err
	}
	return k.send(port, frame)
}

// ---------------------------------------------------------------------------
// IPv4 input / forwarding / output

func (k *Kernel) ipInput(iif string, data []byte, depth int) {
	if depth > maxEncapDepth {
		return
	}
	ip, n, _, err := packet.DecodeIPv4(data)
	if err != nil {
		return
	}
	payload := data[n:]

	k.mu.Lock()
	for _, f := range k.filters {
		if f.matches(ip, payload) {
			f.Hits++
			if f.Action == core.ActionDrop {
				k.mu.Unlock()
				return
			}
			break
		}
	}
	local := k.isLocal(ip.Dst)
	fwd := k.ipForward
	k.mu.Unlock()

	if local {
		k.localDeliver(iif, ip, payload, depth)
		return
	}
	if !fwd {
		return
	}
	if ip.TTL <= 1 {
		return
	}
	ip.TTL--
	out, err := packet.Serialize(payload, ip)
	if err != nil {
		return
	}
	k.routeAndSend(iif, ip.Dst, out, depth)
}

func (k *Kernel) localDeliver(iif string, ip packet.IPv4, payload []byte, depth int) {
	switch ip.Proto {
	case packet.ProtoGRE:
		k.greInput(ip, payload, depth)
	case packet.ProtoIPIP:
		k.ipInput(iif, payload, depth+1)
	case packet.ProtoUDP:
		u, n, _, err := packet.DecodeUDP(payload)
		if err != nil {
			return
		}
		k.mu.Lock()
		h := k.udp[u.Dst]
		k.mu.Unlock()
		if h != nil {
			h(ip.Src, u.Src, payload[n:])
		}
	case packet.ProtoProbe:
		p, _, _, err := packet.DecodeProbe(payload)
		if err != nil {
			return
		}
		ev := ProbeEvent{Op: p.Op, Token: p.Token, Src: ip.Src, Dst: ip.Dst}
		k.mu.Lock()
		if len(k.probes) >= probeLogMax {
			k.probes = append(k.probes[:0], k.probes[probeLogMax/2:]...)
		}
		k.probes = append(k.probes, ev)
		if _, waiting := k.awaited[p.Token]; waiting && p.Op == packet.ProbeReply {
			k.awaited[p.Token] = true
		}
		cb := k.OnProbe
		k.mu.Unlock()
		if cb != nil {
			cb(ev)
		}
		if p.Op == packet.ProbeEcho {
			_ = k.SendIP(ip.Dst, ip.Src, packet.ProtoProbe, mustSerialize(packet.Probe{Op: packet.ProbeReply, Token: p.Token}))
		}
	}
}

func mustSerialize(l packet.SerializableLayer) []byte {
	b, err := packet.Serialize(nil, l)
	if err != nil {
		panic(err)
	}
	return b
}

// lockedRouteLookup evaluates policy rules then tables. Caller holds k.mu.
// Linux semantics: rules are evaluated in order; a rule whose table has no
// matching route falls through to the next rule; the implicit final rule
// consults "main".
func (k *Kernel) lockedRouteLookup(iif string, dst netip.Addr) (Route, string, bool) {
	for _, r := range k.rules {
		if r.To.IsValid() && !r.To.Contains(dst) {
			continue
		}
		if r.IIF != "" && r.IIF != iif {
			continue
		}
		if t, ok := k.tables[r.Table]; ok {
			if rt, ok := t.lookup(dst); ok {
				return rt, r.Table, true
			}
		}
	}
	if rt, ok := k.tables["main"].lookup(dst); ok {
		return rt, "main", true
	}
	return Route{}, "", false
}

// RouteLookup is the exported route query (used by IP modules to answer
// listFieldsAndValues and by debugging).
func (k *Kernel) RouteLookup(iif string, dst netip.Addr) (Route, string, bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.lockedRouteLookup(iif, dst)
}

func (k *Kernel) routeAndSend(iif string, dst netip.Addr, pkt []byte, depth int) {
	k.mu.Lock()
	rt, _, ok := k.lockedRouteLookup(iif, dst)
	if !ok {
		k.mu.Unlock()
		return
	}
	var egress *Iface
	if rt.Dev != "" {
		egress = k.ifaces[rt.Dev]
	} else if rt.Via.IsValid() {
		egress, _, _ = k.ifaceForSubnet(rt.Via)
	} else {
		egress, _, _ = k.ifaceForSubnet(dst)
	}
	if egress == nil {
		k.mu.Unlock()
		return
	}
	nexthop := dst
	if rt.Via.IsValid() {
		nexthop = rt.Via
	}
	mplsKey := rt.MPLSKey
	kind := egress.Kind
	name := egress.Name
	var tun GRETunnel
	if egress.Tunnel != nil {
		tun = *egress.Tunnel
		egress.Tunnel.txSeq++
	}
	egress.TxPkts++
	k.mu.Unlock()

	switch {
	case mplsKey > 0:
		k.mplsOutput(mplsKey, pkt, depth)
	case kind == IfaceGRE:
		k.greOutput(tun, pkt, depth)
	case kind == IfaceLAN:
		// Destination is on the local stub network: consume as local
		// delivery for the site's hosts.
		ip, n, _, err := packet.DecodeIPv4(pkt)
		if err == nil {
			k.localDeliver(name, ip, pkt[n:], depth)
		}
	default:
		k.arpResolve(name, nexthop, packet.EtherTypeIPv4, pkt)
	}
}

// SendIP originates an IPv4 packet from this device and routes it.
func (k *Kernel) SendIP(src, dst netip.Addr, proto packet.IPProto, payload []byte) error {
	if !src.IsValid() {
		// Pick a source: the address of the egress interface.
		k.mu.Lock()
		rt, _, ok := k.lockedRouteLookup("", dst)
		if ok {
			var egress *Iface
			if rt.Dev != "" {
				egress = k.ifaces[rt.Dev]
			} else if rt.Via.IsValid() {
				egress, _, _ = k.ifaceForSubnet(rt.Via)
			} else {
				egress, _, _ = k.ifaceForSubnet(dst)
			}
			if egress != nil && len(egress.Addrs) > 0 {
				src = egress.Addrs[0].Addr()
			}
		}
		k.mu.Unlock()
		if !src.IsValid() {
			return fmt.Errorf("kernel[%s]: no source address for %s", k.dev, dst)
		}
	}
	ip := packet.IPv4{TTL: originTTL, Proto: proto, Src: src, Dst: dst}
	pkt, err := packet.Serialize(payload, ip)
	if err != nil {
		return err
	}
	if k.IsLocalAddr(dst) {
		k.ipInput("lo", pkt, 0)
		return nil
	}
	k.routeAndSend("", dst, pkt, 0)
	return nil
}

// SendUDP originates a UDP datagram.
func (k *Kernel) SendUDP(src, dst netip.Addr, sport, dport uint16, payload []byte) error {
	data, err := packet.Serialize(payload, packet.UDP{Src: sport, Dst: dport})
	if err != nil {
		return err
	}
	return k.SendIP(src, dst, packet.ProtoUDP, data)
}

// SendProbe originates a probe echo toward dst with the source chosen
// from the egress interface.
func (k *Kernel) SendProbe(dst netip.Addr, token uint32) error {
	return k.SendIP(netip.Addr{}, dst, packet.ProtoProbe,
		mustSerialize(packet.Probe{Op: packet.ProbeEcho, Token: token}))
}

// SendProbeFrom originates a probe echo with an explicit source address
// (e.g. a customer-site address, so the reply rides the VPN path back).
func (k *Kernel) SendProbeFrom(src, dst netip.Addr, token uint32) error {
	return k.SendIP(src, dst, packet.ProtoProbe,
		mustSerialize(packet.Probe{Op: packet.ProbeEcho, Token: token}))
}

// AwaitProbeReply reports whether the reply to the probe echo sent with
// the given token has been delivered locally. A send racing an active
// netsim pump only enqueues its frame, so when the reply is not there
// yet the kernel registers the token, waits for the data plane to go
// quiet (Quiesce) and asks whether delivery marked it — the
// read-after-send barrier module self-tests need. Quiesce waits for
// global quiet, which other senders can postpone long enough for the
// bounded log to evict the reply; the registration cannot lose it.
func (k *Kernel) AwaitProbeReply(token uint32) bool {
	k.mu.Lock()
	replied, quiesce := k.probeRepliedLocked(token), k.Quiesce
	if replied || quiesce == nil {
		k.mu.Unlock()
		return replied
	}
	k.awaited[token] = false
	k.mu.Unlock()
	quiesce()
	k.mu.Lock()
	defer k.mu.Unlock()
	replied = k.awaited[token]
	delete(k.awaited, token)
	return replied
}

// probeRepliedLocked scans the probe log for the token's reply. Caller
// holds k.mu.
func (k *Kernel) probeRepliedLocked(token uint32) bool {
	for i := len(k.probes) - 1; i >= 0; i-- {
		if p := k.probes[i]; p.Op == packet.ProbeReply && p.Token == token {
			return true
		}
	}
	return false
}

// ProbeReplies returns the tokens of probe replies delivered locally
// (the most recent probeLogMax events are kept).
func (k *Kernel) ProbeReplies() []uint32 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []uint32
	for _, p := range k.probes {
		if p.Op == packet.ProbeReply {
			out = append(out, p.Token)
		}
	}
	return out
}

// ProbeEchoes returns the tokens of probe echoes delivered locally.
func (k *Kernel) ProbeEchoes() []uint32 {
	k.mu.Lock()
	defer k.mu.Unlock()
	var out []uint32
	for _, p := range k.probes {
		if p.Op == packet.ProbeEcho {
			out = append(out, p.Token)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// GRE

func (k *Kernel) greInput(outer packet.IPv4, payload []byte, depth int) {
	g, n, _, err := packet.DecodeGRE(payload)
	if err != nil {
		return
	}
	k.mu.Lock()
	var tun *GRETunnel
	var tunIface *Iface
	for _, i := range k.ifaces {
		t := i.Tunnel
		if t == nil {
			continue
		}
		if t.Local != outer.Dst || t.Remote != outer.Src {
			continue
		}
		if t.HasIKey && (!g.KeyPresent || g.Key != t.IKey) {
			continue
		}
		tun, tunIface = t, i
		break
	}
	if tun == nil {
		k.mu.Unlock()
		return
	}
	if tun.ICsum && !g.ChecksumPresent {
		k.mu.Unlock()
		return
	}
	if tun.ISeq {
		if !g.SeqPresent {
			k.mu.Unlock()
			return
		}
		if tun.rxAny && g.Seq <= tun.rxSeq {
			k.mu.Unlock()
			return // out-of-order or replayed: dropped for in-order delivery
		}
		tun.rxSeq = g.Seq
		tun.rxAny = true
	}
	tunIface.RxPkts++
	name := tunIface.Name
	k.mu.Unlock()

	if g.Proto != packet.EtherTypeIPv4 {
		return
	}
	k.ipInput(name, payload[n:], depth+1)
}

func (k *Kernel) greOutput(tun GRETunnel, inner []byte, depth int) {
	if depth > maxEncapDepth {
		return
	}
	g := packet.GRE{
		ChecksumPresent: tun.OCsum,
		KeyPresent:      tun.HasOKey,
		Key:             tun.OKey,
		SeqPresent:      tun.OSeq,
		Seq:             tun.txSeq,
		Proto:           packet.EtherTypeIPv4,
	}
	outer := packet.IPv4{TTL: originTTL, Proto: packet.ProtoGRE, Src: tun.Local, Dst: tun.Remote}
	pkt, err := packet.Serialize(inner, outer, g)
	if err != nil {
		return
	}
	// The encapsulated packet is locally originated (iif unset): tunnel
	// policy rules like `ip rule add iff greA …` must not match it.
	k.routeAndSend("", tun.Remote, pkt, depth+1)
}

// ---------------------------------------------------------------------------
// MPLS

func (k *Kernel) mplsInput(port string, data []byte) {
	k.mu.Lock()
	i, ok := k.ifaces[port]
	if !ok || i.LabelSpace < 0 || !k.mpls.loaded {
		k.mu.Unlock()
		return
	}
	space := i.LabelSpace
	k.mu.Unlock()

	m, n, _, err := packet.DecodeMPLS(data)
	if err != nil || len(m.Entries) == 0 {
		return
	}
	top := m.Entries[0]

	k.mu.Lock()
	key, ok := k.mpls.xc[ilmKey{top.Label, space}]
	if !ok {
		k.mu.Unlock()
		return
	}
	nh := k.mpls.nhlfe[key]
	k.mu.Unlock()
	if nh == nil {
		return
	}

	// Pop the matched label; keep any remaining stack.
	rest := m.Entries[1:]
	inner := data[n:]
	// Reconstruct the packet below the popped label: remaining labels
	// were already consumed by DecodeMPLS, so rebuild them.
	k.nhlfeForward(nh, rest, inner)
}

func (k *Kernel) mplsOutput(key int, inner []byte, depth int) {
	if depth > maxEncapDepth {
		return
	}
	k.mu.Lock()
	nh := k.mpls.nhlfe[key]
	loaded := k.mpls.loaded
	k.mu.Unlock()
	if nh == nil || !loaded {
		return
	}
	k.nhlfeForward(nh, nil, inner)
}

// nhlfeForward applies an NHLFE to a packet with the given remaining label
// stack (top first) and inner payload.
func (k *Kernel) nhlfeForward(nh *NHLFE, rest []packet.MPLSEntry, inner []byte) {
	if nh.MTU > 0 && len(inner) > nh.MTU {
		return
	}
	var stack []packet.MPLSEntry
	for _, l := range nh.PushLabels {
		stack = append(stack, packet.MPLSEntry{Label: l, TTL: 64})
	}
	stack = append(stack, rest...)

	if len(stack) == 0 {
		// Egress LSR: forward the inner IP packet straight to the
		// configured nexthop.
		k.arpResolve(nh.NexthopDev, nh.NexthopIP, packet.EtherTypeIPv4, inner)
		return
	}
	pkt, err := packet.Serialize(inner, packet.MPLS{Entries: stack})
	if err != nil {
		return
	}
	k.arpResolve(nh.NexthopDev, nh.NexthopIP, packet.EtherTypeMPLS, pkt)
}

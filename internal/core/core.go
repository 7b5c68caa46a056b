// Package core defines the CONMan architectural model from Ballani &
// Francis, "CONMan: A Step towards Network Manageability" (SIGCOMM 2007):
// devices with globally unique identifiers, protocol modules addressed as
// <module name, module-id, device-id> tuples, the generic module
// abstraction (pipes, switch, filter, performance, security, dependencies;
// the paper's Table II), and the protocol-independent primitives the
// network manager uses to configure the network (the paper's Table I).
//
// Everything in this package is protocol-agnostic on purpose: the whole
// point of CONMan is that the management plane never sees GRE keys, MPLS
// labels or VLAN IDs. Protocol modules (internal/modules/...) translate
// these abstract components into concrete protocol state.
package core

import (
	"fmt"
	"sort"
	"strings"
)

// DeviceID is a globally unique, topology-independent device identifier.
// The paper notes it can carry cryptographic meaning (hash of a public
// key); here it is an opaque string.
type DeviceID string

// ModuleID identifies a module uniquely within one device.
type ModuleID string

// ModuleName names a protocol ("IPv4", "GRE", ...) or an application
// (possibly a URI). Module names are how connectable-modules and
// peerable-modules lists are expressed.
type ModuleName string

// Well-known module names used throughout the reproduction. The paper
// writes "IP" in figures and "IPv4" in connectable lists; we canonicalise
// on these spellings and display "IP" for IPv4 in figure-style output.
const (
	NameETH   ModuleName = "ETH"
	NameIPv4  ModuleName = "IPv4"
	NameIPv6  ModuleName = "IPv6"
	NameGRE   ModuleName = "GRE"
	NameMPLS  ModuleName = "MPLS"
	NameVLAN  ModuleName = "VLAN"
	NameUDP   ModuleName = "UDP"
	NameTCP   ModuleName = "TCP"
	NameIPSec ModuleName = "IPSec"
	NameIKE   ModuleName = "IKE"
	NameIGP   ModuleName = "IGP"
)

// Display returns the figure-style spelling of a module name ("IP" for
// IPv4), used when rendering paper artifacts.
func (n ModuleName) Display() string {
	if n == NameIPv4 {
		return "IP"
	}
	return string(n)
}

// ModuleRef is the <module name, module-id, device-id> tuple that uniquely
// refers to a module anywhere in the network (paper §II).
type ModuleRef struct {
	Name   ModuleName `json:"name"`
	Module ModuleID   `json:"module"`
	Device DeviceID   `json:"device"`
}

// Ref is a convenience constructor for ModuleRef.
func Ref(name ModuleName, dev DeviceID, mod ModuleID) ModuleRef {
	return ModuleRef{Name: name, Module: mod, Device: dev}
}

// String renders the reference in the paper's "<IP,A,g>" notation.
// Plain concatenation, not fmt: the rendering doubles as the map key
// for graph nodes and diff indexes, so it sits on the reconcile hot
// path at store scale.
func (r ModuleRef) String() string {
	return "<" + r.Name.Display() + "," + string(r.Device) + "," + string(r.Module) + ">"
}

// IsZero reports whether the reference is unset.
func (r ModuleRef) IsZero() bool { return r == ModuleRef{} }

// ParseModuleRef parses the "<IP,A,g>" notation produced by
// ModuleRef.String. It accepts both "IP" and "IPv4" spellings.
func ParseModuleRef(s string) (ModuleRef, error) {
	t := strings.TrimSpace(s)
	if !strings.HasPrefix(t, "<") || !strings.HasSuffix(t, ">") {
		return ModuleRef{}, fmt.Errorf("core: module ref %q: want \"<name,device,module>\"", s)
	}
	parts := strings.Split(t[1:len(t)-1], ",")
	if len(parts) != 3 {
		return ModuleRef{}, fmt.Errorf("core: module ref %q: want 3 comma-separated fields", s)
	}
	name := ModuleName(strings.TrimSpace(parts[0]))
	if name == "IP" {
		name = NameIPv4
	}
	return ModuleRef{
		Name:   name,
		Device: DeviceID(strings.TrimSpace(parts[1])),
		Module: ModuleID(strings.TrimSpace(parts[2])),
	}, nil
}

// PipeID identifies a pipe. Pipe identifiers are allocated by the module
// that owns the pipe endpoint (for up/down pipes) or by the device (for
// physical pipes) and are referred to by the NM when installing switch
// rules.
type PipeID string

// PipeEnd distinguishes the three kinds of pipe attachment a module has:
// up pipes toward modules above it, down pipes toward modules below it,
// and physical pipes (actual network links; only some modules, notably
// ETH, have them).
type PipeEnd uint8

const (
	EndUp PipeEnd = iota
	EndDown
	EndPhy
)

func (e PipeEnd) String() string {
	switch e {
	case EndUp:
		return "up"
	case EndDown:
		return "down"
	case EndPhy:
		return "phy"
	}
	return fmt.Sprintf("PipeEnd(%d)", uint8(e))
}

// SwitchMode is one basic switching configuration, e.g. [down => up]
// (paper §II-C.2). A module advertises the set of modes it supports.
type SwitchMode struct {
	From, To PipeEnd
}

// The basic switching configurations enumerated in the paper, plus the
// [phy => down]/[down => phy] pair that the paper's own VLAN tunneling
// example (Fig 9b: "[P0, Tagged => P1]" where P1 leads downward) implies
// for L2-switch ETH modules.
var (
	SwDownUp   = SwitchMode{EndDown, EndUp}
	SwUpDown   = SwitchMode{EndUp, EndDown}
	SwDownDown = SwitchMode{EndDown, EndDown}
	SwUpUp     = SwitchMode{EndUp, EndUp}
	SwUpPhy    = SwitchMode{EndUp, EndPhy}
	SwPhyUp    = SwitchMode{EndPhy, EndUp}
	SwPhyPhy   = SwitchMode{EndPhy, EndPhy}
	SwPhyDown  = SwitchMode{EndPhy, EndDown}
	SwDownPhy  = SwitchMode{EndDown, EndPhy}
)

func (m SwitchMode) String() string {
	return fmt.Sprintf("[%s => %s]", m.From, m.To)
}

// HeaderEffect is what a switching configuration does to the packet's
// outermost header, as the NM's path finder tracks it (paper §III-C.1):
// modules encapsulate when switching [up=>down] or [up=>phy], decapsulate
// when switching [down=>up] or [phy=>up], and process the header in place
// for [down=>down], [up=>up] and [phy=>phy].
type HeaderEffect uint8

const (
	EffectPush HeaderEffect = iota
	EffectPop
	EffectProcess
)

func (e HeaderEffect) String() string {
	switch e {
	case EffectPush:
		return "push"
	case EffectPop:
		return "pop"
	case EffectProcess:
		return "process"
	}
	return fmt.Sprintf("HeaderEffect(%d)", uint8(e))
}

// Effect returns the header effect of the switching mode. Packets
// entering from a physical pipe have the module's header outermost, so the
// module consumes it; packets exiting to a physical pipe or a down pipe
// from above get the module's header pushed; same-level transits process
// the header in place. [phy => phy] is modelled as process (the L2 switch
// examines but does not change nesting).
func (m SwitchMode) Effect() HeaderEffect {
	if m.From == m.To {
		return EffectProcess
	}
	switch {
	case m.From == EndUp, m.To == EndPhy:
		return EffectPush
	default:
		// down=>up, phy=>up, phy=>down: the module's header comes off.
		return EffectPop
	}
}

// DependencyKind classifies what a module needs before a component can be
// created (paper §II-C.1, §II-F).
type DependencyKind uint8

const (
	// DepTradeoff: the NM must choose performance trade-offs when
	// creating the pipe (e.g. GRE's up-pipe dependency in Table III).
	DepTradeoff DependencyKind = iota
	// DepExternalState: state must be supplied by a control module or
	// the NM itself (e.g. IPsec's keying material).
	DepExternalState
	// DepControlModule: a specific control module must be running.
	DepControlModule
)

func (k DependencyKind) String() string {
	switch k {
	case DepTradeoff:
		return "tradeoff-choice"
	case DepExternalState:
		return "external-state"
	case DepControlModule:
		return "control-module"
	}
	return fmt.Sprintf("DependencyKind(%d)", uint8(k))
}

// Dependency is one declared dependency of a module component. Token is a
// capability token: a control module advertising ProvidesState with the
// same token satisfies the dependency (paper §II-F's "PPP depends on X,
// LCP satisfies X").
type Dependency struct {
	Kind        DependencyKind `json:"kind"`
	Token       string         `json:"token,omitempty"`
	Description string         `json:"description,omitempty"`
}

// Metric is one of the six generic performance metrics of the abstraction
// (paper §II-C.4).
type Metric uint8

const (
	MetricDelay Metric = iota
	MetricJitter
	MetricBandwidth
	MetricLossRate
	MetricErrorRate
	MetricOrdering
)

var metricNames = [...]string{"delay", "jitter", "bandwidth", "loss-rate", "error-rate", "ordering"}

func (m Metric) String() string {
	if int(m) < len(metricNames) {
		return metricNames[m]
	}
	return fmt.Sprintf("Metric(%d)", uint8(m))
}

// ParseMetric maps a metric name back to its value.
func ParseMetric(s string) (Metric, error) {
	for i, n := range metricNames {
		if n == s {
			return Metric(i), nil
		}
	}
	return 0, fmt.Errorf("core: unknown metric %q", s)
}

// Tradeoff is an advertised performance trade-off: the module can give up
// the Give metrics to obtain the Get metrics, applicable to traffic on
// pipes of kind Scope. Table III row xi shows GRE advertising
// {[jitter, delay] vs [ordering] | up-pipe} (sequence numbers) and
// {[loss-rate] vs [error-rate] | up-pipe} (checksums) without exposing
// either mechanism.
type Tradeoff struct {
	Give  []Metric `json:"give"`
	Get   []Metric `json:"get"`
	Scope PipeEnd  `json:"scope"`
}

func (t Tradeoff) String() string {
	return fmt.Sprintf("{[%s] vs [%s] | %s-pipe}", metricList(t.Give), metricList(t.Get), t.Scope)
}

func metricList(ms []Metric) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = m.String()
	}
	return strings.Join(parts, ", ")
}

// Key returns a canonical identity for a trade-off so the NM can refer to
// the trade-off it chose when satisfying a pipe dependency.
func (t Tradeoff) Key() string {
	return fmt.Sprintf("%s|%s|%s", metricList(t.Give), metricList(t.Get), t.Scope)
}

// FilterClassifier names one abstract thing a module can filter on:
// other modules, devices, pipes or module types (paper §II-C.3).
type FilterClassifier uint8

const (
	FilterByModule FilterClassifier = iota
	FilterByDevice
	FilterByPipe
	FilterByModuleType
)

func (c FilterClassifier) String() string {
	switch c {
	case FilterByModule:
		return "module"
	case FilterByDevice:
		return "device"
	case FilterByPipe:
		return "pipe"
	case FilterByModuleType:
		return "module-type"
	}
	return fmt.Sprintf("FilterClassifier(%d)", uint8(c))
}

// FilterSpec advertises whether and how a module can filter packets.
type FilterSpec struct {
	Classifiers []FilterClassifier `json:"classifiers,omitempty"`
	Locations   []PipeEnd          `json:"locations,omitempty"`
}

// CanFilter reports whether the module advertises any filtering ability.
func (f FilterSpec) CanFilter() bool { return len(f.Classifiers) > 0 }

// StateSource says whether the switching state that conditions how packets
// are switched is generated locally by the module (through peer
// interaction) or must be provided externally (paper Table II, §II-F).
type StateSource uint8

const (
	StateLocal StateSource = iota
	StateExternal
)

func (s StateSource) String() string {
	if s == StateLocal {
		return "local"
	}
	return "external"
}

// SwitchSpec advertises a module's switching capabilities.
type SwitchSpec struct {
	Modes       []SwitchMode `json:"modes,omitempty"`
	Multicast   bool         `json:"multicast,omitempty"`
	StateSource StateSource  `json:"state_source"`
	// StateDependency, when non-nil, declares that switching state the
	// module cannot derive through local peer interaction can be supplied
	// by a control module advertising ProvidesState with the same token
	// (paper §II-F: an IP module's transit routes come from an IGP). The
	// dependency is advisory — a module whose StateSource is local still
	// switches between directly connected subnets without a provider.
	StateDependency *Dependency `json:"state_dependency,omitempty"`
}

// Supports reports whether mode is among the advertised modes.
func (s SwitchSpec) Supports(mode SwitchMode) bool {
	for _, m := range s.Modes {
		if m == mode {
			return true
		}
	}
	return false
}

// ModesString renders the modes in the paper's Table III/IV style, e.g.
// "[Down => Up],[Up => Down]".
func (s SwitchSpec) ModesString() string {
	parts := make([]string, len(s.Modes))
	for i, m := range s.Modes {
		parts[i] = m.String()
	}
	return strings.Join(parts, ",")
}

// SecuritySpec advertises the ability to secure communication with peer
// modules (paper §II-C.5). If StateDependency is non-nil the keying state
// must be provided externally (IPsec's dependency on IKE); otherwise the
// module negotiates it with its peer (SSL-style).
type SecuritySpec struct {
	Integrity       bool        `json:"integrity,omitempty"`
	Authenticity    bool        `json:"authenticity,omitempty"`
	Confidentiality bool        `json:"confidentiality,omitempty"`
	StateDependency *Dependency `json:"state_dependency,omitempty"`
}

// Offers reports whether any security property is advertised.
func (s SecuritySpec) Offers() bool {
	return s.Integrity || s.Authenticity || s.Confidentiality
}

// EnforcementSpec advertises explicit performance enforcement abilities:
// queuing/shaping or service classes (paper Table II).
type EnforcementSpec struct {
	Queuing        bool     `json:"queuing,omitempty"`
	Shaping        bool     `json:"shaping,omitempty"`
	ServiceClasses []string `json:"service_classes,omitempty"`
}

// PipeSpec describes what a module advertises about one kind of pipe
// (up or down): which module names it can connect to and what must be
// satisfied before such a pipe can be created.
type PipeSpec struct {
	Connectable  []ModuleName `json:"connectable,omitempty"`
	Dependencies []Dependency `json:"dependencies,omitempty"`
}

// CanConnect reports whether the pipe spec allows connecting to a module
// with the given name.
func (p PipeSpec) CanConnect(name ModuleName) bool {
	for _, n := range p.Connectable {
		if n == name {
			return true
		}
	}
	return false
}

// PhysicalPipeInfo describes one physical pipe attached to a module. The
// NM cannot create physical pipes, only discover and enable them; the
// peer fields are filled in once topology discovery has matched both ends.
type PhysicalPipeInfo struct {
	Pipe       PipeID   `json:"pipe"`
	Broadcast  bool     `json:"broadcast,omitempty"`
	Enabled    bool     `json:"enabled"`
	PeerDevice DeviceID `json:"peer_device,omitempty"`
	PeerModule ModuleID `json:"peer_module,omitempty"`
	PeerPipe   PipeID   `json:"peer_pipe,omitempty"`
	// External marks a pipe that leads outside the managed domain
	// (e.g. a customer-facing interface). Such pipes are legal path
	// endpoints even though the NM has no abstraction for the far end.
	External bool `json:"external,omitempty"`
}

// Abstraction is the complete self-description of a module, the thing
// showPotential() returns per module (paper Table II). Control modules use
// ProvidesState to advertise the dependencies they can satisfy (§II-F)
// and typically leave the data-plane fields empty.
type Abstraction struct {
	Ref      ModuleRef          `json:"ref"`
	Kind     ModuleKind         `json:"kind"`
	Up       PipeSpec           `json:"up"`
	Down     PipeSpec           `json:"down"`
	Physical []PhysicalPipeInfo `json:"physical,omitempty"`
	Peerable []ModuleName       `json:"peerable,omitempty"`
	Filter   FilterSpec         `json:"filter"`
	Switch   SwitchSpec         `json:"switch"`

	// PerfReporting lists the counters/metrics the module reports,
	// e.g. "rx-packets/pipe", "tx-packets/pipe".
	PerfReporting []string        `json:"perf_reporting,omitempty"`
	Tradeoffs     []Tradeoff      `json:"tradeoffs,omitempty"`
	Enforcement   EnforcementSpec `json:"enforcement"`
	Security      SecuritySpec    `json:"security"`

	// ProvidesState lists dependency tokens this (control) module can
	// satisfy for data modules.
	ProvidesState []string `json:"provides_state,omitempty"`

	// HandleFields lists the low-level fields this module exports via
	// listFieldsAndValues("pipe:<id>") that a module above may embed in
	// its own configuration (an MPLS NHLFE key inside an IP route).
	// A non-empty list tells the NM the exported values can change
	// independently of the consumer — dependency maintenance (§II-E)
	// must watch them via installTrigger and re-check embedded copies.
	HandleFields []string `json:"handle_fields,omitempty"`

	// Attributes carries coarse, generic hints usable by the NM's path
	// selector without protocol knowledge, e.g. "forwarding" => "fast"
	// for MPLS (the paper's NM prefers the MPLS path because "the MPLS
	// abstraction mentions that it offers good forwarding bandwidth").
	Attributes map[string]string `json:"attributes,omitempty"`
}

// ModuleKind separates data-plane from control-plane modules (§II-C).
type ModuleKind uint8

const (
	KindData ModuleKind = iota
	KindControl
	KindApplication
)

func (k ModuleKind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindControl:
		return "control"
	case KindApplication:
		return "application"
	}
	return fmt.Sprintf("ModuleKind(%d)", uint8(k))
}

// Clone returns a deep copy of the abstraction so callers can mutate
// their copy without aliasing the module's own state.
func (a Abstraction) Clone() Abstraction {
	b := a
	b.Up.Connectable = append([]ModuleName(nil), a.Up.Connectable...)
	b.Up.Dependencies = append([]Dependency(nil), a.Up.Dependencies...)
	b.Down.Connectable = append([]ModuleName(nil), a.Down.Connectable...)
	b.Down.Dependencies = append([]Dependency(nil), a.Down.Dependencies...)
	b.Physical = append([]PhysicalPipeInfo(nil), a.Physical...)
	b.Peerable = append([]ModuleName(nil), a.Peerable...)
	b.Filter.Classifiers = append([]FilterClassifier(nil), a.Filter.Classifiers...)
	b.Filter.Locations = append([]PipeEnd(nil), a.Filter.Locations...)
	b.Switch.Modes = append([]SwitchMode(nil), a.Switch.Modes...)
	if a.Switch.StateDependency != nil {
		d := *a.Switch.StateDependency
		b.Switch.StateDependency = &d
	}
	b.PerfReporting = append([]string(nil), a.PerfReporting...)
	b.Tradeoffs = make([]Tradeoff, len(a.Tradeoffs))
	for i, t := range a.Tradeoffs {
		b.Tradeoffs[i] = Tradeoff{
			Give:  append([]Metric(nil), t.Give...),
			Get:   append([]Metric(nil), t.Get...),
			Scope: t.Scope,
		}
	}
	b.Enforcement.ServiceClasses = append([]string(nil), a.Enforcement.ServiceClasses...)
	if a.Security.StateDependency != nil {
		d := *a.Security.StateDependency
		b.Security.StateDependency = &d
	}
	b.ProvidesState = append([]string(nil), a.ProvidesState...)
	b.HandleFields = append([]string(nil), a.HandleFields...)
	if a.Attributes != nil {
		b.Attributes = make(map[string]string, len(a.Attributes))
		for k, v := range a.Attributes {
			b.Attributes[k] = v
		}
	}
	return b
}

// CanPeer reports whether the module may have a peer with the given name.
func (a Abstraction) CanPeer(name ModuleName) bool {
	for _, n := range a.Peerable {
		if n == name {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Actual state (showActual)

// PipeStatus is the operational state of a configured pipe.
type PipeStatus uint8

const (
	PipeCreating PipeStatus = iota
	PipeUp
	PipeDown
)

func (s PipeStatus) String() string {
	switch s {
	case PipeCreating:
		return "creating"
	case PipeUp:
		return "up"
	case PipeDown:
		return "down"
	}
	return fmt.Sprintf("PipeStatus(%d)", uint8(s))
}

// PipeState is the actual state of one pipe of a module.
type PipeState struct {
	ID     PipeID     `json:"id"`
	End    PipeEnd    `json:"end"`
	Other  ModuleRef  `json:"other,omitempty"` // module at the other end (same device) for up/down pipes
	Peer   ModuleRef  `json:"peer,omitempty"`  // remote peer module, if known
	Status PipeStatus `json:"status"`
	RxPkts uint64     `json:"rx_pkts"`
	TxPkts uint64     `json:"tx_pkts"`
	// Handle is CanonicalHandle of the fields a module advertising
	// HandleFields exports for its up pipe: what a rule steering into the
	// pipe embeds (§II-E), under the showActual digest.
	Handle string `json:"handle,omitempty"`
}

// SwitchRuleState is an installed switch rule as reported by showActual.
type SwitchRuleState struct {
	ID    string      `json:"id"`
	From  PipeID      `json:"from"`
	To    PipeID      `json:"to"`
	Match *Classifier `json:"match,omitempty"`
	Via   string      `json:"via,omitempty"`
	// MatchResolved/ViaResolved echo the concrete values the NM resolved
	// when the rule was installed (the prefix behind a dst-domain
	// classifier, the address behind a gateway token). Reconciliation
	// diffs them against a fresh resolution, so a SetDomain/SetGateway
	// change after apply surfaces as drift instead of silently diverging.
	MatchResolved string `json:"match_resolved,omitempty"`
	ViaResolved   string `json:"via_resolved,omitempty"`
	// HandleResolved is the canonical form (CanonicalHandle) of the
	// low-level handle fields another module exported and this rule
	// embedded at install time (e.g. the MPLS NHLFE key an IP route
	// points at). Reconciliation compares it against the Handle its To
	// pipe reports now: a mismatch means the provider churned under the
	// rule and the embedded copy is stale (§II-E), so the rule must be
	// reinstalled even though its abstract form still matches.
	HandleResolved string `json:"handle_resolved,omitempty"`
}

// CanonicalHandle renders exported low-level fields in a canonical,
// comparable form: "k1=v1;k2=v2" with keys sorted. An empty map is "".
func CanonicalHandle(fields map[string]string) string {
	if len(fields) == 0 {
		return ""
	}
	keys := make([]string, 0, len(fields))
	for k := range fields {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(fields[k])
	}
	return b.String()
}

// FilterRuleState is an installed filter rule as reported by showActual.
type FilterRuleState struct {
	ID   string     `json:"id"`
	Rule FilterRule `json:"rule"`
	// ResolvedFields are the concrete protocol fields the module derived
	// from the abstract rule (addresses, ports). Opaque to the NM but
	// reported for operators and for dependency tracking.
	ResolvedFields map[string]string `json:"resolved_fields,omitempty"`
	Hits           uint64            `json:"hits"`
}

// PerfReport carries the generic performance metrics a module reports for
// itself and its pipes.
type PerfReport struct {
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// ModuleState is the per-module return of showActual (paper §II-D.1.b).
type ModuleState struct {
	Ref         ModuleRef         `json:"ref"`
	Pipes       []PipeState       `json:"pipes,omitempty"`
	SwitchRules []SwitchRuleState `json:"switch_rules,omitempty"`
	Filters     []FilterRuleState `json:"filters,omitempty"`
	Perf        PerfReport        `json:"perf"`
	// LowLevel exposes resolved protocol fields (tunnel endpoints, keys,
	// labels...) for operators; the NM treats the values as opaque.
	LowLevel map[string]string `json:"low_level,omitempty"`
}

// SortedLowLevel returns the low-level keys in deterministic order, for
// rendering.
func (s ModuleState) SortedLowLevel() []string {
	keys := make([]string, 0, len(s.LowLevel))
	for k := range s.LowLevel {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------------------------------------------------------------------------
// Primitive requests (create/delete arguments)

// ComponentKind is what create()/delete() operates on.
type ComponentKind uint8

const (
	ComponentPipe ComponentKind = iota
	ComponentSwitchRule
	ComponentFilterRule
	ComponentPerfState
)

func (k ComponentKind) String() string {
	switch k {
	case ComponentPipe:
		return "pipe"
	case ComponentSwitchRule:
		return "switch"
	case ComponentFilterRule:
		return "filter"
	case ComponentPerfState:
		return "perf"
	}
	return fmt.Sprintf("ComponentKind(%d)", uint8(k))
}

// DependencyChoice is the NM's satisfaction of one declared dependency
// when creating a component: for DepTradeoff dependencies it names the
// metrics the NM wants (by trade-off key); for external state it carries
// an opaque value or names the control module to use.
type DependencyChoice struct {
	Token    string `json:"token,omitempty"`
	Tradeoff string `json:"tradeoff,omitempty"` // Tradeoff.Key() of the chosen trade-off
	Value    string `json:"value,omitempty"`
	Provider string `json:"provider,omitempty"` // ModuleRef.String() of a control module
}

// PipeRequest is create(pipe, upper, lower, upperPeer, lowerPeer, deps...):
// it creates the up-down pipe pair between Upper and Lower on one device
// and tells both modules who their remote peers for this pipe are (paper
// §III-B commands (1),(2),(4)). Peers may be zero when unknown, e.g. the
// customer-facing pipe P0 in Fig 7(b).
type PipeRequest struct {
	Upper     ModuleRef          `json:"upper"`
	Lower     ModuleRef          `json:"lower"`
	UpperPeer ModuleRef          `json:"upper_peer,omitempty"`
	LowerPeer ModuleRef          `json:"lower_peer,omitempty"`
	Satisfy   []DependencyChoice `json:"satisfy,omitempty"`
}

// Classifier is an abstract traffic class usable in switch and filter
// rules. The NM only ever names abstract identities (address domains,
// modules, pipes); modules resolve them to protocol fields.
type Classifier struct {
	Kind  string `json:"kind"`  // e.g. "dst-domain", "src-module", "tagged"
	Value string `json:"value"` // e.g. "C1-S2"
}

func (c Classifier) String() string {
	if c.Kind == "tagged" {
		return "Tagged"
	}
	return fmt.Sprintf("%s:%s", strings.TrimPrefix(c.Kind, "dst-domain"), c.Value)
}

// SwitchRule is create(switch, module, from, to [, match, via]): direct
// the module to switch packets between two of its pipes, optionally
// conditioned on an abstract classifier (Fig 7(b) commands (3),(4),(6),...).
// Rules are bidirectional when Bidirectional is set (the paper's simple
// "create (switch, <GRE,A,b>, P1, P2)" form binds both directions).
type SwitchRule struct {
	Module        ModuleRef   `json:"module"`
	From          PipeID      `json:"from"`
	To            PipeID      `json:"to"`
	Match         *Classifier `json:"match,omitempty"`
	Via           string      `json:"via,omitempty"` // abstract gateway token, e.g. "S2-gateway"
	Bidirectional bool        `json:"bidirectional,omitempty"`
}

// FilterAction is what a filter rule does with matching packets.
type FilterAction uint8

const (
	ActionDrop FilterAction = iota
	ActionAllow
)

func (a FilterAction) String() string {
	if a == ActionDrop {
		return "drop"
	}
	return "allow"
}

// FilterRule is create(filter, module, ...): "drop packets from module
// <IP,B,y> going to <FOO,C,z>" (paper §II-E). All match fields are
// abstract; the inspecting module resolves them with listFieldsAndValues.
type FilterRule struct {
	Module     ModuleRef    `json:"module"` // inspecting module
	FromModule *ModuleRef   `json:"from_module,omitempty"`
	ToModule   *ModuleRef   `json:"to_module,omitempty"`
	FromDevice *DeviceID    `json:"from_device,omitempty"`
	ToDevice   *DeviceID    `json:"to_device,omitempty"`
	OnPipe     *PipeID      `json:"on_pipe,omitempty"`
	Action     FilterAction `json:"action"`
}

// DeleteRequest identifies a component to delete.
type DeleteRequest struct {
	Kind   ComponentKind `json:"kind"`
	Module ModuleRef     `json:"module"`
	ID     string        `json:"id"` // PipeID or rule id
}

// ---------------------------------------------------------------------------
// Primitive names (Table I)

// Primitive enumerates the CONMan functions of the architecture, Table I.
type Primitive string

const (
	PrimShowPotential       Primitive = "showPotential"
	PrimShowActual          Primitive = "showActual"
	PrimCreate              Primitive = "create"
	PrimDelete              Primitive = "delete"
	PrimConveyMessage       Primitive = "conveyMessage"
	PrimListFieldsAndValues Primitive = "listFieldsAndValues"
)

// Package device implements CONMan devices: the per-device management
// agent (MA) that registers protocol modules, serves the NM's primitives
// over the management channel, relays module-to-module messages through
// the NM, and bridges modules to the simulated kernel and physical
// network (paper §II).
//
// The MA also keeps the protocol-agnostic half of every module's
// components: the pipe table, the registry of installed switch and
// filter rules with the undo each Install* call returned, the teardown
// cascade (deleting a pipe runs the undos of the rules on it), the pipes
// and rules showActual reports, and the pairwise exchange of parameters
// between peer modules (Exchange: who initiates, which pairs have
// exchanged, the reply and its retry). A module implements only protocol
// behaviour.
package device

import (
	"errors"
	"strings"

	"conman/internal/core"
	"conman/internal/kernel"
)

// PipeSide says which end of a pipe a module is: the module above
// (for which the pipe is a down pipe) or the module below (up pipe).
type PipeSide uint8

const (
	SideUpper PipeSide = iota
	SideLower
)

func (s PipeSide) String() string {
	if s == SideUpper {
		return "upper"
	}
	return "lower"
}

// Pipe is one configured up-down pipe between two modules of this device,
// or a physical pipe owned by an ETH module.
type Pipe struct {
	ID        core.PipeID
	Upper     core.ModuleRef
	Lower     core.ModuleRef
	UpperPeer core.ModuleRef // remote peer of the upper module, if known
	LowerPeer core.ModuleRef
	Satisfy   []core.DependencyChoice
	Status    core.PipeStatus

	Physical bool
	Iface    string // kernel interface for physical pipes
	External bool   // leads outside the managed domain
}

// TradeoffChosen reports whether the NM's dependency choices for this pipe
// selected a trade-off obtaining the given metric.
func (p *Pipe) TradeoffChosen(get core.Metric) bool {
	for _, c := range p.Satisfy {
		// c.Tradeoff is a core.Tradeoff.Key(): "give, ...|get, ...|scope".
		parts := strings.Split(c.Tradeoff, "|")
		if len(parts) != 3 {
			continue
		}
		for _, name := range strings.Split(parts[1], ",") {
			// An empty item (an empty get list) names no metric: ParseMetric
			// rejects it, so it is skipped.
			if m, err := core.ParseMetric(strings.TrimSpace(name)); err == nil && m == get {
				return true
			}
		}
	}
	return false
}

// SwitchRuleInstance is an installed (or installing) switch rule with the
// NM's resolutions of abstract tokens.
type SwitchRuleInstance struct {
	ID            string
	Rule          core.SwitchRule
	MatchResolved string // e.g. "10.0.2.0/24" for dst-domain:C1-S2
	ViaResolved   string // e.g. "192.168.0.1" for S1-gateway
	// HandleResolved is set by the installing module when the rule
	// embeds low-level fields exported by the module below
	// (core.CanonicalHandle of the consumed listFieldsAndValues map);
	// it is reported back through showActual so the NM can detect the
	// embedded copy going stale (§II-E).
	HandleResolved string
}

// FilterRuleInstance is an installed abstract filter rule. The MA reports
// the ResolvedFields the installing module set, as they were at install.
type FilterRuleInstance struct {
	ID             string
	Rule           core.FilterRule
	ResolvedFields map[string]string
	KernelID       string
}

// ErrPending is returned by module operations that cannot complete yet
// (e.g. a switch rule needing parameters another module has not derived);
// the MA retries them as state settles (paper §III-B's "the parameters for
// this command already having been determined" ordering).
var ErrPending = errors.New("device: operation pending on unresolved parameters")

// ErrUnsupported is returned for operations a module does not implement.
var ErrUnsupported = errors.New("device: operation unsupported by module")

// Module is the interface every protocol module implements toward its MA.
// It is deliberately protocol-agnostic: everything protocol-specific stays
// inside the implementation (the whole point of CONMan). Which pipes a
// module sits on and which rules it installed are the MA's records, not
// the module's: a module looks its pipes up with BaseModule.OwnPipe, and
// takes a rule back out only through the undo its Install* call returned.
type Module interface {
	// Ref returns the module's <name, module-id, device-id> tuple.
	Ref() core.ModuleRef
	// Abstraction self-describes the module (Table II).
	Abstraction() core.Abstraction
	// Actual reports the module's own showActual state: LowLevel and
	// Perf. The MA adds the pipes and rules it keeps for the module.
	Actual() core.ModuleState
	// PipeAttached notifies the module of a new pipe at the given side.
	PipeAttached(p *Pipe, side PipeSide) error
	// PipeDeleted notifies the module that a pipe was removed, after the
	// MA has run the undos of every rule on it.
	PipeDeleted(p *Pipe, side PipeSide) error
	// RequestDone is called after the MA has executed one command batch
	// from the NM, or one out-of-band MA.Delete, so a module can act once
	// on everything the request changed rather than once per pipe.
	RequestDone()
	// PortUp is called when the link on one of the device's physical
	// ports comes back after a cut.
	PortUp(port string)
	// InstallSwitchRule directs packet switching between two pipes and
	// returns the undo that takes the rule's state back out (nil when it
	// left none). The MA runs the undo when the rule, or a pipe it
	// references, is deleted. Returning ErrPending defers the rule until
	// dependencies resolve.
	InstallSwitchRule(r *SwitchRuleInstance) (undo func(), err error)
	// InstallFilterRule installs an abstract filter (§II-E) and returns
	// its undo, as InstallSwitchRule does.
	InstallFilterRule(r *FilterRuleInstance) (undo func(), err error)
	// HandleConvey processes a message from a (remote) peer module, of a
	// kind the module declared no Exchange for.
	HandleConvey(from core.ModuleRef, kind string, body []byte) error
	// ListFields resolves an abstract component to low-level fields
	// (§II-E). Component is a pipe id or "self".
	ListFields(component string) (map[string]string, error)
	// SelfTest probes data-plane connectivity to the module's peer on
	// the given pipe (§II-D.2).
	SelfTest(pipe core.PipeID) (bool, string)
}

// Services is what the MA offers to its modules.
type Services interface {
	// Device returns the owning device id.
	Device() core.DeviceID
	// Kernel returns the device's kernel.
	Kernel() *kernel.Kernel
	// PortTo names the device's physical port whose link leads to dev,
	// as the topology report names it; ok is false when none does, and
	// for a device only a customer-facing port leads to. A
	// link-local protocol (the IGP) sends to its neighbour through it.
	PortTo(dev core.DeviceID) (port string, ok bool)
	// Convey sends a message to a remote module through the NM
	// (conveyMessage, §II-D.1.d).
	Convey(from, to core.ModuleRef, kind string, body any) error
	// Declare registers one of the module's exchanges, when it is
	// constructed: the MA runs it from then on, and the peers' messages of
	// its kind reach the exchange's accept instead of HandleConvey.
	Declare(module core.ModuleRef, x *Exchange)
	// QueryFields performs listFieldsAndValues on a remote module via
	// the NM and waits for the answer.
	QueryFields(requester, target core.ModuleRef, component string) (map[string]string, error)
	// LocalFields queries a module on this same device directly.
	LocalFields(target core.ModuleID, component string) (map[string]string, error)
	// LocalModule fetches a co-located module.
	LocalModule(id core.ModuleID) (Module, bool)
	// PipeByID fetches a pipe of this device.
	PipeByID(id core.PipeID) (*Pipe, bool)
	// Notify sends an unsolicited event to the NM.
	Notify(module core.ModuleRef, kind, detail string) error
	// FieldsChanged reports that a component's low-level values changed,
	// firing any installed triggers (dependency maintenance, §II-E).
	FieldsChanged(module core.ModuleRef, component string, fields map[string]string)
	// Kick schedules a retry of pending operations.
	Kick()
}

// BaseModule provides default implementations so concrete modules only
// override what they support.
type BaseModule struct {
	ModRef core.ModuleRef
	Svc    Services
}

// Ref implements Module.
func (b *BaseModule) Ref() core.ModuleRef { return b.ModRef }

// PipeAttached implements Module (accepts silently).
func (b *BaseModule) PipeAttached(*Pipe, PipeSide) error { return nil }

// PipeDeleted implements Module.
func (b *BaseModule) PipeDeleted(*Pipe, PipeSide) error { return nil }

// RequestDone implements Module (nothing to do).
func (b *BaseModule) RequestDone() {}

// PortUp implements Module (nothing to do).
func (b *BaseModule) PortUp(string) {}

// OwnPipe looks a pipe of the device up and reports which end of it this
// module is; ok is false for an unknown pipe or one the module is not an
// end of. A physical pipe's owning ETH module is its lower end.
func (b *BaseModule) OwnPipe(id core.PipeID) (p *Pipe, side PipeSide, ok bool) {
	p, ok = b.Svc.PipeByID(id)
	switch {
	case !ok:
	case p.Upper.Module == b.ModRef.Module:
		return p, SideUpper, true
	case p.Lower.Module == b.ModRef.Module:
		return p, SideLower, true
	}
	return nil, 0, false
}

// InstallSwitchRule implements Module (unsupported).
func (b *BaseModule) InstallSwitchRule(*SwitchRuleInstance) (func(), error) {
	return nil, ErrUnsupported
}

// InstallFilterRule implements Module (unsupported).
func (b *BaseModule) InstallFilterRule(*FilterRuleInstance) (func(), error) {
	return nil, ErrUnsupported
}

// HandleConvey implements Module (ignores).
func (b *BaseModule) HandleConvey(core.ModuleRef, string, []byte) error { return nil }

// ListFields implements Module (nothing to report).
func (b *BaseModule) ListFields(string) (map[string]string, error) {
	return map[string]string{}, nil
}

// SelfTest implements Module (unsupported).
func (b *BaseModule) SelfTest(core.PipeID) (bool, string) {
	return false, "self-test unsupported"
}

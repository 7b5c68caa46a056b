// Package modules implements the CONMan protocol modules of the paper's
// §III as wrappers around the simulated device kernel: ETH, IP (IPv4),
// GRE, MPLS and VLAN, plus application modules and the IPsec/IKE
// control-module pair. Each module self-describes through the generic
// module abstraction, derives its own low-level parameters by talking to
// peer modules through the NM (conveyMessage / listFieldsAndValues), and
// translates abstract pipes and switch rules into device-level
// configuration — keeping every protocol detail out of the management
// plane.
package modules

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
)

// ETH models an Ethernet module. On a router it wraps one NIC
// ([phy=>up]/[up=>phy]); on an L2 switch one ETH module covers all ports
// and additionally offers [phy=>phy] and the [phy=>down]/[down=>phy] pair
// used with a VLAN module (Fig 9).
type ETH struct {
	device.BaseModule

	mu        sync.Mutex
	isSwitch  bool
	ifaces    []string               // kernel port names
	physPipes map[core.PipeID]string // physical pipe id -> iface
	external  map[core.PipeID]bool
	upPipes   map[core.PipeID]*device.Pipe
	rules     []*device.SwitchRuleInstance
	// ruleUndo maps an installed rule's id to the action undoing the
	// CatOS port configuration it emitted (nil for router NIC rules).
	ruleUndo map[string]func()
	// vlanRefs counts installed rules per emitted CatOS port config.
	// Several intents' paths may ride the same (port, vid) membership —
	// the kernel state is shared, so only the last rule out may clear
	// it. A boolean here once let a rerouted intent's teardown strip a
	// membership another intent still depended on, with every module
	// still reporting its rules installed: converged control plane,
	// black-holed data plane.
	vlanRefs map[string]int
}

// NewETH creates an Ethernet module. For routers pass a single interface;
// for switches pass every port. Physical pipes are registered with the MA
// under the ids "Phy-<iface>".
func NewETH(svc device.Services, id core.ModuleID, isSwitch bool, ifaces ...string) *ETH {
	e := &ETH{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameETH, svc.Device(), id),
			Svc:    svc,
		},
		isSwitch:  isSwitch,
		ifaces:    append([]string(nil), ifaces...),
		physPipes: make(map[core.PipeID]string),
		external:  make(map[core.PipeID]bool),
		upPipes:   make(map[core.PipeID]*device.Pipe),
		ruleUndo:  make(map[string]func()),
		vlanRefs:  make(map[string]int),
	}
	return e
}

// RegisterPhysical registers the module's physical pipes with the MA and
// marks external (customer-facing) ports. Call once after construction.
func (e *ETH) RegisterPhysical(ma *device.MA, externalIfaces ...string) {
	ext := make(map[string]bool, len(externalIfaces))
	for _, i := range externalIfaces {
		ext[i] = true
	}
	for _, iface := range e.ifaces {
		id := PhysPipeID(iface)
		p := &device.Pipe{
			ID:       id,
			Lower:    e.Ref(), // the ETH module owns its physical pipes
			Status:   core.PipeUp,
			Physical: true,
			Iface:    iface,
			External: ext[iface],
		}
		e.mu.Lock()
		e.physPipes[id] = iface
		e.external[id] = ext[iface]
		e.mu.Unlock()
		ma.RegisterPhysicalPipe(p)
	}
}

// PhysPipeID names the physical pipe of an interface.
func PhysPipeID(iface string) core.PipeID {
	return core.PipeID("Phy-" + iface)
}

// Abstraction implements device.Module (paper Table II/IV).
func (e *ETH) Abstraction() core.Abstraction {
	e.mu.Lock()
	defer e.mu.Unlock()
	a := core.Abstraction{
		Ref:      e.Ref(),
		Kind:     core.KindData,
		Peerable: []core.ModuleName{core.NameETH},
		Up:       core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4, core.NameMPLS, core.NameVLAN}},
		Filter: core.FilterSpec{
			Classifiers: []core.FilterClassifier{core.FilterByPipe},
			Locations:   []core.PipeEnd{core.EndPhy},
		},
		PerfReporting: []string{"rx-packets/pipe", "tx-packets/pipe"},
	}
	if e.isSwitch {
		a.Down = core.PipeSpec{Connectable: []core.ModuleName{core.NameVLAN}}
		a.Switch = core.SwitchSpec{
			Modes: []core.SwitchMode{
				core.SwPhyUp, core.SwUpPhy, core.SwPhyPhy, core.SwPhyDown, core.SwDownPhy,
			},
			Multicast:   true,
			StateSource: core.StateLocal,
		}
	} else {
		a.Switch = core.SwitchSpec{
			Modes:       []core.SwitchMode{core.SwPhyUp, core.SwUpPhy},
			StateSource: core.StateLocal,
		}
	}
	for id, iface := range e.physPipes {
		a.Physical = append(a.Physical, core.PhysicalPipeInfo{
			Pipe:     id,
			Enabled:  true,
			External: e.external[id],
			// Peer fields are filled by the NM from topology reports.
		})
		_ = iface
	}
	slices.SortFunc(a.Physical, func(x, y core.PhysicalPipeInfo) int { return cmp.Compare(x.Pipe, y.Pipe) })
	return a
}

// Actual implements device.Module.
func (e *ETH) Actual() core.ModuleState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := core.ModuleState{Ref: e.Ref(), LowLevel: map[string]string{}}
	for id, iface := range e.physPipes {
		rx, tx := e.Svc.Kernel().IfaceCounters(iface)
		st.Pipes = append(st.Pipes, core.PipeState{
			ID: id, End: core.EndPhy, Status: core.PipeUp, RxPkts: rx, TxPkts: tx,
		})
		st.LowLevel["iface:"+iface] = iface
	}
	for id, p := range e.upPipes {
		// Peer is this (lower) module's own remote peer, matching how
		// every other module reports its pipes.
		st.Pipes = append(st.Pipes, core.PipeState{
			ID: id, End: core.EndUp, Other: p.Upper, Peer: p.LowerPeer, Status: p.Status,
		})
	}
	for _, r := range e.rules {
		st.SwitchRules = append(st.SwitchRules, core.SwitchRuleState{
			ID: r.ID, From: r.Rule.From, To: r.Rule.To, Match: r.Rule.Match, Via: r.Rule.Via,
			MatchResolved: r.MatchResolved, ViaResolved: r.ViaResolved,
		})
	}
	return st
}

// PipeAttached implements device.Module.
func (e *ETH) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch side {
	case device.SideLower:
		// Something above us (IP, MPLS, VLAN).
		e.upPipes[p.ID] = p
	case device.SideUpper:
		// Only switch ETH modules accept a module "below" them (the VLAN
		// dance of Fig 9b); nothing to do until the switch rule.
		if !e.isSwitch {
			return fmt.Errorf("%s: router ETH has no down pipes", e.Ref())
		}
	}
	return nil
}

// PipeDeleted implements device.Module: switch rules referencing the
// pipe go with it, undoing any port configuration they emitted.
func (e *ETH) PipeDeleted(p *device.Pipe, side device.PipeSide) error {
	e.mu.Lock()
	delete(e.upPipes, p.ID)
	var undos []func()
	kept := e.rules[:0]
	for _, r := range e.rules {
		if r.Rule.From == p.ID || r.Rule.To == p.ID {
			if u := e.ruleUndo[r.ID]; u != nil {
				undos = append(undos, u)
			}
			delete(e.ruleUndo, r.ID)
			continue
		}
		kept = append(kept, r)
	}
	e.rules = kept
	e.mu.Unlock()
	for _, u := range undos {
		u()
	}
	return nil
}

// DeleteRule removes a switch rule by id (invoked via delete()),
// undoing its port configuration.
func (e *ETH) DeleteRule(id string) error {
	e.mu.Lock()
	for i, r := range e.rules {
		if r.ID != id {
			continue
		}
		e.rules = append(e.rules[:i], e.rules[i+1:]...)
		undo := e.ruleUndo[id]
		delete(e.ruleUndo, id)
		e.mu.Unlock()
		if undo != nil {
			undo()
		}
		return nil
	}
	e.mu.Unlock()
	return fmt.Errorf("%s: no switch rule %q", e.Ref(), id)
}

// ifaceOf resolves a physical pipe id to its kernel interface.
func (e *ETH) ifaceOf(pipe core.PipeID) (string, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.physPipes[pipe]
	return i, ok
}

// InstallSwitchRule implements device.Module. Router NIC rules ([up-pipe,
// phys-pipe]) need no kernel action — the routed interface is already
// live. Switch rules involving a VLAN module translate to CatOS port
// configuration once the VLAN module has settled on a VID.
func (e *ETH) InstallSwitchRule(r *device.SwitchRuleInstance) error {
	from, ok1 := e.Svc.PipeByID(r.Rule.From)
	to, ok2 := e.Svc.PipeByID(r.Rule.To)
	if !ok1 || !ok2 {
		return fmt.Errorf("%s: switch rule references unknown pipes", e.Ref())
	}
	phys, other := from, to
	if !phys.Physical {
		phys, other = to, from
	}
	if !phys.Physical {
		return fmt.Errorf("%s: ETH switch rules must involve a physical pipe", e.Ref())
	}
	if other.Physical && e.isSwitch {
		// [phy => phy] transit switching of tagged frames: the port VLAN
		// membership is protocol state only the VLAN module knows; a
		// path that bypasses it cannot be configured (the NM then picks
		// the canonical path through the VLAN module instead).
		return fmt.Errorf("%s: transit [phy => phy] switching needs the VLAN module in the path", e.Ref())
	}
	iface, ok := e.ifaceOf(phys.ID)
	if !ok {
		return fmt.Errorf("%s: physical pipe %s is not mine", e.Ref(), phys.ID)
	}

	// Which module is on the other side of the non-physical pipe?
	var counterpart core.ModuleRef
	if other.Upper.Module == e.Ref().Module {
		counterpart = other.Lower
	} else {
		counterpart = other.Upper
	}

	var undo func()
	if counterpart.Name == core.NameVLAN && e.isSwitch {
		var err error
		undo, err = e.installVLANPortRule(r, iface, counterpart)
		if err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.rules = append(e.rules, r)
	if undo != nil {
		e.ruleUndo[r.ID] = undo
	}
	e.mu.Unlock()
	return nil
}

// installVLANPortRule emits the CatOS port configuration for one side of
// a VLAN tunnel: rules classified "Tagged" mark the customer-facing QinQ
// tunnel port; unclassified rules mark trunk membership (Fig 9). The
// returned undo clears the port configuration this rule emitted.
func (e *ETH) installVLANPortRule(r *device.SwitchRuleInstance, iface string, vlanMod core.ModuleRef) (func(), error) {
	fields, err := e.Svc.LocalFields(vlanMod.Module, "self")
	if err != nil {
		return nil, err
	}
	vidStr := fields["vid"]
	if vidStr == "" {
		return nil, device.ErrPending // VID not negotiated yet
	}
	vid, err := strconv.Atoi(vidStr)
	if err != nil {
		return nil, fmt.Errorf("%s: bad vid %q from %s", e.Ref(), vidStr, vlanMod)
	}
	k := e.Svc.Kernel()

	key := fmt.Sprintf("%s/%d/%v", iface, vid, r.Rule.Match != nil)
	e.mu.Lock()
	e.vlanRefs[key]++
	first := e.vlanRefs[key] == 1
	e.mu.Unlock()

	// release drops this rule's claim on the port config and reports
	// whether it was the last one; only then may the kernel state go.
	release := func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		e.vlanRefs[key]--
		if e.vlanRefs[key] <= 0 {
			delete(e.vlanRefs, key)
			return true
		}
		return false
	}
	undo := func() {
		if release() {
			k.ClearPortVLAN(iface, uint16(vid))
		}
	}
	if !first {
		// The port config is already emitted on another rule's behalf;
		// this rule only holds a reference so teardown of one intent's
		// path cannot strip a membership a co-riding intent still uses.
		return undo, nil
	}

	if r.Rule.Match != nil && r.Rule.Match.Kind == "tagged" {
		// Customer-facing QinQ tunnel port.
		script := fmt.Sprintf("interface %s\nswitchport access vlan %d\nswitchport mode dot1q-tunnel\nexit", iface, vid)
		if _, err := k.ExecScript(script); err != nil {
			release()
			return nil, err
		}
		return undo, nil
	}
	// Trunk membership toward the next switch — unless the port is
	// already a customer tunnel/access port (the reverse rule of a
	// [Phy, Tagged => P] pair names the same port and must not
	// reconfigure it).
	if mode, _ := k.PortModeOf(iface); mode == kernel.ModeDot1qTunnel || mode == kernel.ModeAccess {
		release()
		return nil, nil
	}
	if _, err := k.Exec(fmt.Sprintf("set vlan %d %s", vid, iface)); err != nil {
		release()
		return nil, err
	}
	return undo, nil
}

// ListFields implements device.Module: physical pipe (or up-pipe) to
// interface-level fields.
func (e *ETH) ListFields(component string) (map[string]string, error) {
	if len(component) > 5 && component[:5] == "pipe:" {
		component = component[5:]
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if iface, ok := e.physPipes[core.PipeID(component)]; ok {
		return e.fieldsForIface(iface)
	}
	// A router NIC has exactly one interface: any up-pipe (even one still
	// being attached) or "self" maps onto it.
	if !e.isSwitch && len(e.ifaces) == 1 {
		return e.fieldsForIface(e.ifaces[0])
	}
	return nil, fmt.Errorf("%s: unknown component %q", e.Ref(), component)
}

func (e *ETH) fieldsForIface(iface string) (map[string]string, error) {
	out := map[string]string{"dev": iface}
	if mac, ok := e.Svc.Kernel().PortMAC(iface); ok {
		out["mac"] = mac.String()
	}
	return out, nil
}

// SelfTest implements device.Module: checks the physical pipe is attached
// and carrying frames.
func (e *ETH) SelfTest(pipe core.PipeID) (bool, string) {
	iface, ok := e.ifaceOf(pipe)
	if !ok {
		return false, fmt.Sprintf("no physical pipe %s", pipe)
	}
	rx, tx := e.Svc.Kernel().IfaceCounters(iface)
	return true, fmt.Sprintf("iface %s rx=%d tx=%d", iface, rx, tx)
}

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

	mu       sync.Mutex
	isSwitch bool
	ifaces   []string // kernel port names, sorted
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
		isSwitch: isSwitch,
		ifaces:   slices.Clone(ifaces),
		vlanRefs: make(map[string]int),
	}
	slices.Sort(e.ifaces)
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
		ma.RegisterPhysicalPipe(&device.Pipe{
			ID:       PhysPipeID(iface),
			Lower:    e.Ref(), // the ETH module owns its physical pipes
			Status:   core.PipeUp,
			Physical: true,
			Iface:    iface,
			External: ext[iface],
		})
	}
}

// PhysPipeID names the physical pipe of an interface.
func PhysPipeID(iface string) core.PipeID {
	return core.PipeID("Phy-" + iface)
}

// Abstraction implements device.Module (paper Table II/IV).
func (e *ETH) Abstraction() core.Abstraction {
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
	// Sorted ifaces give physical pipes in id order.
	for _, iface := range e.ifaces {
		if p, ok := e.physPipe(PhysPipeID(iface)); ok {
			a.Physical = append(a.Physical, core.PhysicalPipeInfo{
				Pipe:     p.ID,
				Enabled:  true,
				External: p.External,
				// Peer fields are filled by the NM from topology reports.
			})
		}
	}
	return a
}

// Actual implements device.Module.
func (e *ETH) Actual() core.ModuleState {
	st := core.ModuleState{Ref: e.Ref(), LowLevel: map[string]string{}}
	for _, iface := range e.ifaces {
		if _, ok := e.physPipe(PhysPipeID(iface)); ok {
			st.LowLevel["iface:"+iface] = iface
		}
	}
	return st
}

// PipeAttached implements device.Module.
func (e *ETH) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	// Only switch ETH modules accept a module "below" them (the VLAN
	// dance of Fig 9b); nothing to do until the switch rule.
	if side == device.SideUpper && !e.isSwitch {
		return fmt.Errorf("%s: router ETH has no down pipes", e.Ref())
	}
	return nil
}

// physPipe resolves one of this module's physical pipes.
func (e *ETH) physPipe(id core.PipeID) (*device.Pipe, bool) {
	p, side, ok := e.OwnPipe(id)
	return p, ok && side == device.SideLower && p.Physical
}

// InstallSwitchRule implements device.Module. Router NIC rules ([up-pipe,
// phys-pipe]) need no kernel action — the routed interface is already
// live. Switch rules involving a VLAN module translate to CatOS port
// configuration once the VLAN module has settled on a VID.
func (e *ETH) InstallSwitchRule(r *device.SwitchRuleInstance) (func(), error) {
	from, ok1 := e.Svc.PipeByID(r.Rule.From)
	to, ok2 := e.Svc.PipeByID(r.Rule.To)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("%s: switch rule references unknown pipes", e.Ref())
	}
	phys, other := from, to
	if !phys.Physical {
		phys, other = to, from
	}
	if !phys.Physical {
		return nil, fmt.Errorf("%s: ETH switch rules must involve a physical pipe", e.Ref())
	}
	if other.Physical && e.isSwitch {
		// [phy => phy] transit switching of tagged frames: the port VLAN
		// membership is protocol state only the VLAN module knows; a
		// path that bypasses it cannot be configured (the NM then picks
		// the canonical path through the VLAN module instead).
		return nil, fmt.Errorf("%s: transit [phy => phy] switching needs the VLAN module in the path", e.Ref())
	}
	if phys.Lower.Module != e.Ref().Module {
		return nil, fmt.Errorf("%s: physical pipe %s is not mine", e.Ref(), phys.ID)
	}

	// Which module is on the other side of the non-physical pipe?
	var counterpart core.ModuleRef
	if other.Upper.Module == e.Ref().Module {
		counterpart = other.Lower
	} else {
		counterpart = other.Upper
	}

	if counterpart.Name == core.NameVLAN && e.isSwitch {
		return e.installVLANPortRule(r, phys.Iface, counterpart)
	}
	return nil, nil
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
	if p, ok := e.physPipe(core.PipeID(component)); ok {
		return e.fieldsForIface(p.Iface)
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
	p, ok := e.physPipe(pipe)
	if !ok {
		return false, fmt.Sprintf("no physical pipe %s", pipe)
	}
	rx, tx := e.Svc.Kernel().IfaceCounters(p.Iface)
	return true, fmt.Sprintf("iface %s rx=%d tx=%d", p.Iface, rx, tx)
}

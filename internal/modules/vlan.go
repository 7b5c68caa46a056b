package modules

import (
	"fmt"
	"strings"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
)

// VLAN models the 802.1Q VLAN module on an L2 switch (Fig 9). The VLAN
// identifier, name and MTU are coordinated hop-by-hop between neighbouring
// VLAN modules through the management channel (the endpoint module with
// the smaller reference allocates them, and each hop passes them on);
// switch rules then translate to the CatOS `set vlan` definition, while
// the ETH module emits the port configuration.
type VLAN struct {
	device.BaseModule
	vids *device.Exchange // one-way "vlan-vid" with neighbouring VLAN modules

	mu sync.Mutex
	// vidBase seeds the allocator (the Fig 9 experiment uses 22).
	vidBase uint16
	vid     uint16
	name    string
	mtu     int

	// notified records the far end's "vlan-established" report.
	notified bool
	// defRefs counts the installed rules holding the CatOS VLAN
	// definition: the first emits it, the last one's undo removes it.
	defRefs int
}

// vlanMsg is the convey body of the VID coordination.
type vlanMsg struct {
	VID  uint16 `json:"vid"`
	Name string `json:"name"`
	MTU  int    `json:"mtu"`
}

// NewVLAN creates a VLAN module. name/mtu are used when this module ends
// up allocating the VLAN (customer name "C1", MTU 1504 in Fig 9).
func NewVLAN(svc device.Services, id core.ModuleID, vidBase uint16, name string, mtu int) *VLAN {
	v := &VLAN{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameVLAN, svc.Device(), id),
			Svc:    svc,
		},
		vidBase: vidBase,
		name:    name,
		mtu:     mtu,
	}
	// One-way: whichever end of a hop holds the VID sends it on.
	v.vids = device.OneWay("vlan-vid", v.offer, v.accept)
	svc.Declare(v.Ref(), v.vids)
	return v
}

// Abstraction implements device.Module.
func (v *VLAN) Abstraction() core.Abstraction {
	return core.Abstraction{
		Ref:      v.Ref(),
		Kind:     core.KindData,
		Up:       core.PipeSpec{Connectable: []core.ModuleName{core.NameETH}},
		Down:     core.PipeSpec{Connectable: []core.ModuleName{core.NameETH}},
		Peerable: []core.ModuleName{core.NameVLAN},
		Switch: core.SwitchSpec{
			Modes: []core.SwitchMode{
				core.SwUpDown, core.SwDownUp, core.SwDownDown,
			},
			StateSource: core.StateLocal,
		},
		PerfReporting: []string{"rx-packets/pipe", "tx-packets/pipe"},
	}
}

// Actual implements device.Module: the parameters ListFields resolves.
func (v *VLAN) Actual() core.ModuleState {
	fields, _ := v.ListFields("self")
	return core.ModuleState{Ref: v.Ref(), LowLevel: fields}
}

// PipeAttached implements device.Module.
func (v *VLAN) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	if side == device.SideUpper {
		// P2-style neighbour pipe: coordinate the VID hop-by-hop.
		if peer := p.UpperPeer; !peer.IsZero() && peer.Name == core.NameVLAN {
			v.vids.With(peer)
		}
		return nil
	}
	// P1-style endpoint pipe (ETH above us, far VLAN peer): if we are
	// the smaller endpoint we allocate the VLAN. The exchanges waiting
	// for it go out when the MA retries them after this command.
	peer := p.LowerPeer
	if !peer.IsZero() && peer.Name == core.NameVLAN && v.Ref().String() < peer.String() {
		v.mu.Lock()
		if v.vid == 0 {
			v.vid = v.vidBase
		}
		v.mu.Unlock()
	}
	return nil
}

// offer is the vlan-vid offer: the VID, once this module holds one.
func (v *VLAN) offer(core.ModuleRef) (vlanMsg, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.vid == 0 {
		return vlanMsg{}, device.ErrPending
	}
	return vlanMsg{VID: v.vid, Name: v.name, MTU: v.mtu}, nil
}

// accept adopts the peer's VID if this module holds none yet.
func (v *VLAN) accept(_ core.ModuleRef, x vlanMsg) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.vid == 0 {
		v.vid, v.name, v.mtu = x.VID, x.Name, x.MTU
	}
	return nil
}

// InstallSwitchRule implements device.Module: emits the CatOS VLAN
// definition once the VID is settled (`set vlan 22 name C1 mtu 1504`).
// The returned undo removes the definition once no rule holds it, so a
// later re-Apply re-emits it.
func (v *VLAN) InstallSwitchRule(r *device.SwitchRuleInstance) (func(), error) {
	v.mu.Lock()
	vid, name, mtu := v.vid, v.name, v.mtu
	if vid == 0 {
		v.mu.Unlock()
		return nil, device.ErrPending
	}
	v.defRefs++
	emit := v.defRefs == 1
	v.mu.Unlock()
	k := v.Svc.Kernel()
	undo := func() {
		v.mu.Lock()
		v.defRefs--
		last := v.defRefs == 0
		v.mu.Unlock()
		if last {
			k.UndefineVLAN(vid)
		}
	}
	if emit {
		if _, err := k.Exec(fmt.Sprintf("set vlan %d name %s mtu %d", vid, name, mtu)); err != nil {
			undo()
			return nil, err
		}
	}
	// Asked outside v.mu: the exchange's lock orders before the module's.
	pure := v.vids.PureResponder()
	v.mu.Lock()
	notify := pure && !v.notified
	if notify {
		v.notified = true
	}
	v.mu.Unlock()
	if notify {
		// Far-end pure responder: report establishment (Table VI's one
		// unsolicited received message).
		_ = v.Svc.Notify(v.Ref(), "vlan-established", fmt.Sprintf("vid %d configured", vid))
	}
	// The ETH module's port rules may be waiting on our VID.
	v.Svc.Kick()
	return undo, nil
}

// ListFields implements device.Module: the negotiated VLAN parameters for
// the co-located ETH module.
func (v *VLAN) ListFields(component string) (map[string]string, error) {
	comp := strings.TrimPrefix(component, "pipe:")
	if _, _, ok := v.OwnPipe(core.PipeID(comp)); ok || comp == "self" {
		v.mu.Lock()
		defer v.mu.Unlock()
		out := map[string]string{}
		if v.vid != 0 {
			out["vid"] = fmt.Sprintf("%d", v.vid)
			out["vlan-name"] = v.name
			out["mtu"] = fmt.Sprintf("%d", v.mtu)
		}
		return out, nil
	}
	return nil, fmt.Errorf("%s: unknown component %q", v.Ref(), component)
}

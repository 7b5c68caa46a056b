package modules

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"conman/internal/core"
	"conman/internal/device"
)

// VLAN models the 802.1Q VLAN module on an L2 switch (Fig 9). The VLAN
// identifier, name and MTU are coordinated hop-by-hop between neighbouring
// VLAN modules through the management channel (the endpoint module with
// the smaller reference allocates them); switch rules then translate to
// the CatOS `set vlan` definition, while the ETH module emits the port
// configuration.
type VLAN struct {
	device.BaseModule

	mu sync.Mutex
	// vidBase seeds the allocator (the Fig 9 experiment uses 22).
	vidBase uint16
	vid     uint16
	name    string
	mtu     int

	endpoint     bool // has a customer-facing pipe (P1-style)
	farPeer      core.ModuleRef
	pendingPeers []core.ModuleRef // exchanges waiting for the VID
	exchanged    map[string]bool
	initiatedAny bool
	responded    bool
	notified     bool
	// defRefs counts the installed rules holding the CatOS VLAN
	// definition: the first emits it, the last one's undo removes it.
	defRefs int
}

// vlanMsg is the convey body of the VID coordination.
type vlanMsg struct {
	VID   uint16 `json:"vid"`
	Name  string `json:"name"`
	MTU   int    `json:"mtu"`
	Reply bool   `json:"reply"`
}

// NewVLAN creates a VLAN module. name/mtu are used when this module ends
// up allocating the VLAN (customer name "C1", MTU 1504 in Fig 9).
func NewVLAN(svc device.Services, id core.ModuleID, vidBase uint16, name string, mtu int) *VLAN {
	return &VLAN{
		BaseModule: device.BaseModule{
			ModRef: core.Ref(core.NameVLAN, svc.Device(), id),
			Svc:    svc,
		},
		vidBase:   vidBase,
		name:      name,
		mtu:       mtu,
		exchanged: make(map[string]bool),
	}
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

// Actual implements device.Module.
func (v *VLAN) Actual() core.ModuleState {
	v.mu.Lock()
	defer v.mu.Unlock()
	st := core.ModuleState{Ref: v.Ref(), LowLevel: map[string]string{}}
	if v.vid != 0 {
		st.LowLevel["vid"] = fmt.Sprintf("%d", v.vid)
		st.LowLevel["vlan-name"] = v.name
		st.LowLevel["mtu"] = fmt.Sprintf("%d", v.mtu)
	}
	return st
}

// PipeAttached implements device.Module.
func (v *VLAN) PipeAttached(p *device.Pipe, side device.PipeSide) error {
	v.mu.Lock()
	var myPeer core.ModuleRef
	if side == device.SideLower {
		myPeer = p.LowerPeer
	} else {
		myPeer = p.UpperPeer
	}
	if !myPeer.IsZero() && myPeer.Name == core.NameVLAN {
		if side == device.SideLower {
			// P1-style endpoint pipe (ETH above us, far VLAN peer): if
			// we are the smaller endpoint we allocate the VLAN.
			v.endpoint = true
			v.farPeer = myPeer
			if v.Ref().String() < myPeer.String() && v.vid == 0 {
				v.vid = v.vidBase
			}
		} else {
			// P2-style neighbour pipe: coordinate the VID hop-by-hop.
			// Either side may initiate once it knows the VID. Restricting
			// initiation to the smaller reference (as first written)
			// deadlocks on arbitrary topologies: when the allocating
			// endpoint's chain reaches a hop whose VID-less side has the
			// smaller reference, the knowing side never speaks and the
			// ignorant side has nothing to say. The exchanged set keeps
			// the handshake to one exchange per pair regardless of who
			// fires first.
			if !v.exchanged[myPeer.String()] {
				v.pendingPeers = append(v.pendingPeers, myPeer)
			}
		}
	}
	v.mu.Unlock()
	v.tryExchanges()
	return nil
}

// tryExchanges sends VID coordination messages for which the VID is known.
func (v *VLAN) tryExchanges() {
	v.mu.Lock()
	peers, body := v.claimExchangesLocked()
	v.mu.Unlock()
	v.sendExchanges(peers, body)
}

// claimExchangesLocked takes every pending peer the module can initiate
// to now that it knows the VID, marking each exchanged and the module an
// initiator before any message leaves. Caller holds v.mu and sends the
// returned exchanges after releasing it.
func (v *VLAN) claimExchangesLocked() ([]core.ModuleRef, vlanMsg) {
	if v.vid == 0 {
		return nil, vlanMsg{}
	}
	var peers []core.ModuleRef
	for _, peer := range v.pendingPeers {
		if v.exchanged[peer.String()] {
			continue
		}
		v.exchanged[peer.String()] = true
		v.initiatedAny = true
		peers = append(peers, peer)
	}
	v.pendingPeers = nil
	return peers, vlanMsg{VID: v.vid, Name: v.name, MTU: v.mtu}
}

func (v *VLAN) sendExchanges(peers []core.ModuleRef, body vlanMsg) {
	for _, peer := range peers {
		_ = v.Svc.Convey(v.Ref(), peer, "vlan-vid", body)
	}
}

// HandleConvey implements device.Module.
func (v *VLAN) HandleConvey(from core.ModuleRef, kind string, body []byte) error {
	if kind != "vlan-vid" {
		return nil
	}
	var x vlanMsg
	if err := json.Unmarshal(body, &x); err != nil {
		return err
	}
	var reply bool
	v.mu.Lock()
	if v.vid == 0 {
		v.vid = x.VID
		v.name = x.Name
		v.mtu = x.MTU
	}
	if !x.Reply {
		v.responded = true
		reply = true
	}
	v.exchanged[from.String()] = true
	resp := vlanMsg{VID: v.vid, Name: v.name, MTU: v.mtu, Reply: true}
	// Claimed in the critical section that sets responded: a rule
	// installing concurrently decides "pure responder" (InstallSwitchRule's
	// establishment notify) from responded and initiatedAny together, and
	// must not see the first without the second.
	peers, offer := v.claimExchangesLocked()
	v.mu.Unlock()
	if reply {
		_ = v.Svc.Convey(v.Ref(), from, "vlan-vid", resp)
	}
	v.sendExchanges(peers, offer)
	v.Svc.Kick()
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
	v.mu.Lock()
	notify := v.responded && !v.initiatedAny && !v.notified
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

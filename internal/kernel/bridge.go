package kernel

import (
	"conman/internal/packet"
)

// PortMode is the 802.1Q role of a switch port.
type PortMode uint8

const (
	ModeUnconfigured PortMode = iota
	// ModeAccess ports belong to one VLAN and carry untagged frames.
	ModeAccess
	// ModeTrunk ports carry 802.1Q-tagged frames for their allowed VLANs.
	ModeTrunk
	// ModeDot1qTunnel ports are QinQ tunnel endpoints: everything
	// arriving (including customer-tagged frames) is mapped into the
	// access VLAN, and the outer tag is pushed/popped at trunk/tunnel
	// boundaries (Cisco's `switchport mode dot1q-tunnel`, Fig 9).
	ModeDot1qTunnel
)

func (m PortMode) String() string {
	switch m {
	case ModeAccess:
		return "access"
	case ModeTrunk:
		return "trunk"
	case ModeDot1qTunnel:
		return "dot1q-tunnel"
	default:
		return "unconfigured"
	}
}

type switchPort struct {
	Mode      PortMode
	AccessVID uint16
	TrunkVIDs map[uint16]bool
}

type vlanDef struct {
	Name string
	MTU  int
}

type fdbKey struct {
	vid uint16
	mac packet.MAC
}

type bridgeState struct {
	vlans     map[uint16]*vlanDef
	ports     map[string]*switchPort
	fdb       map[fdbKey]string
	tagNative bool
}

func newBridgeState() bridgeState {
	return bridgeState{
		vlans: make(map[uint16]*vlanDef),
		ports: make(map[string]*switchPort),
		fdb:   make(map[fdbKey]string),
	}
}

func (b *bridgeState) port(name string) *switchPort {
	p, ok := b.ports[name]
	if !ok {
		p = &switchPort{TrunkVIDs: make(map[uint16]bool)}
		b.ports[name] = p
	}
	return p
}

// DefineVLAN creates or updates a VLAN definition.
func (k *Kernel) DefineVLAN(vid uint16, name string, mtu int) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, ok := k.bridge.vlans[vid]
	if !ok {
		v = &vlanDef{}
		k.bridge.vlans[vid] = v
	}
	if name != "" {
		v.Name = name
	}
	if mtu > 0 {
		v.MTU = mtu
	}
}

// SetPortAccess configures a switch port as an access (or QinQ tunnel)
// member of a VLAN. Membership changes flush the VLAN's learned
// entries (see flushVID).
func (k *Kernel) SetPortAccess(port string, vid uint16, tunnel bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.bridge.port(port)
	p.AccessVID = vid
	if tunnel {
		p.Mode = ModeDot1qTunnel
	} else {
		p.Mode = ModeAccess
	}
	k.bridge.flushVID(vid)
}

// SetPortTrunk adds a VLAN to a port's trunk allow-list and flushes the
// VLAN's learned entries (see flushVID).
func (k *Kernel) SetPortTrunk(port string, vid uint16) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p := k.bridge.port(port)
	p.Mode = ModeTrunk
	p.TrunkVIDs[vid] = true
	k.bridge.flushVID(vid)
}

// flushVID drops a VLAN's learned forwarding entries. Any membership
// change is a topology change for that VLAN: entries learned under the
// old membership may point away from the new path (a switch that keeps
// a port in the VLAN for one service while another service's path
// swings to a different port would otherwise steer the second
// service's unicast frames down the old direction forever — the
// simulator has no aging clock to expire them). Caller holds k.mu.
func (b *bridgeState) flushVID(vid uint16) {
	for key := range b.fdb {
		if key.vid == vid {
			delete(b.fdb, key)
		}
	}
}

// ClearPortVLAN undoes a port's membership in a VLAN: access/QinQ ports
// of the VLAN become unconfigured; trunk ports drop the VLAN from their
// allow-list (and become unconfigured when the list empties). Learned
// FDB entries for the VLAN are flushed.
func (k *Kernel) ClearPortVLAN(port string, vid uint16) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.bridge.ports[port]
	if ok {
		switch p.Mode {
		case ModeAccess, ModeDot1qTunnel:
			if p.AccessVID == vid {
				p.Mode = ModeUnconfigured
				p.AccessVID = 0
			}
		case ModeTrunk:
			delete(p.TrunkVIDs, vid)
			if len(p.TrunkVIDs) == 0 {
				p.Mode = ModeUnconfigured
			}
		}
	}
	k.bridge.flushVID(vid)
}

// FlushFDB drops every learned forwarding entry, as a bridge fast-ages
// its table on a topology change (802.1D's topology-change
// notification). Without this, a unicast flow whose path moved keeps
// following entries learned before the failure — frames steered into a
// dead link with no aging clock to ever recover them.
func (k *Kernel) FlushFDB() {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.bridge.fdb = make(map[fdbKey]string)
}

// UndefineVLAN removes a VLAN definition and flushes its FDB entries.
// Port memberships are cleared separately via ClearPortVLAN.
func (k *Kernel) UndefineVLAN(vid uint16) {
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.bridge.vlans, vid)
	for key := range k.bridge.fdb {
		if key.vid == vid {
			delete(k.bridge.fdb, key)
		}
	}
}

// PortModeOf reports a switch port's configuration.
func (k *Kernel) PortModeOf(port string) (PortMode, uint16) {
	k.mu.Lock()
	defer k.mu.Unlock()
	p, ok := k.bridge.ports[port]
	if !ok {
		return ModeUnconfigured, 0
	}
	return p.Mode, p.AccessVID
}

// VLANOf returns a VLAN definition.
func (k *Kernel) VLANOf(vid uint16) (name string, mtu int, ok bool) {
	k.mu.Lock()
	defer k.mu.Unlock()
	v, found := k.bridge.vlans[vid]
	if !found {
		return "", 0, false
	}
	return v.Name, v.MTU, true
}

// bridgeInput handles one frame on a switch-role device.
func (k *Kernel) bridgeInput(ingress string, eth packet.Ethernet, frame []byte) {
	k.mu.Lock()
	sp, ok := k.bridge.ports[ingress]
	if !ok || sp.Mode == ModeUnconfigured {
		k.mu.Unlock()
		return
	}

	var vid uint16
	inner := frame
	switch sp.Mode {
	case ModeAccess, ModeDot1qTunnel:
		vid = sp.AccessVID
		// The whole frame — customer tags included — is the payload of
		// the VLAN (that is the QinQ tunnel behaviour; plain access
		// ports carry untagged frames, which look identical here).
	case ModeTrunk:
		if eth.Type != packet.EtherTypeDot1Q {
			k.mu.Unlock()
			return // untagged frame on trunk without native VLAN: drop
		}
		tag, _, _, err := packet.DecodeDot1Q(frame[14:])
		if err != nil || !sp.TrunkVIDs[tag.VID] {
			k.mu.Unlock()
			return
		}
		vid = tag.VID
		// Strip the outer tag: 12 bytes of MACs + inner EtherType + rest.
		stripped := make([]byte, 0, len(frame)-4)
		stripped = append(stripped, frame[:12]...)
		stripped = append(stripped, frame[16:]...)
		inner = stripped
	}

	// Enforce the VLAN MTU (the paper's `mtu 1504` line exists exactly so
	// QinQ inner tags fit).
	if v, ok := k.bridge.vlans[vid]; ok && v.MTU > 0 && len(inner)-14 > v.MTU {
		k.mu.Unlock()
		return
	}

	// Learn the source, then pick egress ports.
	k.bridge.fdb[fdbKey{vid, eth.Src}] = ingress
	var egress []string
	if !eth.Dst.IsBroadcast() {
		if p, ok := k.bridge.fdb[fdbKey{vid, eth.Dst}]; ok && p != ingress {
			egress = []string{p}
		}
	}
	if egress == nil {
		for name, p := range k.bridge.ports {
			if name == ingress {
				continue
			}
			switch p.Mode {
			case ModeAccess, ModeDot1qTunnel:
				if p.AccessVID == vid {
					egress = append(egress, name)
				}
			case ModeTrunk:
				if p.TrunkVIDs[vid] {
					egress = append(egress, name)
				}
			}
		}
	}
	// Snapshot modes for the sends outside the lock.
	type out struct {
		port string
		mode PortMode
	}
	outs := make([]out, 0, len(egress))
	for _, name := range egress {
		outs = append(outs, out{name, k.bridge.ports[name].Mode})
		if i, ok := k.ifaces[name]; ok {
			i.TxPkts++
		}
	}
	k.mu.Unlock()

	for _, o := range outs {
		switch o.mode {
		case ModeAccess, ModeDot1qTunnel:
			_ = k.send(o.port, inner)
		case ModeTrunk:
			tagged := make([]byte, 0, len(inner)+4)
			tagged = append(tagged, inner[:12]...)
			var tag [4]byte
			tag[0], tag[1] = byte(packet.EtherTypeDot1Q>>8), byte(packet.EtherTypeDot1Q&0xff)
			tag[2], tag[3] = byte(vid>>8), byte(vid&0xff)
			tagged = append(tagged, tag[:]...)
			tagged = append(tagged, inner[12:]...)
			_ = k.send(o.port, tagged)
		}
	}
}

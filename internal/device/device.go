package device

import (
	"fmt"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/kernel"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/packet"
)

// Device bundles one simulated network element: its netsim ports, kernel,
// and management agent. Protocol modules are registered on top.
type Device struct {
	ID     core.DeviceID
	Net    *netsim.Network
	Kernel *kernel.Kernel
	MA     *MA

	ports    []string
	external map[string]bool
	flood    *channel.FloodNode
}

// New creates a device with the given forwarding role and physical ports,
// wiring the kernel into the network.
func New(net *netsim.Network, id core.DeviceID, role kernel.Role, ports ...string) (*Device, error) {
	d := &Device{ID: id, Net: net, ports: ports, external: make(map[string]bool)}
	k := kernel.New(id, role,
		func(port string, frame []byte) error {
			return net.Send(netsim.PortID{Device: id, Name: port}, frame)
		},
		func(port string) (packet.MAC, bool) {
			m, err := net.PortMAC(netsim.PortID{Device: id, Name: port})
			return m, err == nil
		})
	k.Quiesce = net.Flush
	d.Kernel = k
	net.AddDevice(id, k)
	for _, p := range ports {
		if _, err := net.AddPort(id, p); err != nil {
			return nil, err
		}
		k.AddPhysical(p)
	}
	d.MA = NewMA(id, k, d.portReports)
	// Link-state interrupt: a wire going up or down re-reports topology
	// to the NM unprompted, so reconciliation can react without polling
	// (§III-C.2's failure detection), and a wire coming back lets the
	// modules resend what it lost. Errors are ignored — the channel may
	// not be attached yet, or the NM may be gone.
	net.OnCarrierChange(id, func() { _ = d.MA.CarrierChanged() })
	// 802.1D topology-change behaviour: every bridge in the domain
	// fast-ages its forwarding table when any link flips, adjacent or
	// not. Entries learned before the change may steer unicast frames
	// into the failed direction, and the simulator has no aging clock
	// to expire them.
	net.OnTopologyChange(id, k.FlushFDB)
	return d, nil
}

// MarkExternal flags a customer-facing port: the device knows from
// provisioning that the far end is outside the managed domain.
func (d *Device) MarkExternal(port string) { d.external[port] = true }

// Ports returns the device's physical port names.
func (d *Device) Ports() []string { return append([]string(nil), d.ports...) }

// IsExternal reports whether a port is customer-facing.
func (d *Device) IsExternal(port string) bool { return d.external[port] }

func (d *Device) portReports() []msg.PortReport {
	var out []msg.PortReport
	for _, p := range d.ports {
		id := netsim.PortID{Device: d.ID, Name: p}
		mac, _ := d.Net.PortMAC(id)
		rep := msg.PortReport{
			Name:     p,
			MAC:      mac.String(),
			Attached: d.Net.Attached(id),
			External: d.external[p],
		}
		if peers, err := d.Net.Neighbor(id); err == nil && len(peers) > 0 {
			rep.PeerDevice = peers[0].Device
			rep.PeerPort = peers[0].Name
		}
		out = append(out, rep)
	}
	return out
}

// FloodNode returns (creating on first use) the device's attachment to the
// self-bootstrapping management channel and registers it with the kernel.
func (d *Device) FloodNode() *channel.FloodNode {
	if d.flood == nil {
		id := d.ID
		ports := append([]string(nil), d.ports...)
		d.flood = channel.NewFloodNode(id,
			func(port string, frame []byte) error {
				return d.Net.Send(netsim.PortID{Device: id, Name: port}, frame)
			},
			func() []string { return ports })
		d.Kernel.RegisterEtherType(packet.EtherTypeMgmt, d.flood.HandleMgmtFrame)
		// In-band management requests are handled inside the netsim pump,
		// where waiting for the pump to drain would wait on itself: a
		// self-test there reads what has been delivered so far.
		d.Kernel.Quiesce = nil
	}
	return d.flood
}

// AddModule registers a protocol module with the MA.
func (d *Device) AddModule(m Module) { d.MA.Register(m) }

// PortMAC returns a port's MAC address.
func (d *Device) PortMAC(port string) (packet.MAC, error) {
	return d.Net.PortMAC(netsim.PortID{Device: d.ID, Name: port})
}

// String implements fmt.Stringer.
func (d *Device) String() string { return fmt.Sprintf("device(%s)", d.ID) }

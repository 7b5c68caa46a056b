// Package netsim is the physical substrate of the reproduction: devices
// with named ports (NICs), point-to-point links and broadcast buses, and
// deterministic frame delivery. It stands in for the Ethernet-connected
// Linux testbed of the paper's §III-A.
//
// Delivery model: Send enqueues a frame for every other live port on the
// medium; a single FIFO queue is then pumped until quiescence, invoking
// each receiving device's FrameHandler synchronously. Handlers may call
// Send re-entrantly (forwarding); the pump guard turns that into iterative
// queue growth rather than recursion, so simulations are deterministic and
// cannot blow the stack. A step limit bounds broadcast storms.
package netsim

import (
	"fmt"
	"sort"
	"sync"

	"conman/internal/core"
	"conman/internal/packet"
)

// PortID names a port globally: device plus interface name.
type PortID struct {
	Device core.DeviceID
	Name   string // e.g. "eth0", "gigabitethernet0/7"
}

func (p PortID) String() string { return string(p.Device) + ":" + p.Name }

// Port is one attachment point of a device to a medium.
type Port struct {
	ID     PortID
	MAC    packet.MAC
	medium *Medium
}

// Medium connects two or more ports: a point-to-point link (2 ports) or a
// broadcast bus (>2). Media can be taken down for fault injection.
type Medium struct {
	Name  string
	ports []*Port
	up    bool
}

// Up reports whether the medium is currently passing frames.
func (m *Medium) Up() bool { return m.up }

// Ports returns the identifiers of the attached ports.
func (m *Medium) Ports() []PortID {
	ids := make([]PortID, len(m.ports))
	for i, p := range m.ports {
		ids[i] = p.ID
	}
	return ids
}

// Broadcast reports whether the medium attaches more than two ports.
func (m *Medium) Broadcast() bool { return len(m.ports) > 2 }

// FrameHandler is implemented by devices: it receives every frame
// delivered to one of the device's ports.
type FrameHandler interface {
	HandleFrame(port string, frame []byte)
}

// Capture is one captured frame on a medium.
type Capture struct {
	Seq   int
	From  PortID
	Bytes []byte
}

type delivery struct {
	to    *Port
	frame []byte
}

// Network is the collection of devices, ports and media, plus the
// delivery queue.
type Network struct {
	mu       sync.Mutex
	quiet    *sync.Cond // signalled when the pump drains the queue
	handlers map[core.DeviceID]FrameHandler
	ports    map[PortID]*Port
	media    map[string]*Medium
	carrier  map[core.DeviceID]func()
	tcn      map[core.DeviceID]func()
	queue    []delivery
	pumping  bool
	seq      int
	macSeq   uint32
	captures map[string][]Capture
	capture  map[string]bool
	// LossFunc, when set, is consulted per delivery; returning true drops
	// the frame (failure injection for tests).
	LossFunc func(to PortID, frame []byte) bool
	// MaxSteps bounds a single pump run. Exceeding it panics: a
	// forwarding loop is a bug in the configuration under test.
	MaxSteps int

	txCount map[PortID]uint64
	rxCount map[PortID]uint64
}

// New creates an empty network.
func New() *Network {
	n := &Network{
		handlers: make(map[core.DeviceID]FrameHandler),
		ports:    make(map[PortID]*Port),
		media:    make(map[string]*Medium),
		carrier:  make(map[core.DeviceID]func()),
		tcn:      make(map[core.DeviceID]func()),
		captures: make(map[string][]Capture),
		capture:  make(map[string]bool),
		MaxSteps: 1_000_000,
		txCount:  make(map[PortID]uint64),
		rxCount:  make(map[PortID]uint64),
	}
	n.quiet = sync.NewCond(&n.mu)
	return n
}

// Flush blocks until the network is quiescent: no pump is running and
// the delivery queue is empty. A Send racing an active pump enqueues
// into that pump and returns immediately, so concurrent data-plane
// tests (parallel probe sweeps, SelfTest fan-out) call Flush to get a
// deterministic read-after-send barrier before inspecting delivery
// state.
func (n *Network) Flush() {
	n.mu.Lock()
	for n.pumping || len(n.queue) > 0 {
		n.quiet.Wait()
	}
	n.mu.Unlock()
}

// AddDevice registers a frame handler for a device. Ports may be added
// before or after.
func (n *Network) AddDevice(id core.DeviceID, h FrameHandler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handlers[id] = h
}

// AddPort creates a port on a device with a deterministic locally
// administered MAC address.
func (n *Network) AddPort(dev core.DeviceID, name string) (*Port, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	id := PortID{Device: dev, Name: name}
	if _, ok := n.ports[id]; ok {
		return nil, fmt.Errorf("netsim: port %s already exists", id)
	}
	n.macSeq++
	p := &Port{
		ID:  id,
		MAC: packet.MAC{0x02, 0x00, 0x5e, byte(n.macSeq >> 16), byte(n.macSeq >> 8), byte(n.macSeq)},
	}
	n.ports[id] = p
	return p, nil
}

// PortMAC returns the MAC address of a port.
func (n *Network) PortMAC(id PortID) (packet.MAC, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.ports[id]
	if !ok {
		return packet.MAC{}, fmt.Errorf("netsim: no port %s", id)
	}
	return p.MAC, nil
}

// Connect joins ports into a medium. Two ports form a point-to-point
// link; more form a broadcast bus. All ports must exist and be unattached.
func (n *Network) Connect(name string, ids ...PortID) (*Medium, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.connectLocked(name, ids...)
}

// WireSpec names one point-to-point wire of a batch.
type WireSpec struct {
	Name string
	A, B PortID
}

// ConnectAll joins every wire of a generated fabric under one lock
// acquisition — the batch path for topology generators, where wiring a
// few thousand media one Connect call at a time is measurable setup
// cost. The batch is atomic in naming only: on error, wires connected
// before the failing spec stay connected.
func (n *Network) ConnectAll(wires []WireSpec) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, w := range wires {
		if _, err := n.connectLocked(w.Name, w.A, w.B); err != nil {
			return err
		}
	}
	return nil
}

func (n *Network) connectLocked(name string, ids ...PortID) (*Medium, error) {
	if len(ids) < 2 {
		return nil, fmt.Errorf("netsim: medium %q needs at least 2 ports", name)
	}
	if _, ok := n.media[name]; ok {
		return nil, fmt.Errorf("netsim: medium %q already exists", name)
	}
	m := &Medium{Name: name, up: true}
	for _, id := range ids {
		p, ok := n.ports[id]
		if !ok {
			return nil, fmt.Errorf("netsim: no port %s", id)
		}
		if p.medium != nil {
			return nil, fmt.Errorf("netsim: port %s already attached to %q", id, p.medium.Name)
		}
		m.ports = append(m.ports, p)
	}
	for _, p := range m.ports {
		p.medium = m
	}
	n.media[name] = m
	return m, nil
}

// SetMediumUp raises or cuts a medium (the "wire getting cut" fault of
// paper §III-C.2). Devices attached to the medium that registered a
// carrier callback are notified (outside the network lock) when the
// state actually changed — the NIC's link-state interrupt.
func (n *Network) SetMediumUp(name string, up bool) error {
	n.mu.Lock()
	m, ok := n.media[name]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: no medium %q", name)
	}
	changed := m.up != up
	m.up = up
	var notify []func()
	if changed {
		// Domain-wide listeners first: a bridge must have fast-aged its
		// table before the adjacent devices' link-state interrupts kick
		// off reconciliation traffic.
		for _, fn := range n.tcn {
			notify = append(notify, fn)
		}
		seen := make(map[core.DeviceID]bool)
		for _, p := range m.ports {
			if fn := n.carrier[p.ID.Device]; fn != nil && !seen[p.ID.Device] {
				seen[p.ID.Device] = true
				notify = append(notify, fn)
			}
		}
	}
	n.mu.Unlock()
	for _, fn := range notify {
		fn()
	}
	return nil
}

// OnCarrierChange registers a callback invoked whenever the up/down
// state of a medium touching one of the device's ports flips. Devices
// use it to re-report topology to the NM without being polled.
func (n *Network) OnCarrierChange(dev core.DeviceID, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.carrier[dev] = fn
}

// OnTopologyChange registers a callback invoked when ANY medium in the
// network flips, adjacent or not — the data-plane analogue of 802.1D's
// topology-change notification, which reaches every bridge in the L2
// domain so all of them fast-age their forwarding tables. Without it a
// path that swings away from a failure leaves unicast entries on
// untouched switches pointing into the dead direction forever (the
// simulator has no aging clock).
func (n *Network) OnTopologyChange(dev core.DeviceID, fn func()) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.tcn[dev] = fn
}

// Medium returns a medium by name.
func (n *Network) Medium(name string) (*Medium, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	m, ok := n.media[name]
	return m, ok
}

// Media returns all medium names, sorted.
func (n *Network) Media() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	names := make([]string, 0, len(n.media))
	for name := range n.media {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Neighbor reports the port at the other end of a point-to-point link,
// standing in for link-layer neighbour discovery (LLDP). Devices use it to
// report their physical connectivity to the NM (paper §II-D). For buses it
// returns all other attached ports.
func (n *Network) Neighbor(id PortID) ([]PortID, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.ports[id]
	if !ok {
		return nil, fmt.Errorf("netsim: no port %s", id)
	}
	if p.medium == nil {
		return nil, nil
	}
	var out []PortID
	for _, q := range p.medium.ports {
		if q != p {
			out = append(out, q.ID)
		}
	}
	return out, nil
}

// Attached reports whether the port is connected to a live medium.
func (n *Network) Attached(id PortID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.ports[id]
	return ok && p.medium != nil && p.medium.up
}

// EnableCapture starts recording frames crossing the named medium.
func (n *Network) EnableCapture(medium string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.capture[medium] = true
}

// Captures returns the frames recorded on a medium.
func (n *Network) Captures(medium string) []Capture {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Capture(nil), n.captures[medium]...)
}

// TxCount reports frames sent out of a port.
func (n *Network) TxCount(id PortID) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.txCount[id]
}

// Send transmits a frame out of the given port. The frame is copied. If no
// pump is running, Send pumps the queue to quiescence before returning, so
// from a caller's perspective delivery (and all forwarding it triggers) is
// synchronous.
//
// Send is safe to call from multiple goroutines (device kernels run
// concurrently under the concurrent NM): exactly one caller pumps at a
// time, and a Send racing an active pump enqueues its frame for that
// pump and returns. Callers that need read-after-send guarantees (probe
// tests) should serialise their own traffic.
func (n *Network) Send(from PortID, frame []byte) error {
	n.mu.Lock()
	p, ok := n.ports[from]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("netsim: no port %s", from)
	}
	if p.medium == nil || !p.medium.up {
		n.mu.Unlock()
		return nil // unplugged or cut: frame silently lost, as on real hardware
	}
	n.txCount[from]++
	if n.capture[p.medium.Name] {
		n.seq++
		n.captures[p.medium.Name] = append(n.captures[p.medium.Name],
			Capture{Seq: n.seq, From: from, Bytes: append([]byte(nil), frame...)})
	}
	for _, q := range p.medium.ports {
		if q == p {
			continue
		}
		if n.LossFunc != nil && n.LossFunc(q.ID, frame) {
			continue
		}
		n.queue = append(n.queue, delivery{to: q, frame: append([]byte(nil), frame...)})
	}
	if n.pumping {
		n.mu.Unlock()
		return nil
	}
	n.pumping = true
	n.mu.Unlock()
	n.pump()
	return nil
}

func (n *Network) pump() {
	n.mu.Lock()
	maxSteps := n.MaxSteps
	n.mu.Unlock()
	steps := 0
	for {
		n.mu.Lock()
		if len(n.queue) == 0 {
			n.pumping = false
			n.quiet.Broadcast()
			n.mu.Unlock()
			return
		}
		d := n.queue[0]
		n.queue = n.queue[1:]
		n.rxCount[d.to.ID]++
		h := n.handlers[d.to.ID.Device]
		n.mu.Unlock()

		steps++
		if steps > maxSteps {
			panic(fmt.Sprintf("netsim: forwarding loop: more than %d deliveries in one pump", maxSteps))
		}
		if h != nil {
			h.HandleFrame(d.to.ID.Name, d.frame)
		}
	}
}

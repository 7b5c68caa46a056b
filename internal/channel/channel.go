// Package channel provides the CONMan management channel (paper §II-A):
// an out-of-band path between every device's management agent and the
// network manager. Three transports implement the same Endpoint interface:
//
//   - Hub: in-process synchronous delivery, used by tests and the
//     deterministic experiment harness.
//   - UDPNetwork: real UDP sockets over loopback, reproducing the paper's
//     pre-configured separate management NIC (§III-A).
//   - FloodNode: raw Ethernet frames (EtherType 0x88B5) flooded hop-by-hop
//     over the simulated data-plane links with TTL and duplicate
//     suppression — the paper's straw-man self-bootstrapping channel built
//     with SOCK_PACKET, after 4D's discovery/dissemination plane. It needs
//     no pre-configuration at all.
package channel

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"conman/internal/msg"
)

// Handler receives delivered envelopes.
type Handler func(env msg.Envelope)

// Endpoint is one named attachment to a management channel.
type Endpoint interface {
	// Name returns the channel name (device id or msg.NMName).
	Name() string
	// Send transmits an envelope to env.To. Delivery may be synchronous
	// (Hub, FloodNode) or asynchronous (UDP).
	Send(env msg.Envelope) error
	// SetHandler installs the delivery callback. Must be called before
	// traffic flows.
	SetHandler(h Handler)
	// Close detaches the endpoint.
	Close() error
}

// ErrUnknownDestination is returned when the channel has no endpoint for
// the destination name.
var ErrUnknownDestination = errors.New("channel: unknown destination")

// ---------------------------------------------------------------------------
// Hub: in-process channel

// Hub is an in-process management channel with synchronous delivery.
type Hub struct {
	mu      sync.Mutex
	eps     map[string]*hubEndpoint
	latency time.Duration
}

// NewHub creates an empty hub.
func NewHub() *Hub {
	return &Hub{eps: make(map[string]*hubEndpoint)}
}

type hubEndpoint struct {
	hub  *Hub
	name string

	mu      sync.Mutex
	handler Handler
	closed  bool
}

// SetLatency installs an artificial per-delivery latency (zero by
// default), modelling the propagation delay of a real management
// network. Each Send sleeps for d on the caller's goroutine before
// delivering, so latency accumulates along synchronous message cascades
// exactly as round trips would on the wire. Concurrent senders pay it in
// parallel — the scale benchmarks use this to expose the wall-clock gap
// between sequential and concurrent NM configuration.
func (h *Hub) SetLatency(d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.latency = d
}

// Detach closes and removes the named endpoint, modelling the
// management channel losing a device (power failure, crash). Later
// Sends to the name fail immediately with ErrUnknownDestination.
func (h *Hub) Detach(name string) bool {
	h.mu.Lock()
	ep, ok := h.eps[name]
	h.mu.Unlock()
	if !ok {
		return false
	}
	_ = ep.Close()
	return true
}

// Endpoint attaches a named endpoint to the hub.
func (h *Hub) Endpoint(name string) Endpoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	ep := &hubEndpoint{hub: h, name: name}
	h.eps[name] = ep
	return ep
}

func (e *hubEndpoint) Name() string { return e.name }

func (e *hubEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

func (e *hubEndpoint) Send(env msg.Envelope) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return errors.New("channel: endpoint closed")
	}
	e.hub.mu.Lock()
	dst, ok := e.hub.eps[env.To]
	latency := e.hub.latency
	e.hub.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDestination, env.To)
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	dst.mu.Lock()
	h := dst.handler
	dclosed := dst.closed
	dst.mu.Unlock()
	if dclosed || h == nil {
		return fmt.Errorf("%w: %q has no handler", ErrUnknownDestination, env.To)
	}
	h(env)
	return nil
}

func (e *hubEndpoint) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.hub.mu.Lock()
	// A newer endpoint may have taken the name since: leave it attached.
	if e.hub.eps[e.name] == e {
		delete(e.hub.eps, e.name)
	}
	e.hub.mu.Unlock()
	return nil
}

package nm

// Management-channel events as a consumable feed. The NM receives
// unsolicited traffic — module notifications, dependency triggers
// (§II-E), topology re-reports — and publishes it on one surface: live,
// bounded subscriber channels (Subscribe) such as the one the
// reconciliation daemon drains. Publishing never blocks the channel
// handler; an event published while a subscriber's buffer is full is
// dropped for that subscriber and the loss is counted, which for a
// level-triggered consumer (the daemon re-reconciles from observed
// state, not from event payloads) only costs an extra reconcile pass,
// never correctness.

import (
	"conman/internal/core"
	"conman/internal/msg"
)

// defaultEventBuffer is the Subscribe buffer when the caller names none.
const defaultEventBuffer = 1024

// EventKind classifies an NM event.
type EventKind uint8

const (
	// EventNotify is an unsolicited module -> NM notification.
	EventNotify EventKind = iota
	// EventTrigger is a fired dependency-maintenance trigger (§II-E).
	EventTrigger
	// EventTopology is a device topology re-report that changed the
	// NM's physical view (identical re-reports are suppressed).
	EventTopology
)

func (k EventKind) String() string {
	switch k {
	case EventNotify:
		return "notify"
	case EventTrigger:
		return "trigger"
	case EventTopology:
		return "topology"
	}
	return "unknown"
}

// Event is one unsolicited management-channel occurrence.
type Event struct {
	// Seq is the NM-global publication sequence number.
	Seq uint64
	// Kind says what happened.
	Kind EventKind
	// Device is the reporting device.
	Device core.DeviceID
	// Module is the source module for notifies and triggers.
	Module core.ModuleRef
	// Component is the watched component for triggers.
	Component string
	// What is the notify kind; Detail its free-form payload.
	What   string
	Detail string
}

// Subscribe returns a live event feed and its cancel function. The
// channel is buffered (buf <= 0 selects defaultEventBuffer); an event
// published while the buffer is full is dropped and counted in
// EventsDropped. Only events published after Subscribe returns arrive,
// so subscribe before the action whose events you want.
// Cancel unregisters the subscriber; the channel is never closed, so a
// consumer selecting on it must also select on its own done signal.
func (n *NM) Subscribe(buf int) (<-chan Event, func()) {
	if buf <= 0 {
		buf = defaultEventBuffer
	}
	ch := make(chan Event, buf)
	n.mu.Lock()
	n.subSeq++
	id := n.subSeq
	n.subs[id] = ch
	n.mu.Unlock()
	cancel := func() {
		n.mu.Lock()
		delete(n.subs, id)
		n.mu.Unlock()
	}
	return ch, cancel
}

// EventsDropped reports how many published events found a subscriber's
// buffer full (cumulative across subscribers).
func (n *NM) EventsDropped() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.eventsDropped
}

// publishLocked fans an event out to every subscriber. Caller holds
// n.mu.
func (n *NM) publishLocked(ev Event) {
	n.eventSeq++
	ev.Seq = n.eventSeq
	for _, ch := range n.subs {
		select {
		case ch <- ev:
		default:
			n.eventsDropped++
		}
	}
}

// topologyEqual reports whether two topology reports describe the same
// physical view.
func topologyEqual(a, b msg.Topology) bool {
	if a.Device != b.Device || len(a.Ports) != len(b.Ports) {
		return false
	}
	for i := range a.Ports {
		if a.Ports[i] != b.Ports[i] {
			return false
		}
	}
	return true
}

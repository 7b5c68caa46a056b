package device

import (
	"encoding/json"
	"sync"

	"conman/internal/core"
)

// Exchange is one kind of pairwise conveyMessage exchange (§II-D.1.d): each
// pair of peer modules trades an offer and a reply, the two relayed
// messages per pair of the paper's Table VI. The module declares only its
// offer (the body for a peer, or ErrPending while it has none) and its
// accept (adopt the peer's body, decoded into the offer's type). The MA
// does the rest: which end initiates, the record of the pairs that have
// exchanged, the responder's reply (deferred until its offer is ready), a
// retry of whatever waits on every Kick, and sending only once every lock
// is released.
//
// offer and accept run under the exchange's lock, so that an accepted body
// and the reply and initiations it releases are one step to PureResponder,
// and no offer goes out twice. They may take the module's lock and call
// Services, but must not convey, Kick or use an Exchange; a module calls
// With and PureResponder without holding its own lock.
type Exchange struct {
	kind   string
	oneWay bool
	offer  func(peer core.ModuleRef) (any, error)
	accept func(peer core.ModuleRef, body []byte) error
	ma     *MA // set by MA.Declare
	module core.ModuleRef

	mu    sync.Mutex
	pairs []*pairing // guarded by mu; in the order first seen
}

// pairing is the record of one pair's exchange.
type pairing struct {
	peer      core.ModuleRef
	initiate  bool // the module asked for it (With) and this end initiates
	initiated bool // our offer went first
	received  bool // the peer's body arrived
	replied   bool // we answered the peer's offer
}

// Pairwise declares an exchange both ends can offer from the start (keys,
// addresses, labels): the smaller module reference initiates, so each
// pair exchanges exactly once, whichever end asks first.
func Pairwise[T any](kind string, offer func(peer core.ModuleRef) (T, error), accept func(peer core.ModuleRef, body T) error) *Exchange {
	return declare(kind, false, offer, accept)
}

// OneWay declares an exchange of a value one end holds first and the other
// adopts, such as a VID spreading hop by hop from the VLAN module that
// allocated it: whichever end's offer is ready initiates (a smaller-
// reference rule deadlocks where the value reaches a pair's larger end
// first). Should both ends initiate at once, each offer is the other's
// reply.
func OneWay[T any](kind string, offer func(peer core.ModuleRef) (T, error), accept func(peer core.ModuleRef, body T) error) *Exchange {
	return declare(kind, true, offer, accept)
}

func declare[T any](kind string, oneWay bool, offer func(core.ModuleRef) (T, error), accept func(core.ModuleRef, T) error) *Exchange {
	return &Exchange{
		kind: kind, oneWay: oneWay,
		offer: func(peer core.ModuleRef) (any, error) { return offer(peer) },
		accept: func(peer core.ModuleRef, raw []byte) error {
			var body T
			if err := json.Unmarshal(raw, &body); err != nil {
				return err
			}
			return accept(peer, body)
		},
	}
}

// With asks for the exchange with peer: the module's offer goes out at
// once if it initiates and the offer is ready, as does a reply it owes
// peer; otherwise the exchange waits for a Kick. A pair exchanges once in
// the module's lifetime, so asking again is a no-op.
func (x *Exchange) With(peer core.ModuleRef) {
	x.step(func() *pairing {
		x.pairingLocked(peer).initiate = x.oneWay || x.module.String() < peer.String()
		return nil
	})
}

// PureResponder reports whether the module has answered a peer's offer and
// initiated none itself: the far end of a chain of exchanges, which
// reports establishment to the NM (Table VI's one unsolicited message).
func (x *Exchange) PureResponder() bool {
	x.mu.Lock()
	defer x.mu.Unlock()
	responded := false
	for _, p := range x.pairs {
		if p.initiated {
			return false
		}
		responded = responded || p.received
	}
	return responded
}

// receive hands a peer's body to accept, then sends the reply it owes,
// ahead of every offer the body made ready (a one-way value passes on).
// All are claimed in the critical section of the accept, so PureResponder
// never sees the module answer without the initiations it released.
func (x *Exchange) receive(from core.ModuleRef, body []byte) {
	x.step(func() *pairing {
		if x.accept(from, body) != nil {
			return nil
		}
		p := x.pairingLocked(from)
		p.received = true
		return p
	})
}

// retry sends whatever waits and has become ready.
func (x *Exchange) retry() { x.step(func() *pairing { return nil }) }

// step runs change under x.mu, claims every message whose offer is ready
// (those of the pair change returns first) and sends them once x.mu is
// released.
func (x *Exchange) step(change func() *pairing) {
	x.mu.Lock()
	out := x.stepLocked(change())
	x.mu.Unlock()
	for _, o := range out {
		_ = x.ma.Convey(x.module, o.to, x.kind, o.body)
	}
}

type outgoing struct {
	to   core.ModuleRef
	body any
}

// stepLocked claims the messages whose offer is ready, first's (if any)
// before the rest in record order: a responder's reply, or an initiator's
// first offer. Caller holds x.mu and sends them after releasing it.
func (x *Exchange) stepLocked(first *pairing) []outgoing {
	var out []outgoing
	step := func(p *pairing) {
		reply := p.received && !p.initiated && !p.replied
		initiate := p.initiate && !p.received && !p.initiated
		if !reply && !initiate {
			return
		}
		if body, err := x.offer(p.peer); err == nil {
			p.replied, p.initiated = reply, initiate
			out = append(out, outgoing{p.peer, body})
		}
	}
	if first != nil {
		step(first)
	}
	for _, p := range x.pairs {
		step(p)
	}
	return out
}

// pairingLocked returns peer's record, creating it on first sight. Caller
// holds x.mu.
func (x *Exchange) pairingLocked(peer core.ModuleRef) *pairing {
	for _, p := range x.pairs {
		if p.peer == peer {
			return p
		}
	}
	p := &pairing{peer: peer}
	x.pairs = append(x.pairs, p)
	return p
}

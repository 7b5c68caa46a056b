package device_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/msg"
)

// peerMod is a module with one declared exchange. Its offer is its value,
// or ErrPending while it has none; its accept records the peer's value
// and, for a one-way exchange, adopts it when it holds none.
type peerMod struct {
	device.BaseModule
	x *device.Exchange

	mu     sync.Mutex
	value  string
	oneWay bool
	got    map[core.ModuleRef]string
}

func (p *peerMod) Abstraction() core.Abstraction {
	return core.Abstraction{Ref: p.Ref(), Kind: core.KindData}
}

func (p *peerMod) Actual() core.ModuleState { return core.ModuleState{Ref: p.Ref()} }

func (p *peerMod) HandleConvey(from core.ModuleRef, kind string, _ []byte) error {
	panic("declared exchange kind " + kind + " from " + from.String() + " reached HandleConvey")
}

func (p *peerMod) offer(core.ModuleRef) (string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.value == "" {
		return "", device.ErrPending
	}
	return p.value, nil
}

func (p *peerMod) accept(peer core.ModuleRef, v string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.got[peer] = v
	if p.oneWay && p.value == "" {
		p.value = v
	}
	return nil
}

func (p *peerMod) set(v string) {
	p.mu.Lock()
	p.value = v
	p.mu.Unlock()
}

func (p *peerMod) gotFrom(peer core.ModuleRef) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.got[peer]
}

// exchangeRig is two MAs, A and B, on an in-process hub, each with one
// peerMod; a relay at the NM's address forwards their conveys and counts
// them. Module a on A has the smaller reference.
type exchangeRig struct {
	maA, maB *device.MA
	a, b     *peerMod
	conveys  atomic.Int64
}

const kindTest = "test-exchange"

func newExchangeRig(t *testing.T, oneWay bool, valueA, valueB string) *exchangeRig {
	t.Helper()
	hub := channel.NewHub()
	r := &exchangeRig{}
	relay := hub.Endpoint(msg.NMName)
	relay.SetHandler(func(env msg.Envelope) {
		var c msg.Convey
		if env.Type != msg.TypeConvey || env.Decode(&c) != nil {
			return
		}
		if c.Kind != kindTest {
			t.Errorf("convey kind %q", c.Kind)
		}
		r.conveys.Add(1)
		_ = relay.Send(msg.MustNew(msg.TypeConvey, msg.NMName, string(c.ToModule.Device), 0, c))
	})
	mk := func(dev core.DeviceID, value string) (*device.MA, *peerMod) {
		ma := device.NewMA(dev, nil, func() []msg.PortReport { return nil })
		p := &peerMod{
			BaseModule: device.BaseModule{ModRef: core.Ref(nameFake, dev, "x"), Svc: ma},
			value:      value, oneWay: oneWay, got: map[core.ModuleRef]string{},
		}
		if oneWay {
			p.x = device.OneWay(kindTest, p.offer, p.accept)
		} else {
			p.x = device.Pairwise(kindTest, p.offer, p.accept)
		}
		ma.Declare(p.Ref(), p.x)
		ma.Register(p)
		ma.AttachChannel(hub.Endpoint(string(dev)))
		return ma, p
	}
	r.maA, r.a = mk("A", valueA)
	r.maB, r.b = mk("B", valueB)
	return r
}

// check fails unless the pair exchanged in exactly two conveys and each
// end holds the value the other offered.
func (r *exchangeRig) check(t *testing.T, wantA, wantB string) {
	t.Helper()
	if n := r.conveys.Load(); n != 2 {
		t.Errorf("%d conveys, want 2", n)
	}
	if got := r.b.gotFrom(r.a.Ref()); got != wantA {
		t.Errorf("B got %q from A, want %q", got, wantA)
	}
	if got := r.a.gotFrom(r.b.Ref()); got != wantB {
		t.Errorf("A got %q from B, want %q", got, wantB)
	}
}

// TestExchangeBothEndsAtOnce: both ends ask for the exchange at the same
// moment. A pairwise exchange has only the smaller reference initiate; a
// one-way exchange whose value both ends hold lets each offer stand as
// the other's reply. Either way the pair trades exactly two messages.
func TestExchangeBothEndsAtOnce(t *testing.T) {
	for _, oneWay := range []bool{false, true} {
		for i := 0; i < 50; i++ {
			r := newExchangeRig(t, oneWay, "key-a", "key-b")
			var start, done sync.WaitGroup
			start.Add(1)
			done.Add(2)
			ask := func(x *device.Exchange, peer core.ModuleRef) {
				defer done.Done()
				start.Wait()
				x.With(peer)
			}
			go ask(r.a.x, r.b.Ref())
			go ask(r.b.x, r.a.Ref())
			start.Done()
			done.Wait()
			r.check(t, "key-a", "key-b")
			if t.Failed() {
				t.Fatalf("oneWay=%v, run %d", oneWay, i)
			}
		}
	}
}

// TestExchangePendingOfferSentOnKick: the initiator has no offer when it
// asks; nothing is sent until its offer is ready and the MA is kicked.
func TestExchangePendingOfferSentOnKick(t *testing.T) {
	r := newExchangeRig(t, false, "", "key-b")
	r.a.x.With(r.b.Ref())
	r.b.x.With(r.a.Ref())
	if n := r.conveys.Load(); n != 0 {
		t.Fatalf("%d conveys before the offer was ready, want 0", n)
	}
	r.a.set("key-a")
	r.maA.Kick()
	r.check(t, "key-a", "key-b")
}

// TestExchangeDeferredReply: the responder's offer is not ready when the
// initiator's arrives; its reply goes out once it is, and not before.
func TestExchangeDeferredReply(t *testing.T) {
	r := newExchangeRig(t, false, "key-a", "")
	r.a.x.With(r.b.Ref())
	if n := r.conveys.Load(); n != 1 {
		t.Fatalf("%d conveys after the initiator's offer, want 1", n)
	}
	if got := r.b.gotFrom(r.a.Ref()); got != "key-a" {
		t.Fatalf("B got %q from A before replying, want key-a", got)
	}
	r.maB.Kick()
	if n := r.conveys.Load(); n != 1 {
		t.Fatalf("%d conveys while the reply was not ready, want 1", n)
	}
	r.b.set("key-b")
	r.maB.Kick()
	r.check(t, "key-a", "key-b")
	if !r.b.x.PureResponder() || r.a.x.PureResponder() {
		t.Errorf("pure responder: A %v, B %v; want false, true", r.a.x.PureResponder(), r.b.x.PureResponder())
	}
}

// TestExchangeOneWayFromLargerRef is the fat-tree VID deadlock reduced
// to two modules: only B, the larger reference, holds the value. A
// smaller-reference initiator rule would leave A with nothing to say and
// B silent; a one-way exchange lets B initiate, and A adopts the value
// and replies with it.
func TestExchangeOneWayFromLargerRef(t *testing.T) {
	r := newExchangeRig(t, true, "", "")
	r.a.x.With(r.b.Ref())
	r.b.x.With(r.a.Ref())
	if n := r.conveys.Load(); n != 0 {
		t.Fatalf("%d conveys before either end held the value, want 0", n)
	}
	r.b.set("vid-22")
	r.maB.Kick()
	r.check(t, "vid-22", "vid-22")
	if !r.a.x.PureResponder() || r.b.x.PureResponder() {
		t.Errorf("pure responder: A %v, B %v; want true, false", r.a.x.PureResponder(), r.b.x.PureResponder())
	}
}

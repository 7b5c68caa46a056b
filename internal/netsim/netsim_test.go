package netsim

import (
	"testing"

	"conman/internal/core"
)

type recorder struct {
	got []struct {
		port  string
		frame []byte
	}
	// forward, when set, retransmits every received frame out of the
	// named port (exercises re-entrant Send).
	forward *struct {
		net  *Network
		port PortID
	}
}

func (r *recorder) HandleFrame(port string, frame []byte) {
	r.got = append(r.got, struct {
		port  string
		frame []byte
	}{port, frame})
	if r.forward != nil {
		_ = r.forward.net.Send(r.forward.port, frame)
	}
}

func build(t *testing.T) (*Network, *recorder, *recorder) {
	t.Helper()
	n := New()
	ra, rb := &recorder{}, &recorder{}
	n.AddDevice("A", ra)
	n.AddDevice("B", rb)
	if _, err := n.AddPort("A", "eth0"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddPort("B", "eth0"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("ab", PortID{"A", "eth0"}, PortID{"B", "eth0"}); err != nil {
		t.Fatal(err)
	}
	return n, ra, rb
}

func TestPointToPointDelivery(t *testing.T) {
	n, ra, rb := build(t)
	if err := n.Send(PortID{"A", "eth0"}, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if len(rb.got) != 1 || string(rb.got[0].frame) != "hello" || rb.got[0].port != "eth0" {
		t.Fatalf("B got %+v", rb.got)
	}
	if len(ra.got) != 0 {
		t.Fatal("sender must not receive its own frame")
	}
	if n.TxCount(PortID{"A", "eth0"}) != 1 || n.RxCount(PortID{"B", "eth0"}) != 1 {
		t.Fatal("counters wrong")
	}
}

func TestBroadcastBusDelivery(t *testing.T) {
	n := New()
	recs := map[core.DeviceID]*recorder{}
	var ids []PortID
	for _, d := range []core.DeviceID{"A", "B", "C"} {
		r := &recorder{}
		recs[d] = r
		n.AddDevice(d, r)
		if _, err := n.AddPort(d, "eth0"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, PortID{d, "eth0"})
	}
	m, err := n.Connect("bus", ids...)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Broadcast() {
		t.Fatal("3-port medium must be broadcast")
	}
	if err := n.Send(ids[0], []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(recs["B"].got) != 1 || len(recs["C"].got) != 1 || len(recs["A"].got) != 0 {
		t.Fatalf("bus delivery wrong: B=%d C=%d A=%d",
			len(recs["B"].got), len(recs["C"].got), len(recs["A"].got))
	}
}

func TestMediumDownDropsFrames(t *testing.T) {
	n, _, rb := build(t)
	if err := n.SetMediumUp("ab", false); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(PortID{"A", "eth0"}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if len(rb.got) != 0 {
		t.Fatal("frame crossed a cut link")
	}
	if err := n.SetMediumUp("ab", true); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(PortID{"A", "eth0"}, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if len(rb.got) != 1 {
		t.Fatal("frame lost after link restored")
	}
}

func TestReentrantForwardingChain(t *testing.T) {
	// A -> B -> C where B's handler forwards. Exercises the pump guard.
	n := New()
	ra, rb, rc := &recorder{}, &recorder{}, &recorder{}
	n.AddDevice("A", ra)
	n.AddDevice("B", rb)
	n.AddDevice("C", rc)
	for _, p := range []PortID{{"A", "e0"}, {"B", "e0"}, {"B", "e1"}, {"C", "e0"}} {
		if _, err := n.AddPort(p.Device, p.Name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Connect("ab", PortID{"A", "e0"}, PortID{"B", "e0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("bc", PortID{"B", "e1"}, PortID{"C", "e0"}); err != nil {
		t.Fatal(err)
	}
	rb.forward = &struct {
		net  *Network
		port PortID
	}{n, PortID{"B", "e1"}}
	if err := n.Send(PortID{"A", "e0"}, []byte("chain")); err != nil {
		t.Fatal(err)
	}
	if len(rc.got) != 1 || string(rc.got[0].frame) != "chain" {
		t.Fatalf("C got %+v", rc.got)
	}
}

func TestForwardingLoopPanics(t *testing.T) {
	// Two devices forwarding everything at each other must hit MaxSteps.
	n := New()
	ra, rb := &recorder{}, &recorder{}
	n.AddDevice("A", ra)
	n.AddDevice("B", rb)
	if _, err := n.AddPort("A", "e0"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.AddPort("B", "e0"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Connect("ab", PortID{"A", "e0"}, PortID{"B", "e0"}); err != nil {
		t.Fatal(err)
	}
	ra.forward = &struct {
		net  *Network
		port PortID
	}{n, PortID{"A", "e0"}}
	rb.forward = &struct {
		net  *Network
		port PortID
	}{n, PortID{"B", "e0"}}
	n.MaxSteps = 100
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on forwarding loop")
		}
	}()
	_ = n.Send(PortID{"A", "e0"}, []byte("boom"))
}

func TestLossInjection(t *testing.T) {
	n, _, rb := build(t)
	drop := true
	n.LossFunc = func(to PortID, frame []byte) bool { return drop }
	_ = n.Send(PortID{"A", "eth0"}, []byte("1"))
	drop = false
	_ = n.Send(PortID{"A", "eth0"}, []byte("2"))
	if len(rb.got) != 1 || string(rb.got[0].frame) != "2" {
		t.Fatalf("loss injection wrong: %+v", rb.got)
	}
}

func TestCapture(t *testing.T) {
	n, _, _ := build(t)
	n.EnableCapture("ab")
	_ = n.Send(PortID{"A", "eth0"}, []byte("one"))
	_ = n.Send(PortID{"B", "eth0"}, []byte("two"))
	caps := n.Captures("ab")
	if len(caps) != 2 {
		t.Fatalf("captures = %d", len(caps))
	}
	if caps[0].From != (PortID{"A", "eth0"}) || string(caps[1].Bytes) != "two" {
		t.Fatalf("captures wrong: %+v", caps)
	}
	n.ClearCaptures()
	if len(n.Captures("ab")) != 0 {
		t.Fatal("ClearCaptures did not clear")
	}
}

func TestNeighborDiscovery(t *testing.T) {
	n, _, _ := build(t)
	peers, err := n.Neighbor(PortID{"A", "eth0"})
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) != 1 || peers[0] != (PortID{"B", "eth0"}) {
		t.Fatalf("peers = %v", peers)
	}
	if !n.Attached(PortID{"A", "eth0"}) {
		t.Fatal("port should be attached")
	}
	if _, err := n.AddPort("A", "eth9"); err != nil {
		t.Fatal(err)
	}
	if n.Attached(PortID{"A", "eth9"}) {
		t.Fatal("unattached port reported attached")
	}
}

func TestErrors(t *testing.T) {
	n, _, _ := build(t)
	if _, err := n.AddPort("A", "eth0"); err == nil {
		t.Fatal("want duplicate port error")
	}
	if _, err := n.Connect("ab2", PortID{"A", "eth0"}, PortID{"B", "eth0"}); err == nil {
		t.Fatal("want already-attached error")
	}
	if _, err := n.Connect("solo", PortID{"A", "eth0"}); err == nil {
		t.Fatal("want too-few-ports error")
	}
	if err := n.Send(PortID{"Z", "eth0"}, nil); err == nil {
		t.Fatal("want unknown-port error")
	}
	if err := n.SetMediumUp("zz", true); err == nil {
		t.Fatal("want unknown-medium error")
	}
	if _, err := n.Neighbor(PortID{"Z", "nope"}); err == nil {
		t.Fatal("want unknown-port error")
	}
	if _, err := n.PortMAC(PortID{"Z", "nope"}); err == nil {
		t.Fatal("want unknown-port error")
	}
}

func TestDistinctMACs(t *testing.T) {
	n := New()
	seen := map[string]bool{}
	for i := 0; i < 50; i++ {
		p, err := n.AddPort("D", string(rune('a'+i%26))+string(rune('0'+i/26)))
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.MAC.String()] {
			t.Fatalf("duplicate MAC %s", p.MAC)
		}
		seen[p.MAC.String()] = true
	}
}

// ClearCaptures discards recorded frames.
func (n *Network) ClearCaptures() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.captures = make(map[string][]Capture)
}

// RxCount reports frames delivered to a port.
func (n *Network) RxCount(id PortID) uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.rxCount[id]
}

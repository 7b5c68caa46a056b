package channel

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"conman/internal/core"
	"conman/internal/kernel"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/packet"
)

func TestHubDelivery(t *testing.T) {
	h := NewHub()
	a := h.Endpoint("A")
	nm := h.Endpoint(msg.NMName)
	var got []msg.Envelope
	nm.SetHandler(func(e msg.Envelope) { got = append(got, e) })
	a.SetHandler(func(e msg.Envelope) {})

	env := msg.MustNew(msg.TypeHello, "A", msg.NMName, 1, msg.Hello{Device: "A"})
	if err := a.Send(env); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Type != msg.TypeHello {
		t.Fatalf("got %+v", got)
	}
	var hello msg.Hello
	if err := got[0].Decode(&hello); err != nil {
		t.Fatal(err)
	}
	if hello.Device != "A" {
		t.Fatalf("hello = %+v", hello)
	}
}

func TestHubUnknownDestination(t *testing.T) {
	h := NewHub()
	a := h.Endpoint("A")
	a.SetHandler(func(msg.Envelope) {})
	if err := a.Send(msg.MustNew(msg.TypeHello, "A", "ghost", 0, nil)); err == nil {
		t.Fatal("want unknown destination error")
	}
}

func TestHubSynchronousNesting(t *testing.T) {
	// A request whose handler sends a response before returning: the
	// response must be delivered re-entrantly without deadlock (this is
	// how the NM relays conveyMessage chains).
	h := NewHub()
	a := h.Endpoint("A")
	b := h.Endpoint("B")
	var resp []msg.Envelope
	a.SetHandler(func(e msg.Envelope) { resp = append(resp, e) })
	b.SetHandler(func(e msg.Envelope) {
		_ = b.Send(msg.MustNew(msg.TypeShowPotentialResp, "B", "A", e.ID, nil))
	})
	if err := a.Send(msg.MustNew(msg.TypeShowPotentialReq, "A", "B", 7, nil)); err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0].ID != 7 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHubClosedEndpoint(t *testing.T) {
	h := NewHub()
	a := h.Endpoint("A")
	b := h.Endpoint("B")
	b.SetHandler(func(msg.Envelope) {})
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(msg.MustNew(msg.TypeHello, "A", "B", 0, nil)); err == nil {
		t.Fatal("want error sending to closed endpoint")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(msg.MustNew(msg.TypeHello, "A", "B", 0, nil)); err == nil {
		t.Fatal("want error sending from closed endpoint")
	}
}

// TestHubStaleCloseKeepsSuccessor: Detach, re-attach under the same
// name, then Close the detached endpoint again (as a testbed teardown
// does after an NM crash): the re-attached endpoint stays reachable.
func TestHubStaleCloseKeepsSuccessor(t *testing.T) {
	h := NewHub()
	old := h.Endpoint("A")
	b := h.Endpoint("B")
	if !h.Detach("A") {
		t.Fatal("Detach found no endpoint A")
	}
	succ := h.Endpoint("A")
	var got []msg.Envelope
	succ.SetHandler(func(e msg.Envelope) { got = append(got, e) })
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(msg.MustNew(msg.TypeHello, "B", "A", 1, nil)); err != nil {
		t.Fatalf("send to the successor after a stale Close: %v", err)
	}
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("successor got %+v", got)
	}
}

func TestUDPRoundTrip(t *testing.T) {
	n := NewUDPNetworkConfig(Config{})
	a, err := n.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	nm, err := n.Endpoint(msg.NMName)
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()

	got := make(chan msg.Envelope, 4)
	nm.SetHandler(func(e msg.Envelope) { got <- e })
	echo := make(chan msg.Envelope, 4)
	a.SetHandler(func(e msg.Envelope) { echo <- e })

	if err := a.Send(msg.MustNew(msg.TypeHello, "A", msg.NMName, 1, msg.Hello{Device: "A"})); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		if e.Type != msg.TypeHello || e.From != "A" {
			t.Fatalf("got %+v", e)
		}
		// And back.
		if err := nm.Send(msg.MustNew(msg.TypeShowPotentialReq, msg.NMName, "A", 2, nil)); err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for UDP delivery")
	}
	select {
	case e := <-echo:
		if e.Type != msg.TypeShowPotentialReq || e.ID != 2 {
			t.Fatalf("echo %+v", e)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timeout waiting for reverse UDP delivery")
	}
}

func TestUDPUnknownDestination(t *testing.T) {
	n := NewUDPNetworkConfig(Config{})
	a, err := n.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(msg.MustNew(msg.TypeHello, "A", "ghost", 0, nil)); err == nil {
		t.Fatal("want unknown destination error")
	}
}

func TestUDPConcurrentSenders(t *testing.T) {
	n := NewUDPNetworkConfig(Config{})
	nm, err := n.Endpoint(msg.NMName)
	if err != nil {
		t.Fatal(err)
	}
	defer nm.Close()
	var mu sync.Mutex
	count := 0
	done := make(chan struct{})
	nm.SetHandler(func(e msg.Envelope) {
		mu.Lock()
		count++
		if count == 20 {
			close(done)
		}
		mu.Unlock()
	})
	for i := 0; i < 4; i++ {
		ep, err := n.Endpoint(string(rune('A' + i)))
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		ep.SetHandler(func(msg.Envelope) {})
		go func(e Endpoint) {
			for j := 0; j < 5; j++ {
				_ = e.Send(msg.MustNew(msg.TypeHello, e.Name(), msg.NMName, uint64(j), msg.Hello{Device: core.DeviceID(e.Name())}))
			}
		}(ep)
	}
	select {
	case <-done:
	case <-time.After(3 * time.Second):
		mu.Lock()
		t.Fatalf("only %d of 20 messages arrived", count)
	}
}

// floodRig builds a chain of devices A - B - C with flood nodes and
// returns the network plus the nodes.
func floodRig(t *testing.T) (*netsim.Network, map[core.DeviceID]*FloodNode) {
	t.Helper()
	net := netsim.New()
	nodes := map[core.DeviceID]*FloodNode{}
	mk := func(id core.DeviceID, ports ...string) {
		dev := id
		k := kernel.New(dev, kernel.RoleRouter,
			func(port string, frame []byte) error {
				return net.Send(netsim.PortID{Device: dev, Name: port}, frame)
			},
			func(port string) (packet.MAC, bool) {
				m, err := net.PortMAC(netsim.PortID{Device: dev, Name: port})
				return m, err == nil
			})
		net.AddDevice(id, k)
		for _, p := range ports {
			if _, err := net.AddPort(id, p); err != nil {
				t.Fatal(err)
			}
			k.AddPhysical(p)
		}
		ps := append([]string(nil), ports...)
		node := NewFloodNode(dev,
			func(port string, frame []byte) error {
				return net.Send(netsim.PortID{Device: dev, Name: port}, frame)
			},
			func() []string { return ps })
		k.RegisterEtherType(packet.EtherTypeMgmt, node.HandleMgmtFrame)
		nodes[id] = node
	}
	mk("A", "eth0")
	mk("B", "eth0", "eth1")
	mk("C", "eth0")
	if _, err := net.Connect("AB", netsim.PortID{Device: "A", Name: "eth0"}, netsim.PortID{Device: "B", Name: "eth0"}); err != nil {
		t.Fatal(err)
	}
	if _, err := net.Connect("BC", netsim.PortID{Device: "B", Name: "eth1"}, netsim.PortID{Device: "C", Name: "eth0"}); err != nil {
		t.Fatal(err)
	}
	return net, nodes
}

func TestFloodMultiHopDelivery(t *testing.T) {
	_, nodes := floodRig(t)
	// NM lives on device A; MA endpoints on every device. No addressing
	// was configured anywhere: the channel must still deliver A -> C.
	nm := nodes["A"].Endpoint(msg.NMName)
	var got []msg.Envelope
	cEP := nodes["C"].Endpoint("C")
	cEP.SetHandler(func(e msg.Envelope) { got = append(got, e) })
	nodes["B"].Endpoint("B").SetHandler(func(msg.Envelope) {})
	nm.SetHandler(func(msg.Envelope) {})

	if err := nm.Send(msg.MustNew(msg.TypeShowPotentialReq, msg.NMName, "C", 5, nil)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 5 {
		t.Fatalf("C got %+v", got)
	}
}

func TestFloodDuplicateSuppression(t *testing.T) {
	// Build a RING so frames can circulate: A-B, B-C, C-A. Dedup must
	// keep the flood finite and deliver exactly one copy.
	net := netsim.New()
	nodes := map[core.DeviceID]*FloodNode{}
	mk := func(id core.DeviceID) {
		dev := id
		k := kernel.New(dev, kernel.RoleRouter,
			func(port string, frame []byte) error {
				return net.Send(netsim.PortID{Device: dev, Name: port}, frame)
			},
			func(port string) (packet.MAC, bool) { return packet.MAC{}, true })
		net.AddDevice(id, k)
		for _, p := range []string{"eth0", "eth1"} {
			if _, err := net.AddPort(id, p); err != nil {
				t.Fatal(err)
			}
			k.AddPhysical(p)
		}
		node := NewFloodNode(dev,
			func(port string, frame []byte) error {
				return net.Send(netsim.PortID{Device: dev, Name: port}, frame)
			},
			func() []string { return []string{"eth0", "eth1"} })
		k.RegisterEtherType(packet.EtherTypeMgmt, node.HandleMgmtFrame)
		nodes[id] = node
	}
	mk("A")
	mk("B")
	mk("C")
	for _, l := range [][2]netsim.PortID{
		{{Device: "A", Name: "eth1"}, {Device: "B", Name: "eth0"}},
		{{Device: "B", Name: "eth1"}, {Device: "C", Name: "eth0"}},
		{{Device: "C", Name: "eth1"}, {Device: "A", Name: "eth0"}},
	} {
		if _, err := net.Connect(l[0].String()+"-"+l[1].String(), l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	var got int
	nodes["C"].Endpoint("C").SetHandler(func(msg.Envelope) { got++ })
	nodes["B"].Endpoint("B").SetHandler(func(msg.Envelope) {})
	a := nodes["A"].Endpoint("A")
	a.SetHandler(func(msg.Envelope) {})
	if err := a.Send(msg.MustNew(msg.TypeHello, "A", "C", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("C received %d copies, want exactly 1", got)
	}
}

func TestFloodLocalDelivery(t *testing.T) {
	_, nodes := floodRig(t)
	// NM and MA both on device A: local loopback without touching wires.
	nm := nodes["A"].Endpoint(msg.NMName)
	nm.SetHandler(func(msg.Envelope) {})
	var got []msg.Envelope
	nodes["A"].Endpoint("A").SetHandler(func(e msg.Envelope) { got = append(got, e) })
	if err := nm.Send(msg.MustNew(msg.TypeShowPotentialReq, msg.NMName, "A", 9, nil)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != 9 {
		t.Fatalf("A got %+v", got)
	}
}

func TestFloodBidirectionalRequestResponse(t *testing.T) {
	_, nodes := floodRig(t)
	nm := nodes["A"].Endpoint(msg.NMName)
	var resp []msg.Envelope
	nm.SetHandler(func(e msg.Envelope) { resp = append(resp, e) })
	nodes["B"].Endpoint("B").SetHandler(func(msg.Envelope) {})
	cEP := nodes["C"].Endpoint("C")
	cEP.SetHandler(func(e msg.Envelope) {
		_ = cEP.Send(msg.MustNew(msg.TypeShowPotentialResp, "C", msg.NMName, e.ID, nil))
	})
	if err := nm.Send(msg.MustNew(msg.TypeShowPotentialReq, msg.NMName, "C", 11, nil)); err != nil {
		t.Fatal(err)
	}
	if len(resp) != 1 || resp[0].ID != 11 || resp[0].From != "C" {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestHubConcurrentSenders(t *testing.T) {
	hub := NewHub()
	var mu sync.Mutex
	got := map[uint64]bool{}
	sink := hub.Endpoint("sink")
	sink.SetHandler(func(env msg.Envelope) {
		mu.Lock()
		got[env.ID] = true
		mu.Unlock()
	})
	const senders, each = 8, 50
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		s := s
		ep := hub.Endpoint(fmt.Sprintf("src%d", s))
		ep.SetHandler(func(msg.Envelope) {})
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := uint64(s*each + i + 1)
				if err := ep.Send(msg.MustNew(msg.TypeHello, ep.Name(), "sink", id, nil)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if len(got) != senders*each {
		t.Fatalf("delivered %d of %d", len(got), senders*each)
	}
}

func TestHubLatency(t *testing.T) {
	hub := NewHub()
	a := hub.Endpoint("a")
	a.SetHandler(func(msg.Envelope) {})
	b := hub.Endpoint("b")
	b.SetHandler(func(msg.Envelope) {})
	const d = 5 * time.Millisecond
	hub.SetLatency(d)
	start := time.Now()
	if err := a.Send(msg.MustNew(msg.TypeHello, "a", "b", 1, nil)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Errorf("send took %v, want >= %v", elapsed, d)
	}
	// Resetting to zero disables the sleep; only assert delivery still
	// works (an upper wall-clock bound would flake on loaded machines).
	hub.SetLatency(0)
	if err := a.Send(msg.MustNew(msg.TypeHello, "a", "b", 2, nil)); err != nil {
		t.Fatal(err)
	}
}

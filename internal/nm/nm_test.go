package nm

import (
	"fmt"
	"testing"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/msg"
)

// fakeMA answers NM requests with canned data over a hub.
type fakeMA struct {
	ep  channel.Endpoint
	abs []core.Abstraction
}

func newFakeMA(hub *channel.Hub, dev core.DeviceID, abs []core.Abstraction) *fakeMA {
	f := &fakeMA{ep: hub.Endpoint(string(dev)), abs: abs}
	f.ep.SetHandler(func(env msg.Envelope) {
		switch env.Type {
		case msg.TypeShowPotentialReq:
			resp := msg.MustNew(msg.TypeShowPotentialResp, string(dev), env.From, env.ID,
				msg.ShowPotentialResp{Modules: abs})
			_ = f.ep.Send(resp)
		case msg.TypeCommandBatchReq:
			var batch msg.CommandBatchReq
			_ = env.Decode(&batch)
			resp := msg.MustNew(msg.TypeCommandBatchResp, string(dev), env.From, env.ID,
				msg.CommandBatchResp{Errors: make([]string, len(batch.Items))})
			_ = f.ep.Send(resp)
		case msg.TypeListFieldsReq:
			resp := msg.MustNew(msg.TypeListFieldsResp, string(dev), env.From, env.ID,
				msg.ListFieldsResp{Fields: map[string]string{"address": "1.2.3.4"}})
			_ = f.ep.Send(resp)
		}
	})
	return f
}

func ethAbs(dev core.DeviceID, id core.ModuleID, iface string, external bool) core.Abstraction {
	return core.Abstraction{
		Ref:      core.Ref(core.NameETH, dev, id),
		Up:       core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4}},
		Peerable: []core.ModuleName{core.NameETH},
		Switch:   core.SwitchSpec{Modes: []core.SwitchMode{core.SwPhyUp, core.SwUpPhy}},
		Physical: []core.PhysicalPipeInfo{{Pipe: core.PipeID("Phy-" + iface), Enabled: true, External: external}},
	}
}

func ipAbs(dev core.DeviceID, id core.ModuleID, domain string) core.Abstraction {
	return core.Abstraction{
		Ref:      core.Ref(core.NameIPv4, dev, id),
		Up:       core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4}},
		Down:     core.PipeSpec{Connectable: []core.ModuleName{core.NameIPv4, core.NameETH}},
		Peerable: []core.ModuleName{core.NameIPv4},
		Switch: core.SwitchSpec{Modes: []core.SwitchMode{
			core.SwDownUp, core.SwUpDown, core.SwDownDown,
		}},
		Attributes: map[string]string{"address-domain": domain},
	}
}

// buildTwoRouterNM assembles an NM that discovered a 2-router topology:
// D -(ext)- R1 - R2 -(ext)- E, each router with one customer ETH, one core
// ETH and IP modules.
func buildTwoRouterNM(t *testing.T) *NM {
	t.Helper()
	hub := channel.NewHub()
	n := New()
	n.AttachChannel(hub.Endpoint(msg.NMName))

	r1 := []core.Abstraction{
		ethAbs("R1", "a", "eth0", true),
		ethAbs("R1", "b", "eth1", false),
		ipAbs("R1", "g", "C1"),
		ipAbs("R1", "h", "ISP"),
	}
	r2 := []core.Abstraction{
		ethAbs("R2", "c", "eth0", false),
		ethAbs("R2", "f", "eth1", true),
		ipAbs("R2", "j", "ISP"),
		ipAbs("R2", "k", "C1"),
	}
	ma1 := newFakeMA(hub, "R1", r1)
	ma2 := newFakeMA(hub, "R2", r2)
	_ = ma1
	_ = ma2
	// Hellos and topology.
	for _, dev := range []string{"R1", "R2"} {
		_ = hub
		env := msg.MustNew(msg.TypeHello, dev, msg.NMName, 0, msg.Hello{Device: core.DeviceID(dev)})
		ep := hub.Endpoint(dev + "-announcer")
		ep.SetHandler(func(msg.Envelope) {})
		if err := ep.Send(env); err != nil {
			t.Fatal(err)
		}
	}
	send := func(top msg.Topology) {
		ep := hub.Endpoint(string(top.Device) + "-top")
		ep.SetHandler(func(msg.Envelope) {})
		if err := ep.Send(msg.MustNew(msg.TypeTopology, string(top.Device), msg.NMName, 0, top)); err != nil {
			t.Fatal(err)
		}
	}
	send(msg.Topology{Device: "R1", Ports: []msg.PortReport{
		{Name: "eth0", Attached: true, External: true},
		{Name: "eth1", Attached: true, PeerDevice: "R2", PeerPort: "eth0"},
	}})
	send(msg.Topology{Device: "R2", Ports: []msg.PortReport{
		{Name: "eth0", Attached: true, PeerDevice: "R1", PeerPort: "eth1"},
		{Name: "eth1", Attached: true, External: true},
	}})
	if err := n.DiscoverAll(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestGraphConstruction(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes()) != 8 {
		t.Fatalf("nodes = %d", len(g.Nodes()))
	}
	gNode, ok := g.Node(core.Ref(core.NameIPv4, "R1", "g"))
	if !ok {
		t.Fatal("no node g")
	}
	if gNode.Domain != "C1" {
		t.Fatalf("domain = %q", gNode.Domain)
	}
	// g can sit above both ETH modules and the other IP module.
	if len(g.Below(gNode)) != 3 {
		t.Fatalf("below(g) = %v", g.Below(gNode))
	}
	// Physical edge resolution across the R1-R2 wire.
	bNode, _ := g.Node(core.Ref(core.NameETH, "R1", "b"))
	phys := g.Phys(bNode)
	if len(phys) != 1 || phys[0].Peer == nil || phys[0].Peer.Ref.Module != "c" {
		t.Fatalf("phys(b) = %+v", phys)
	}
	aNode, _ := g.Node(core.Ref(core.NameETH, "R1", "a"))
	if pa := g.Phys(aNode); len(pa) != 1 || !pa[0].External {
		t.Fatalf("phys(a) = %+v", pa)
	}
}

func TestFindPathsTwoRouters(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	paths, stats, err := g.FindPaths(FindSpec{
		From:          core.Ref(core.NameETH, "R1", "a"),
		To:            core.Ref(core.NameETH, "R2", "f"),
		TrafficDomain: "C1",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two paths exist: plain routing (g and k are adjacent customer
	// routers in the same domain) and the IP-IP tunnel via h/j.
	if len(paths) != 2 {
		for _, p := range paths {
			t.Logf("path: %s [%s]", p.Describe(), p.Modules())
		}
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	if got := paths[0].Modules(); got != "a, g, b, c, k, f" {
		t.Fatalf("plain path = %q", got)
	}
	if got := paths[1].Modules(); got != "a, g, h, b, c, j, k, f" {
		t.Fatalf("tunnel path = %q", got)
	}
	if stats.DomainMismatch == 0 {
		t.Error("expected domain prunes (g cannot peer with ISP modules)")
	}
	// Peer groups of the tunnel path: the ISP-IP tunnel h..j, the wire
	// ETH b..c, the external groups.
	p := paths[1]
	var ispGroup *PeerGroup
	for i := range p.Groups {
		gr := &p.Groups[i]
		if gr.Protocol == core.NameIPv4 && !gr.External {
			ispGroup = gr
		}
	}
	if ispGroup == nil || len(ispGroup.Members) != 2 || !ispGroup.Closed {
		t.Fatalf("ISP group = %+v", ispGroup)
	}
}

func TestFindPathsErrors(t *testing.T) {
	n := buildTwoRouterNM(t)
	g, err := BuildGraph(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.FindPaths(FindSpec{
		From: core.Ref(core.NameETH, "R1", "nope"),
		To:   core.Ref(core.NameETH, "R2", "f"),
	}); err == nil {
		t.Error("want unknown-module error")
	}
	// A non-external module as start.
	if _, _, err := g.FindPaths(FindSpec{
		From: core.Ref(core.NameETH, "R1", "b"),
		To:   core.Ref(core.NameETH, "R2", "f"),
	}); err == nil {
		t.Error("want no-external-pipe error")
	}
}

func TestSelectPathPrefersFewerPipes(t *testing.T) {
	plain := &Node{Abs: core.Abstraction{}}
	short := &Path{Hops: []Hop{{Node: plain, ExitVia: plain}, {Node: plain}}}
	long := &Path{Hops: []Hop{{Node: plain, ExitVia: plain}, {Node: plain, ExitVia: plain}, {Node: plain}}}
	if got := SelectPath([]*Path{long, short}); got != short {
		t.Error("selector did not prefer fewer pipes")
	}
	if SelectPath(nil) != nil {
		t.Error("empty selection should be nil")
	}
}

func TestSelectPathPrefersFastForwardingOnTie(t *testing.T) {
	slow := &Path{Hops: []Hop{{ExitVia: &Node{}, Node: &Node{Abs: core.Abstraction{}}}, {Node: &Node{Abs: core.Abstraction{}}}}}
	fast := &Path{Hops: []Hop{
		{ExitVia: &Node{}, Node: &Node{Abs: core.Abstraction{Attributes: map[string]string{"forwarding": "fast"}}}},
		{Node: &Node{Abs: core.Abstraction{}}},
	}}
	if got := SelectPath([]*Path{slow, fast}); got != fast {
		t.Error("selector did not prefer fast forwarding on tie")
	}
}

func TestCountersAccounting(t *testing.T) {
	c := Counters{CmdSent: 3, RelayIn: 8, RelayOut: 8, NotifyRecv: 0, AckRecv: 3}
	if c.Sent() != 11 || c.Received() != 8 {
		t.Fatalf("sent=%d recv=%d", c.Sent(), c.Received())
	}
}

func TestNMRelaysConvey(t *testing.T) {
	hub := channel.NewHub()
	n := New()
	n.AttachChannel(hub.Endpoint(msg.NMName))

	var gotOnB []msg.Envelope
	b := hub.Endpoint("B")
	b.SetHandler(func(e msg.Envelope) { gotOnB = append(gotOnB, e) })

	a := hub.Endpoint("A")
	a.SetHandler(func(msg.Envelope) {})
	convey := msg.Convey{
		FromModule: core.Ref(core.NameGRE, "A", "l"),
		ToModule:   core.Ref(core.NameGRE, "B", "n"),
		Kind:       "gre-params",
	}
	if err := a.Send(msg.MustNew(msg.TypeConvey, "A", msg.NMName, 0, convey)); err != nil {
		t.Fatal(err)
	}
	if len(gotOnB) != 1 || gotOnB[0].Type != msg.TypeConvey {
		t.Fatalf("B got %+v", gotOnB)
	}
	c := n.Counters()
	if c.RelayIn != 1 || c.RelayOut != 1 {
		t.Fatalf("counters %+v", c)
	}
}

func TestNMRelaysListFields(t *testing.T) {
	hub := channel.NewHub()
	n := New()
	n.AttachChannel(hub.Endpoint(msg.NMName))
	newFakeMA(hub, "B", nil) // answers listFields with address=1.2.3.4

	got := make(chan msg.Envelope, 1)
	a := hub.Endpoint("A")
	a.SetHandler(func(e msg.Envelope) { got <- e })
	req := msg.ListFieldsReq{
		Requester: core.Ref(core.NameIPv4, "A", "h"),
		Target:    core.Ref(core.NameIPv4, "B", "j"),
		Component: "self",
	}
	if err := a.Send(msg.MustNew(msg.TypeListFieldsReq, "A", msg.NMName, 55, req)); err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-got:
		if e.ID != 55 {
			t.Fatalf("response id %d, want the requester's 55", e.ID)
		}
		var resp msg.ListFieldsResp
		if err := e.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		if resp.Fields["address"] != "1.2.3.4" {
			t.Fatalf("fields %v", resp.Fields)
		}
	default:
		t.Fatal("no relayed response")
	}
	c := n.Counters()
	if c.RelayIn != 2 || c.RelayOut != 2 {
		t.Fatalf("counters %+v (one query+answer must be 2/2, Table VI)", c)
	}
}

func TestDomainAndGatewayResolution(t *testing.T) {
	n := New()
	n.SetDomain("C1-S2", "10.0.2.0/24")
	n.SetGateway("S1-gateway", "192.168.0.1")
	if p, ok := n.resolveDomain("C1-S2"); !ok || p != "10.0.2.0/24" {
		t.Fatalf("domain %q %v", p, ok)
	}
	if a, ok := n.resolveGateway("S1-gateway"); !ok || a != "192.168.0.1" {
		t.Fatalf("gateway %q %v", a, ok)
	}
	if _, ok := n.resolveDomain("nope"); ok {
		t.Error("unknown domain resolved")
	}
}

// ---------------------------------------------------------------------------
// Concurrency: chain grouping, worker pool, sequential fallback

func TestExecutionChains(t *testing.T) {
	ds := func(dev string) DeviceScript { return DeviceScript{Device: core.DeviceID(dev)} }
	cases := []struct {
		name    string
		scripts []DeviceScript
		want    [][]int
	}{
		{"empty", nil, nil},
		{"distinct-devices", []DeviceScript{ds("A"), ds("B"), ds("C")}, [][]int{{0}, {1}, {2}}},
		{"repeat-device", []DeviceScript{ds("A"), ds("B"), ds("A")}, [][]int{{0, 2}, {1}}},
		{"interleaved", []DeviceScript{ds("A"), ds("B"), ds("A"), ds("B"), ds("A")},
			[][]int{{0, 2, 4}, {1, 3}}},
		{"late-first-appearance", []DeviceScript{ds("A"), ds("A"), ds("B")},
			[][]int{{0, 1}, {2}}},
	}
	for _, c := range cases {
		got := executionChains(c.scripts)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s: chains %v, want %v", c.name, got, c.want)
		}
	}
}

func TestForEachDeterministicError(t *testing.T) {
	n := New()
	n.Workers = 8
	// Two failures: the lowest index must win no matter how goroutines
	// are scheduled.
	for trial := 0; trial < 20; trial++ {
		err := n.forEach(16, func(i int) error {
			if i == 3 || i == 11 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Fatalf("trial %d: got %v, want boom 3", trial, err)
		}
	}
}

func TestDiscoverAllSequentialFlag(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		n := buildTwoRouterNM(t)
		n.Sequential = sequential
		if err := n.DiscoverAll(); err != nil {
			t.Fatalf("sequential=%v: %v", sequential, err)
		}
		devs := n.Devices()
		if len(devs) != 2 || devs[0] != "R1" || devs[1] != "R2" {
			t.Fatalf("sequential=%v: devices %v", sequential, devs)
		}
	}
}

func TestExecuteConcurrentCountsMatchSequential(t *testing.T) {
	scripts := []DeviceScript{
		{Device: "R1", Items: []msg.CommandItem{{}, {}}},
		{Device: "R2", Items: []msg.CommandItem{{}}},
	}
	run := func(sequential bool) Counters {
		n := buildTwoRouterNM(t)
		n.Sequential = sequential
		n.ResetCounters()
		if err := n.Execute(scripts); err != nil {
			t.Fatalf("sequential=%v: %v", sequential, err)
		}
		return n.Counters()
	}
	seq, conc := run(true), run(false)
	if seq != conc {
		t.Errorf("counters differ: sequential %+v, concurrent %+v", seq, conc)
	}
	if seq.CmdSent != 2 || seq.AckRecv != 2 {
		t.Errorf("unexpected accounting: %+v", seq)
	}
}

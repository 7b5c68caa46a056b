package device_test

import (
	"errors"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"conman/internal/channel"
	"conman/internal/channel/channeltest"
	"conman/internal/core"
	"conman/internal/device"
	"conman/internal/kernel"
	"conman/internal/modules"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/nm"
)

// rig: one managed router with ETH + IP modules, a hub channel and an NM.
func rig(t *testing.T) (*device.Device, *nm.NM, *channel.Hub) {
	t.Helper()
	net := netsim.New()
	hub := channel.NewHub()
	manager := nm.New()
	manager.AttachChannel(hub.Endpoint(msg.NMName))

	d, err := device.New(net, "X", kernel.RoleRouter, "eth0", "eth1")
	if err != nil {
		t.Fatal(err)
	}
	d.MarkExternal("eth0")
	e0 := modules.NewETH(d.MA, "a", false, "eth0")
	e0.RegisterPhysical(d.MA, "eth0")
	d.AddModule(e0)
	e1 := modules.NewETH(d.MA, "b", false, "eth1")
	e1.RegisterPhysical(d.MA)
	d.AddModule(e1)
	ipm, err := modules.NewIP(d.MA, "g", "C1", map[string]netip.Prefix{
		"eth0": netip.MustParsePrefix("192.168.0.2/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AddModule(ipm)
	d.AddModule(modules.NewGRE(d.MA, "l"))

	d.MA.AttachChannel(hub.Endpoint("X"))
	if err := d.MA.Start(); err != nil {
		t.Fatal(err)
	}
	return d, manager, hub
}

func TestHelloAndTopologyReachNM(t *testing.T) {
	_, manager, _ := rig(t)
	devs := manager.Devices()
	if len(devs) != 1 || devs[0] != "X" {
		t.Fatalf("devices = %v", devs)
	}
	info, ok := manager.Device("X")
	if !ok || !info.Hello {
		t.Fatal("no hello recorded")
	}
	if len(info.Topology.Ports) != 2 {
		t.Fatalf("ports = %+v", info.Topology.Ports)
	}
	for _, p := range info.Topology.Ports {
		if p.Name == "eth0" && !p.External {
			t.Error("eth0 should be external")
		}
	}
}

func TestShowPotentialOverChannel(t *testing.T) {
	_, manager, _ := rig(t)
	abs, err := manager.ShowPotential("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(abs) != 4 {
		t.Fatalf("modules = %d", len(abs))
	}
	// Registration order preserved: a, b, g, l.
	if abs[0].Ref.Module != "a" || abs[3].Ref.Name != core.NameGRE {
		t.Fatalf("order: %v %v", abs[0].Ref, abs[3].Ref)
	}
}

func TestCreatePipeValidation(t *testing.T) {
	_, _, hub := rig(t)
	pipe := func(id core.PipeID, upper, lower core.ModuleRef) msg.CommandBatchResp {
		return channeltest.Batch(t, hub, "X", msg.CommandItem{
			Pipe: &msg.CreatePipeItem{ID: id, Req: core.PipeRequest{Upper: upper, Lower: lower}},
		})
	}
	// Valid: IP over ETH.
	if resp := pipe("P0", core.Ref(core.NameIPv4, "X", "g"), core.Ref(core.NameETH, "X", "a")); !resp.OK() {
		t.Fatalf("valid pipe rejected: %v", resp)
	}
	// Invalid: ETH cannot sit above IP on a router.
	if pipe("P9", core.Ref(core.NameETH, "X", "b"), core.Ref(core.NameIPv4, "X", "g")).OK() {
		t.Fatal("connectable-module validation missing")
	}
	// Invalid: GRE up pipe without satisfying the trade-off dependency.
	if pipe("P1", core.Ref(core.NameIPv4, "X", "g"), core.Ref(core.NameGRE, "X", "l")).OK() {
		t.Fatal("unsatisfied dependency accepted")
	}
	// Duplicate pipe id.
	if pipe("P0", core.Ref(core.NameIPv4, "X", "g"), core.Ref(core.NameETH, "X", "b")).OK() {
		t.Fatal("duplicate pipe id accepted")
	}
	// Unknown module.
	if pipe("P2", core.Ref(core.NameIPv4, "X", "ghost"), core.Ref(core.NameETH, "X", "a")).OK() {
		t.Fatal("unknown module accepted")
	}
}

func TestSwitchRuleUnknownPipeRejected(t *testing.T) {
	_, _, hub := rig(t)
	resp := channeltest.Batch(t, hub, "X", msg.CommandItem{
		Switch: &msg.CreateSwitchReq{Rule: core.SwitchRule{
			Module: core.Ref(core.NameIPv4, "X", "g"), From: "Pnope", To: "Phy-eth0",
		}},
	})
	if resp.OK() {
		t.Fatal("rule with unknown pipe accepted")
	}
}

// deleteItem is a command-batch item deleting one component.
func deleteItem(kind core.ComponentKind, module core.ModuleRef, id string) msg.CommandItem {
	return msg.CommandItem{Delete: &msg.DeleteReq{Req: core.DeleteRequest{Kind: kind, Module: module, ID: id}}}
}

func TestPhysicalPipeVisibleAndUndeletable(t *testing.T) {
	d, _, hub := rig(t)
	if _, ok := d.MA.PipeByID("Phy-eth0"); !ok {
		t.Fatal("physical pipe not registered")
	}
	resp := channeltest.Batch(t, hub, "X", deleteItem(core.ComponentPipe, core.Ref(core.NameETH, "X", "a"), "Phy-eth0"))
	if resp.OK() {
		t.Fatal("physical pipe deletion must fail (NM can only disable them)")
	}
}

func TestTradeoffParsingOnPipe(t *testing.T) {
	p := &device.Pipe{Satisfy: []core.DependencyChoice{
		{Tradeoff: "jitter, delay|ordering|up"},
		{Tradeoff: "loss-rate|error-rate|up"},
	}}
	if !p.TradeoffChosen(core.MetricOrdering) || !p.TradeoffChosen(core.MetricErrorRate) {
		t.Error("chosen trade-offs not detected")
	}
	if p.TradeoffChosen(core.MetricBandwidth) {
		t.Error("unchosen trade-off detected")
	}
	// A key as core.Tradeoff renders it, with two gets and no gives.
	key := core.Tradeoff{Get: []core.Metric{core.MetricOrdering, core.MetricDelay}, Scope: core.EndUp}.Key()
	p = &device.Pipe{Satisfy: []core.DependencyChoice{{Tradeoff: key}}}
	if !p.TradeoffChosen(core.MetricOrdering) || !p.TradeoffChosen(core.MetricDelay) {
		t.Errorf("gets of %q not detected", key)
	}
	if p.TradeoffChosen(core.MetricJitter) {
		t.Errorf("%q: metric outside the get list detected", key)
	}
}

func TestListFieldsAcrossChannel(t *testing.T) {
	_, manager, _ := rig(t)
	// The NM-side API is exercised indirectly; here query a module via
	// the MA's service interface used by modules.
	states, err := manager.ShowActual("X")
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("states = %d", len(states))
	}
	var found bool
	for _, st := range states {
		if st.Ref.Name == core.NameIPv4 {
			if st.LowLevel["addr:eth0"] == "192.168.0.2/24" {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("IP module state missing address binding")
	}
}

func TestErrorEnvelopeForBadBatch(t *testing.T) {
	_, _, hub := rig(t)
	if channeltest.Batch(t, hub, "X", msg.CommandItem{}).OK() {
		t.Fatal("empty command item accepted")
	}
}

// TestUnknownRequestAnswersError: a request the MA does not know fails
// fast with an error reply naming its type, rather than leaving the
// caller to time out; unknown fire-and-forget traffic (ID 0) is dropped.
func TestUnknownRequestAnswersError(t *testing.T) {
	_, _, hub := rig(t)
	env := channeltest.Call(t, hub, "X", "bogus", nil)
	var body msg.Error
	if env.Type != msg.TypeError || env.Decode(&body) != nil || !strings.Contains(body.Message, `"bogus"`) {
		t.Fatalf("reply = %s %s, want an error naming \"bogus\"", env.Type, env.Body)
	}

	replies := 0
	ep := hub.Endpoint("probe")
	ep.SetHandler(func(msg.Envelope) { replies++ }) // hub delivery is synchronous
	if err := ep.Send(msg.MustNew("bogus", "probe", "X", 0, nil)); err != nil {
		t.Fatal(err)
	}
	if replies != 0 {
		t.Fatalf("%d replies to unknown ID-0 traffic, want none", replies)
	}
}

// TestRetransmittedBatchServedFromCache: a byte-identical duplicate of a
// mutating request (the transport's retry path) must be answered from
// the MA's reply cache — same successful response, no re-execution —
// while a different request that happens to reuse the envelope ID must
// execute normally.
func TestRetransmittedBatchServedFromCache(t *testing.T) {
	net := netsim.New()
	hub := channel.NewHub()
	var replies []msg.Envelope
	nmEp := hub.Endpoint(msg.NMName)
	nmEp.SetHandler(func(env msg.Envelope) {
		replies = append(replies, env) // hub delivery is synchronous
	})

	d, err := device.New(net, "X", kernel.RoleRouter, "eth0", "eth1")
	if err != nil {
		t.Fatal(err)
	}
	e0 := modules.NewETH(d.MA, "a", false, "eth0")
	e0.RegisterPhysical(d.MA, "eth0")
	d.AddModule(e0)
	ipm, err := modules.NewIP(d.MA, "g", "C1", map[string]netip.Prefix{
		"eth0": netip.MustParsePrefix("192.168.0.2/24"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.AddModule(ipm)
	d.MA.AttachChannel(hub.Endpoint("X"))

	mkReq := func(pipe core.PipeID) msg.Envelope {
		return msg.MustNew(msg.TypeCommandBatchReq, msg.NMName, "X", 77, msg.CommandBatchReq{
			Items: []msg.CommandItem{{Pipe: &msg.CreatePipeItem{ID: pipe, Req: core.PipeRequest{
				Upper: core.Ref(core.NameIPv4, "X", "g"),
				Lower: core.Ref(core.NameETH, "X", "a"),
			}}}},
		})
	}
	req := mkReq("P5")
	for i := 0; i < 2; i++ {
		if err := nmEp.Send(req); err != nil {
			t.Fatal(err)
		}
	}
	if len(replies) != 2 {
		t.Fatalf("%d replies, want 2", len(replies))
	}
	for i, env := range replies {
		var resp msg.CommandBatchResp
		if env.Type != msg.TypeCommandBatchResp || env.Decode(&resp) != nil || !resp.OK() {
			t.Fatalf("reply %d: %v", i, env)
		}
		if resp.Results[0].PipeID != "P5" {
			t.Fatalf("reply %d: pipe %q", i, resp.Results[0].PipeID)
		}
	}
	if string(replies[0].Body) != string(replies[1].Body) {
		t.Fatalf("cached reply differs:\n%s\n%s", replies[0].Body, replies[1].Body)
	}

	// Same envelope ID, different content: must execute, not hit cache.
	if err := nmEp.Send(mkReq("P6")); err != nil {
		t.Fatal(err)
	}
	var resp msg.CommandBatchResp
	if len(replies) != 3 || replies[2].Decode(&resp) != nil || !resp.OK() {
		t.Fatalf("ID-colliding request not executed: %v", replies)
	}
	if resp.Results[0].PipeID != "P6" {
		t.Fatalf("ID-colliding request served stale pipe %q", resp.Results[0].PipeID)
	}
}

// fakeMod is a BaseModule-embedding module whose switch rules wait
// (ErrPending) until it is told to install or fail them; installed rules
// return an undo that counts its runs.
type fakeMod struct {
	device.BaseModule

	mu    sync.Mutex
	mode  error // ErrPending, nil (install) or a terminal error
	undos int
}

const nameFake core.ModuleName = "FAKE"

func (f *fakeMod) Abstraction() core.Abstraction {
	spec := core.PipeSpec{Connectable: []core.ModuleName{nameFake}}
	return core.Abstraction{Ref: f.Ref(), Kind: core.KindData, Up: spec, Down: spec}
}

func (f *fakeMod) Actual() core.ModuleState { return core.ModuleState{Ref: f.Ref()} }

func (f *fakeMod) InstallSwitchRule(*device.SwitchRuleInstance) (func(), error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.mode != nil {
		return nil, f.mode
	}
	return func() {
		f.mu.Lock()
		f.undos++
		f.mu.Unlock()
	}, nil
}

func (f *fakeMod) set(mode error) {
	f.mu.Lock()
	f.mode = mode
	f.mu.Unlock()
}

// fakeRig registers two fake modules, u over l, joined by pipes P0 and
// P1.
func fakeRig(t *testing.T) (*device.Device, *channel.Hub, *fakeMod) {
	t.Helper()
	hub := channel.NewHub()
	manager := nm.New()
	manager.AttachChannel(hub.Endpoint(msg.NMName))
	d, err := device.New(netsim.New(), "X", kernel.RoleRouter, "eth0")
	if err != nil {
		t.Fatal(err)
	}
	u := &fakeMod{BaseModule: device.BaseModule{ModRef: core.Ref(nameFake, "X", "u"), Svc: d.MA}, mode: device.ErrPending}
	d.AddModule(u)
	d.AddModule(&fakeMod{BaseModule: device.BaseModule{ModRef: core.Ref(nameFake, "X", "l"), Svc: d.MA}})
	d.MA.AttachChannel(hub.Endpoint("X"))
	if err := d.MA.Start(); err != nil {
		t.Fatal(err)
	}
	var items []msg.CommandItem
	for _, id := range []core.PipeID{"P0", "P1"} {
		items = append(items, msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: id, Req: core.PipeRequest{
			Upper: core.Ref(nameFake, "X", "u"), Lower: core.Ref(nameFake, "X", "l"),
		}}})
	}
	if resp := channeltest.Batch(t, hub, "X", items...); !resp.OK() {
		t.Fatalf("pipes: %v", resp)
	}
	return d, hub, u
}

func switchItems(n int, from, to core.PipeID) []msg.CommandItem {
	items := make([]msg.CommandItem, n)
	for i := range items {
		items[i] = msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: core.SwitchRule{
			Module: core.Ref(nameFake, "X", "u"), From: from, To: to,
		}}}
	}
	return items
}

// TestPendingRulesDieWithTheirPipe: a rule still waiting to install is
// dropped when a pipe it references is deleted — not retried into the
// failure log, nor installed against the missing pipe — and the failure
// log keeps only a bounded tail.
func TestPendingRulesDieWithTheirPipe(t *testing.T) {
	d, hub, u := fakeRig(t)
	if resp := channeltest.Batch(t, hub, "X", switchItems(3, "P0", "P1")...); !resp.OK() || !resp.Results[0].Pending {
		t.Fatalf("rules: %+v", resp)
	}
	if n := d.MA.PendingRules(); n != 3 {
		t.Fatalf("%d pending rules, want 3", n)
	}
	if resp := channeltest.Batch(t, hub, "X", deleteItem(core.ComponentPipe, core.Ref(nameFake, "X", "l"), "P1")); !resp.OK() {
		t.Fatal(resp.Errors)
	}
	if n := d.MA.PendingRules(); n != 0 {
		t.Fatalf("%d pending rules survived their pipe", n)
	}
	u.set(errors.New("boom"))
	d.MA.Kick()
	if f := d.MA.FailedRules(); len(f) != 0 {
		t.Fatalf("rules of a deleted pipe failed later: %v", f)
	}

	// Terminal failures keep a bounded tail.
	u.set(device.ErrPending)
	channeltest.Batch(t, hub, "X", switchItems(600, "P0", "P0")...)
	u.set(errors.New("boom"))
	d.MA.Kick()
	if f := d.MA.FailedRules(); len(f) == 0 || len(f) > 300 {
		t.Fatalf("%d failed rules logged, want a bounded non-empty tail", len(f))
	}
}

// TestRuleRegistry: the MA records installed rules, reports them and
// every pipe end in showActual, refuses to delete a rule it does not know
// or that another module owns, and runs a rule's undo once when its pipe
// goes.
func TestRuleRegistry(t *testing.T) {
	_, hub, u := fakeRig(t)
	u.set(nil)
	resp := channeltest.Batch(t, hub, "X", switchItems(1, "P0", "P1")...)
	if !resp.OK() {
		t.Fatalf("rule: %v", resp)
	}
	id := resp.Results[0].RuleID
	var actual msg.ShowActualResp
	if err := channeltest.Call(t, hub, "X", msg.TypeShowActualReq, nil).Decode(&actual); err != nil {
		t.Fatal(err)
	}
	for _, st := range actual.Modules {
		switch st.Ref.Module {
		case "u":
			if len(st.SwitchRules) != 1 || st.SwitchRules[0].ID != id {
				t.Errorf("u rules = %+v", st.SwitchRules)
			}
			if len(st.Pipes) != 2 || st.Pipes[0].ID != "P0" || st.Pipes[0].End != core.EndDown {
				t.Errorf("u pipes = %+v", st.Pipes)
			}
		case "l":
			if len(st.Pipes) != 2 || st.Pipes[1].ID != "P1" || st.Pipes[1].End != core.EndUp {
				t.Errorf("l pipes = %+v", st.Pipes)
			}
		}
	}
	for _, item := range []msg.CommandItem{
		deleteItem(core.ComponentSwitchRule, core.Ref(nameFake, "X", "u"), "X-sw99"),
		deleteItem(core.ComponentSwitchRule, core.Ref(nameFake, "X", "l"), id),
	} {
		if channeltest.Batch(t, hub, "X", item).OK() {
			t.Errorf("delete %+v accepted", item.Delete.Req)
		}
	}
	if resp := channeltest.Batch(t, hub, "X", deleteItem(core.ComponentPipe, core.Ref(nameFake, "X", "l"), "P0")); !resp.OK() {
		t.Fatal(resp.Errors)
	}
	if u.undos != 1 {
		t.Fatalf("undo ran %d times, want 1", u.undos)
	}
	if channeltest.Batch(t, hub, "X", deleteItem(core.ComponentSwitchRule, core.Ref(nameFake, "X", "u"), id)).OK() {
		t.Error("rule outlived its pipe")
	}
}

// slotMod is a toy exporter: it advertises one handle field, "slot", and
// reports the same value for every pipe it is the lower end of.
type slotMod struct {
	device.BaseModule

	mu   sync.Mutex
	slot string
}

func (m *slotMod) Abstraction() core.Abstraction {
	spec := core.PipeSpec{Connectable: []core.ModuleName{nameFake}}
	return core.Abstraction{Ref: m.Ref(), Kind: core.KindData, Up: spec, Down: spec, HandleFields: []string{"slot"}}
}

func (m *slotMod) Actual() core.ModuleState { return core.ModuleState{Ref: m.Ref()} }

func (m *slotMod) ListFields(string) (map[string]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return map[string]string{"slot": m.slot}, nil
}

func (m *slotMod) set(slot string) {
	m.mu.Lock()
	m.slot = slot
	m.mu.Unlock()
}

// TestExportedHandleRidesInShowActual: a module advertising HandleFields
// has its exported handle reported on its up pipe — by the create result
// and by showActual, where the digest covers it, so a handle that moves
// with nothing else moving still changes the digest. A module that
// exports nothing renders no handle key at all.
func TestExportedHandleRidesInShowActual(t *testing.T) {
	hub := channel.NewHub()
	nm.New().AttachChannel(hub.Endpoint(msg.NMName))
	d, err := device.New(netsim.New(), "X", kernel.RoleRouter, "eth0")
	if err != nil {
		t.Fatal(err)
	}
	u, l := core.Ref(nameFake, "X", "u"), core.Ref(nameFake, "X", "l")
	s := &slotMod{BaseModule: device.BaseModule{ModRef: core.Ref(nameFake, "X", "s"), Svc: d.MA}, slot: "1"}
	d.AddModule(&fakeMod{BaseModule: device.BaseModule{ModRef: u, Svc: d.MA}})
	d.AddModule(&fakeMod{BaseModule: device.BaseModule{ModRef: l, Svc: d.MA}})
	d.AddModule(s)
	d.MA.AttachChannel(hub.Endpoint("X"))
	if err := d.MA.Start(); err != nil {
		t.Fatal(err)
	}
	resp := channeltest.Batch(t, hub, "X",
		msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: "P0", Req: core.PipeRequest{Upper: u, Lower: s.Ref()}}},
		msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: "P1", Req: core.PipeRequest{Upper: u, Lower: l}}},
	)
	if !resp.OK() {
		t.Fatal(resp.Errors)
	}
	if h0, h1 := resp.Results[0].Handle, resp.Results[1].Handle; h0 != "slot=1" || h1 != "" {
		t.Errorf("create results report handles %q and %q, want slot=1 and none", h0, h1)
	}

	read := func(ifDigest string) (msg.ShowActualResp, string) {
		t.Helper()
		env := channeltest.Call(t, hub, "X", msg.TypeShowActualReq, msg.ShowActualReq{IfDigest: ifDigest})
		var body msg.ShowActualResp
		if err := env.Decode(&body); err != nil {
			t.Fatal(err)
		}
		return body, string(env.Body)
	}
	first, raw := read("")
	for _, st := range first.Modules {
		for _, ps := range st.Pipes {
			want := ""
			if st.Ref == s.Ref() && ps.End == core.EndUp {
				want = "slot=1"
			}
			if ps.Handle != want {
				t.Errorf("%s reports handle %q on %s, want %q", st.Ref, ps.Handle, ps.ID, want)
			}
		}
	}
	if got := strings.Count(raw, `"handle":`); got != 1 {
		t.Errorf("showActual body has %d handle keys, want only the exporter's up pipe:\n%s", got, raw)
	}

	s.set("2")
	second, _ := read(first.Digest)
	if second.Unchanged || second.Digest == first.Digest {
		t.Fatalf("the handle moved but the digest stayed %s (unchanged %v)", second.Digest, second.Unchanged)
	}
	for _, st := range second.Modules {
		for _, ps := range st.Pipes {
			if st.Ref == s.Ref() && ps.End == core.EndUp && ps.Handle != "slot=2" {
				t.Errorf("exporter's up pipe reports %q after the move, want slot=2", ps.Handle)
			}
		}
	}
}

package modules_test

import (
	"fmt"
	"slices"
	"strings"
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

// TestIPSecIKEControlModuleDependency reproduces Fig 1 / §II-F: the IPSec
// data module advertises an external-state security dependency; the IKE
// control module advertises that it provides it; the NM wires the two by
// naming the provider in the pipe's dependency choice, and the IKE peers
// negotiate a shared key over the management channel.
func TestIPSecIKEControlModuleDependency(t *testing.T) {
	net := netsim.New()
	hub := channel.NewHub()
	manager := nm.New()
	manager.EnableMessageLog()
	manager.AttachChannel(hub.Endpoint(msg.NMName))

	mk := func(id core.DeviceID) (*device.Device, *modules.IPSec, *modules.IKE) {
		d, err := device.New(net, id, kernel.RoleRouter, "eth0")
		if err != nil {
			t.Fatal(err)
		}
		ipm, err := modules.NewIP(d.MA, "ip", "ISP", nil)
		if err != nil {
			t.Fatal(err)
		}
		ipm.AllowConnectable(core.NameIPSec)
		d.AddModule(ipm)
		sec := modules.NewIPSec(d.MA, "sec")
		d.AddModule(sec)
		ike := modules.NewIKE(d.MA, "ike")
		d.AddModule(ike)
		d.MA.AttachChannel(hub.Endpoint(string(id)))
		if err := d.MA.Start(); err != nil {
			t.Fatal(err)
		}
		return d, sec, ike
	}
	_, secA, _ := mk("A")
	_, secB, _ := mk("B")

	// The NM can match the dependency to the provider without protocol
	// knowledge: token equality between StateDependency and ProvidesState.
	absA, err := manager.ShowPotential("A")
	if err != nil {
		t.Fatal(err)
	}
	var dep *core.Dependency
	var provider core.ModuleRef
	for _, a := range absA {
		if a.Security.StateDependency != nil {
			dep = a.Security.StateDependency
		}
		for _, tok := range a.ProvidesState {
			if dep != nil && tok == dep.Token {
				provider = a.Ref
			}
		}
	}
	if dep == nil || provider.IsZero() {
		t.Fatalf("dependency/provider matching failed: dep=%v provider=%v", dep, provider)
	}
	if provider != core.Ref(core.NameIKE, "A", "ike") {
		t.Fatalf("provider = %v", provider)
	}

	// Create the IPSec pipes on both devices, naming the provider.
	mkPipe := func(dev core.DeviceID, peerDev core.DeviceID, prov core.ModuleRef) string {
		resp := channeltest.Batch(t, hub, dev,
			msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: "P0", Req: core.PipeRequest{
				Upper:     core.Ref(core.NameIPv4, dev, "ip"),
				Lower:     core.Ref(core.NameIPSec, dev, "sec"),
				LowerPeer: core.Ref(core.NameIPSec, peerDev, "sec"),
				Satisfy: []core.DependencyChoice{{
					Token: modules.IPSecKeyToken, Provider: prov.String(),
				}},
			}}},
			msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: "P1", Req: core.PipeRequest{
				Upper: core.Ref(core.NameIPSec, dev, "sec"),
				Lower: core.Ref(core.NameIPv4, dev, "ip"),
			}}},
			msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: core.SwitchRule{
				Module: core.Ref(core.NameIPSec, dev, "sec"), From: "P0", To: "P1",
			}}},
		)
		for i, e := range resp.Errors {
			if e != "" {
				t.Fatalf("%s item %d: %s", dev, i, e)
			}
		}
		return resp.Results[2].RuleID
	}
	ruleA := mkPipe("A", "B", core.Ref(core.NameIKE, "A", "ike"))
	mkPipe("B", "A", core.Ref(core.NameIKE, "B", "ike"))

	// Both sides must have converged on the same SA key, negotiated by
	// the IKE modules — the NM never saw it.
	keyA, okA := secA.SAKey(core.Ref(core.NameIPSec, "B", "sec"))
	keyB, okB := secB.SAKey(core.Ref(core.NameIPSec, "A", "sec"))
	if !okA || !okB {
		t.Fatalf("SA keys missing: A=%v B=%v", okA, okB)
	}
	if keyA != keyB || keyA == 0 {
		t.Fatalf("SA keys diverge: %#x vs %#x", keyA, keyB)
	}
	// One offer and one reply: the responder answers although the
	// initiator already holds its key.
	ikeSA := 0
	for _, line := range manager.MessageLog() {
		if strings.HasSuffix(line, ", ike-sa)") {
			ikeSA++
		}
	}
	if ikeSA != 2 {
		t.Errorf("%d ike-sa conveys relayed, want 2", ikeSA)
	}

	// IPSec owns its components like every other module: showActual
	// reports its rule and both ends of both pipes, and the NM can take
	// them all back out, the SA key with the rule.
	secRef := core.Ref(core.NameIPSec, "A", "sec")
	listed := func() (pipes, rules []string) {
		states, err := manager.ShowActual("A")
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range states {
			for _, ps := range st.Pipes {
				pipes = append(pipes, fmt.Sprintf("%s:%s:%s", st.Ref.Module, ps.ID, ps.End))
			}
			for _, r := range st.SwitchRules {
				rules = append(rules, fmt.Sprintf("%s:%s", st.Ref.Module, r.ID))
			}
		}
		return pipes, rules
	}
	pipes, rules := listed()
	if want := []string{"ip:P0:down", "ip:P1:up", "sec:P0:up", "sec:P1:down"}; !slices.Equal(sorted(pipes), want) {
		t.Errorf("showActual pipes = %v, want %v", pipes, want)
	}
	if want := []string{"sec:" + ruleA}; !slices.Equal(rules, want) {
		t.Errorf("showActual rules = %v, want %v", rules, want)
	}
	var deletes []msg.CommandItem
	for _, req := range []core.DeleteRequest{
		{Kind: core.ComponentSwitchRule, Module: secRef, ID: ruleA},
		{Kind: core.ComponentPipe, Module: secRef, ID: "P0"},
		{Kind: core.ComponentPipe, Module: core.Ref(core.NameIPv4, "A", "ip"), ID: "P1"},
	} {
		deletes = append(deletes, msg.CommandItem{Delete: &msg.DeleteReq{Req: req}})
	}
	for i, e := range channeltest.Batch(t, hub, "A", deletes...).Errors {
		if e != "" {
			t.Fatalf("delete %s %s: %s", deletes[i].Delete.Req.Kind, deletes[i].Delete.Req.ID, e)
		}
	}
	if pipes, rules := listed(); len(pipes) != 0 || len(rules) != 0 {
		t.Errorf("after deletes showActual lists pipes %v, rules %v", pipes, rules)
	}
	if _, ok := secA.SAKey(core.Ref(core.NameIPSec, "B", "sec")); ok {
		t.Error("SA key survived its rule")
	}
}

func sorted(s []string) []string {
	slices.Sort(s)
	return s
}

// TestIPSecPipeRequiresProvider checks the dependency is enforced.
func TestIPSecPipeRequiresProvider(t *testing.T) {
	net := netsim.New()
	hub := channel.NewHub()
	manager := nm.New()
	manager.AttachChannel(hub.Endpoint(msg.NMName))
	d, err := device.New(net, "A", kernel.RoleRouter, "eth0")
	if err != nil {
		t.Fatal(err)
	}
	ipm, err := modules.NewIP(d.MA, "ip", "ISP", nil)
	if err != nil {
		t.Fatal(err)
	}
	ipm.AllowConnectable(core.NameIPSec)
	d.AddModule(ipm)
	d.AddModule(modules.NewIPSec(d.MA, "sec"))
	d.MA.AttachChannel(hub.Endpoint("A"))
	if err := d.MA.Start(); err != nil {
		t.Fatal(err)
	}
	resp := channeltest.Batch(t, hub, "A", msg.CommandItem{
		Pipe: &msg.CreatePipeItem{ID: "P0", Req: core.PipeRequest{
			Upper:     core.Ref(core.NameIPv4, "A", "ip"),
			Lower:     core.Ref(core.NameIPSec, "A", "sec"),
			LowerPeer: core.Ref(core.NameIPSec, "B", "sec"),
		}},
	})
	if resp.OK() {
		t.Fatal("IPSec pipe without a key provider must be rejected")
	}
}

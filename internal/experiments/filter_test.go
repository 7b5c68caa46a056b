package experiments

import (
	"net/netip"
	"testing"
	"time"

	"conman/internal/core"
	"conman/internal/modules"
	"conman/internal/msg"
	"conman/internal/nm"
)

// TestFilterResolutionAndDependencyMaintenance reproduces §II-E: the NM
// installs "drop packets from module X going to <FOO,C,z>" on an IP
// module; the module resolves the abstract endpoints to addresses and a
// port via listFieldsAndValues; when the application moves to another
// port, the installed trigger fires and the NM re-resolves the filter —
// the classic "application was started on some other port" failure mode
// handled automatically.
func TestFilterResolutionAndDependencyMaintenance(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	// Configure the GRE VPN so sites can exchange UDP.
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}

	// A "FOO" application module on device C at port 592 (the paper's
	// example values), reachable at C's customer-side address.
	appAddr := ip("192.168.1.2")
	foo := modules.NewApp(tb.Devices["C"].MA, "FOO", "z", appAddr, 592)
	tb.Devices["C"].AddModule(foo)

	// Sanity: before any filter, datagrams reach the app. (D's kernel
	// originates them; the path is direct IP routing to C.)
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 592, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 1 || string(got[0]) != "hello" {
		t.Fatalf("app received %v", got)
	}

	// The NM asks the inspecting IP module on C to drop traffic to the
	// app — in abstract terms only.
	target := foo.Ref()
	rule := core.FilterRule{
		Module:   core.Ref(core.NameIPv4, "C", "k"),
		ToModule: &target,
		Action:   core.ActionDrop,
	}
	ruleID, err := tb.NM.CreateFilter(rule)
	if err != nil {
		t.Fatal(err)
	}
	if ruleID == "" {
		t.Fatal("no rule id")
	}
	// The module resolved the app's concrete fields itself.
	states, err := tb.NM.ShowActual("C")
	if err != nil {
		t.Fatal(err)
	}
	var resolved map[string]string
	for _, st := range states {
		for _, f := range st.Filters {
			if f.ID == ruleID {
				resolved = f.ResolvedFields
			}
		}
	}
	if resolved["dst"] != appAddr.String() || resolved["dst-port"] != "592" {
		t.Fatalf("resolved fields = %v", resolved)
	}

	// Blocked now.
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 592, []byte("blocked")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 1 {
		t.Fatalf("filter did not block: %d datagrams", len(got))
	}

	// Dependency maintenance: watch the app, re-resolve on change.
	events, cancel := tb.NM.Subscribe(0)
	defer cancel()
	if _, err := tb.NM.InstallTrigger(foo.Ref(), "self"); err != nil {
		t.Fatal(err)
	}

	// The application moves to port 593 — without maintenance the old
	// filter would now miss it.
	foo.SetPort(593)
	fired := false
	for !fired {
		select {
		case ev := <-events:
			fired = ev.Kind == nm.EventTrigger && ev.Module == foo.Ref()
		case <-time.After(time.Second):
			t.Fatal("trigger did not fire")
		}
	}
	// The NM's dependency tracker re-resolves the dependent filter.
	k, _ := tb.Devices["C"].MA.LocalModule("k")
	ipMod, ok := k.(*modules.IP)
	if !ok {
		t.Fatalf("module k on C is %T, not *modules.IP", k)
	}
	if err := ipMod.ReResolveFilter(ruleID); err != nil {
		t.Fatalf("filter was not re-resolved: %v", err)
	}
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 593, []byte("after-move")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 1 {
		t.Fatalf("re-resolved filter did not block the new port: %d datagrams", len(got))
	}

	// Deleting the filter restores delivery.
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind: core.ComponentFilterRule, Module: rule.Module, ID: ruleID,
	}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Customer["E"].SendUDP(ip("192.168.1.1"), appAddr, 4000, 593, []byte("open-again")); err != nil {
		t.Fatal(err)
	}
	if got := foo.Received(); len(got) != 2 || string(got[1]) != "open-again" {
		t.Fatalf("after delete: %v", got)
	}
}

// TestSelfTestPrimitive exercises §II-D.2 through the NM.
func TestSelfTestPrimitive(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}
	greA := core.Ref(core.NameGRE, "A", "l")
	ok, detail, err := tb.NM.SelfTest(greA, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("self-test failed: %s", detail)
	}
	// Cut the core link: the self-test must localise the fault.
	if err := tb.Net.SetMediumUp("BC", false); err != nil {
		t.Fatal(err)
	}
	ok, _, err = tb.NM.SelfTest(greA, "P1")
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("self-test passed across a cut wire")
	}
}

// TestShowActualExposesNegotiatedState verifies operators can see the
// low-level values the modules derived (keys, endpoints) without the NM
// needing them.
func TestShowActualExposesNegotiatedState(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}
	states, err := tb.NM.ShowActual("A")
	if err != nil {
		t.Fatal(err)
	}
	var greState *core.ModuleState
	for i, st := range states {
		if st.Ref.Name == core.NameGRE {
			greState = &states[i]
		}
	}
	if greState == nil {
		t.Fatal("no GRE state")
	}
	found := false
	for _, k := range greState.SortedLowLevel() {
		v := greState.LowLevel[k]
		if len(k) > 7 && k[:7] == "tunnel:" {
			found = true
			for _, want := range []string{"local=204.9.168.1", "remote=204.9.169.1", "ikey=1001", "okey=2001"} {
				if !containsStr(v, want) {
					t.Errorf("tunnel state missing %q: %s", want, v)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no tunnel low-level state: %v", greState.LowLevel)
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPipeDeletion verifies delete() tears down a tunnel.
func TestPipeDeletion(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "GRE-IP tunnel"); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(100); err != nil {
		t.Fatal(err)
	}
	// Delete the GRE up-pipe on A: the module removes its tunnel.
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind:   core.ComponentPipe,
		Module: core.Ref(core.NameGRE, "A", "l"),
		ID:     "P1",
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Devices["A"].Kernel.Tunnel("gre-P1-P2"); ok {
		t.Fatal("tunnel survived pipe deletion")
	}
	// Traffic no longer flows.
	before := len(tb.Customer["E"].ProbeEchoes())
	if err := tb.Customer["D"].SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 101); err != nil {
		t.Fatal(err)
	}
	if got := len(tb.Customer["E"].ProbeEchoes()); got != before {
		t.Fatal("traffic still flows after pipe deletion")
	}
}

func TestFloodChannelRunsWholeVPN(t *testing.T) {
	// The self-bootstrapping channel can carry the entire configuration:
	// rebuild Fig 4 but attach everything through flood nodes.
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	// Re-attach: NM on device A's flood node, MAs on their own.
	tb.NM.AttachChannel(tb.Devices["A"].FloodNode().Endpoint(msg.NMName))
	for _, id := range []core.DeviceID{"A", "B", "C"} {
		dev := tb.Devices[id]
		dev.MA.AttachChannel(dev.FloodNode().Endpoint(string(id)))
		if err := dev.MA.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.NM.DiscoverAll(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ConfigureVPN(tb, Fig4Goal(), "MPLS"); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(777); err != nil {
		t.Fatal(err)
	}
}

var _ = netip.Addr{}

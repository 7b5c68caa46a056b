package experiments

import (
	"strings"
	"sync"
	"testing"
	"time"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/nm"
)

// fixture builds a testbed plus the matching intent for one path
// flavour of the evaluation topologies.
type fixture struct {
	name   string
	build  func() (*Testbed, error)
	intent nm.Intent
}

func intentFixtures() []fixture {
	return []fixture{
		{"GRE", BuildFig4, VPNIntent(Fig4Goal(), "GRE-IP tunnel")},
		{"MPLS", BuildFig4, VPNIntent(Fig4Goal(), "MPLS")},
		{"VLAN", BuildFig9, VPNIntent(Fig9Goal(), "VLAN tunnel")},
	}
}

// TestApplyIdempotent pins the core reconciliation contract: after a
// successful Apply, a fresh Plan for the same intent is empty and
// re-applying it sends zero commands (Counters delta == 0).
func TestApplyIdempotent(t *testing.T) {
	for i, fx := range intentFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			tb, err := fx.build()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := tb.NM.Plan(fx.intent)
			if err != nil {
				t.Fatal(err)
			}
			if len(plan.Deletes) != 0 {
				t.Errorf("fresh testbed plan has %d delete batches", len(plan.Deletes))
			}
			if err := tb.NM.Apply(plan); err != nil {
				t.Fatal(err)
			}
			if err := tb.VerifyConnectivity(uint32(90000 + 100*i)); err != nil {
				t.Fatalf("after first apply: %v", err)
			}

			before := tb.NM.Counters()
			second, err := tb.NM.Plan(fx.intent)
			if err != nil {
				t.Fatal(err)
			}
			if !second.Empty() {
				t.Fatalf("second plan not empty:\n%s", second.Render())
			}
			if err := tb.NM.Apply(second); err != nil {
				t.Fatal(err)
			}
			after := tb.NM.Counters()
			if before != after {
				t.Errorf("second apply sent traffic: before %+v, after %+v", before, after)
			}
		})
	}
}

// TestDestroyThenReapply proves full teardown: withdrawing the only
// intent and reconciling removes its components (probes stop being
// delivered, self-test reports the path gone), and a following Plan and
// Apply restore delivery end to end.
func TestDestroyThenReapply(t *testing.T) {
	for i, fx := range intentFixtures() {
		t.Run(fx.name, func(t *testing.T) {
			tb, err := fx.build()
			if err != nil {
				t.Fatal(err)
			}
			plan, err := tb.NM.Plan(fx.intent)
			if err != nil {
				t.Fatal(err)
			}
			if err := tb.NM.Apply(plan); err != nil {
				t.Fatal(err)
			}
			token := uint32(91000 + 100*i)
			if err := tb.VerifyConnectivity(token); err != nil {
				t.Fatalf("before destroy: %v", err)
			}

			if err := tb.NM.Withdraw(fx.intent.Name); err != nil {
				t.Fatal(err)
			}
			down, err := tb.NM.Reconcile()
			if err != nil {
				t.Fatalf("destroy: %v", err)
			}
			if len(down.Deletes) == 0 {
				t.Fatal("destroy plan deleted nothing")
			}
			// Probe must no longer cross the (former) VPN path.
			d, e := tb.Customer["D"], tb.Customer["E"]
			dst := "10.0.2.1"
			if err := d.SendProbeFrom(ip("10.0.1.1"), ip(dst), token+10); err != nil {
				t.Fatal(err)
			}
			tb.Net.Flush()
			for _, tok := range e.ProbeEchoes() {
				if tok == token+10 {
					t.Fatal("probe still delivered after destroy")
				}
			}
			// The NM's own self-test on the path's first data module
			// confirms the path is gone.
			if fx.name == "GRE" {
				ok, detail, err := tb.NM.SelfTest(core.Ref(core.NameGRE, "A", "l"), "P1")
				if err != nil {
					t.Fatalf("selfTest: %v", err)
				}
				if ok {
					t.Errorf("GRE self-test still passes after destroy: %s", detail)
				}
			}
			// A destroyed intent plans as pure creation again.
			again, err := tb.NM.Plan(fx.intent)
			if err != nil {
				t.Fatal(err)
			}
			if len(again.Creates) == 0 {
				t.Fatal("post-destroy plan creates nothing")
			}
			if err := tb.NM.Apply(again); err != nil {
				t.Fatalf("re-apply: %v", err)
			}
			if err := tb.VerifyConnectivity(token + 20); err != nil {
				t.Fatalf("after re-apply: %v", err)
			}
		})
	}
}

// TestApplyHealsPartialFailure kills one configured component out of
// band (the paper's §II-D failure model: a module loses state) and
// checks the next Plan/Apply cycle repairs exactly the damage.
func TestApplyHealsPartialFailure(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	intent := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
	plan, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(92000); err != nil {
		t.Fatalf("before failure: %v", err)
	}

	// Kill the g/l pipe on router A: the GRE tunnel and the rules built
	// on the pipe vanish with it.
	if err := tb.NM.Delete(core.DeleteRequest{
		Kind: core.ComponentPipe, Module: core.Ref(core.NameGRE, "A", "l"), ID: "P1",
	}); err != nil {
		t.Fatal(err)
	}
	d, e := tb.Customer["D"], tb.Customer["E"]
	if err := d.SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 92100); err != nil {
		t.Fatal(err)
	}
	tb.Net.Flush()
	for _, tok := range e.ProbeEchoes() {
		if tok == 92100 {
			t.Fatal("path still up after killing pipe P1 on A")
		}
	}

	repair, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if repair.Empty() {
		t.Fatal("plan after failure is empty — damage not observed")
	}
	// The repair is local to A: only the missing pipe and its dependent
	// rules are recreated.
	for _, ds := range repair.Creates {
		if ds.Device != "A" {
			t.Errorf("repair touches %s:\n%s", ds.Device, ds.Script())
		}
	}
	if err := tb.NM.Apply(repair); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(92200); err != nil {
		t.Fatalf("after repair: %v", err)
	}
}

// TestReconfigureBetweenFlavours drives the A->B->A scenario the
// one-shot API could not express: one intent on the Fig 4 testbed is
// re-planned from GRE to MPLS and back by flipping its Prefer, with the
// previous flavour's components pruned at each step.
func TestReconfigureBetweenFlavours(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	gre := nm.Intent{Name: "vpn", Goal: Fig4Goal(), Prefer: "GRE-IP tunnel"}
	mpls := gre
	mpls.Prefer = "MPLS"

	step := func(intent nm.Intent, wantDeletes bool, token uint32) {
		t.Helper()
		plan, err := tb.NM.Plan(intent)
		if err != nil {
			t.Fatal(err)
		}
		if wantDeletes && len(plan.Deletes) == 0 {
			t.Fatalf("reconfigure to %q pruned nothing:\n%s", intent.Prefer, plan.Render())
		}
		if err := tb.NM.Apply(plan); err != nil {
			t.Fatalf("apply %q: %v", intent.Prefer, err)
		}
		if err := tb.VerifyConnectivity(token); err != nil {
			t.Fatalf("after %q: %v", intent.Prefer, err)
		}
	}
	step(gre, false, 93000)
	step(mpls, true, 93100)
	step(gre, true, 93200)

	// After the final flip the MPLS flavour's state must be gone: planning
	// it is non-trivial again.
	p, err := tb.NM.Plan(mpls)
	if err != nil {
		t.Fatal(err)
	}
	if p.Empty() {
		t.Error("MPLS plan empty after reconfiguring back to GRE")
	}
}

// TestPlanIsDryRun checks that planning never mutates the network: the
// rendered plan lists the pending commands and the counters stay
// untouched.
func TestPlanIsDryRun(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	tb.NM.ResetCounters()
	plan, err := tb.NM.Plan(VPNIntent(Fig4Goal(), "GRE-IP tunnel"))
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.NM.Counters(); got.CmdSent != 0 {
		t.Errorf("planning sent %d command batches", got.CmdSent)
	}
	out := plan.Render()
	for _, want := range []string{"GRE-IP tunnel", "create (pipe", "to create"} {
		if !strings.Contains(out, want) {
			t.Errorf("dry-run rendering missing %q:\n%s", want, out)
		}
	}
	// Nothing was configured: the data plane must still be dark.
	d, e := tb.Customer["D"], tb.Customer["E"]
	if err := d.SendProbeFrom(ip("10.0.1.1"), ip("10.0.2.1"), 94000); err != nil {
		t.Fatal(err)
	}
	tb.Net.Flush()
	for _, tok := range e.ProbeEchoes() {
		if tok == 94000 {
			t.Fatal("dry-run plan configured the network")
		}
	}
}

// planLines flattens a plan's batches into "device: command" lines,
// deletes first, and fails the test if a phase carries two scripts for
// one device: the diff emits at most one batch per device per phase,
// which is what lets the chain executor treat script order as chain
// order.
func planLines(t *testing.T, deletes, creates []nm.DeviceScript) []string {
	t.Helper()
	var lines []string
	for phase, scripts := range [][]nm.DeviceScript{deletes, creates} {
		seen := map[core.DeviceID]bool{}
		for _, ds := range scripts {
			if seen[ds.Device] {
				t.Errorf("phase %d has more than one script for device %s", phase, ds.Device)
			}
			seen[ds.Device] = true
			for _, line := range ds.Rendered {
				lines = append(lines, string(ds.Device)+": "+line)
			}
		}
	}
	return lines
}

// TestMessageLogDeterministicUnderConcurrency pins the per-device
// sequence + stable merge: two concurrent configuration runs of the
// same testbed produce byte-identical traces (ROADMAP open item).
func TestMessageLogDeterministicUnderConcurrency(t *testing.T) {
	run := func() []string {
		tb, err := BuildLinearGRE(12)
		if err != nil {
			t.Fatal(err)
		}
		tb.NM.EnableMessageLog()
		sc, err := LinearScenarioByName("GRE")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.ConfigureLinear(tb, 12); err != nil {
			t.Fatal(err)
		}
		return tb.NM.MessageLog()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("empty message log")
	}
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Errorf("concurrent traces differ:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			strings.Join(a, "\n"), strings.Join(b, "\n"))
	}
}

// TestParallelSelfTestSweepAfterApply exercises the Network.Flush
// barrier: after Apply, self-tests fan out concurrently across the
// chain's modules and the net quiesces deterministically before the
// results are read (ROADMAP open item on concurrent data-plane tests).
func TestParallelSelfTestSweepAfterApply(t *testing.T) {
	const n = 8
	sc, err := LinearScenarioByName("MPLS")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	// Sweep every MPLS module's down pipes concurrently.
	type probe struct {
		mod  core.ModuleRef
		pipe core.PipeID
	}
	var probes []probe
	for _, dev := range tb.NM.Devices() {
		states, err := tb.NM.ShowActual(dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range states {
			if st.Ref.Name != core.NameMPLS {
				continue
			}
			for _, ps := range st.Pipes {
				if ps.End == core.EndDown {
					probes = append(probes, probe{st.Ref, ps.ID})
				}
			}
		}
	}
	if len(probes) == 0 {
		t.Fatal("no MPLS down pipes found to self-test")
	}
	results := make([]bool, len(probes))
	details := make([]string, len(probes))
	var wg sync.WaitGroup
	for i := range probes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ok, detail, err := tb.NM.SelfTest(probes[i].mod, probes[i].pipe)
			if err != nil {
				details[i] = err.Error()
				return
			}
			results[i], details[i] = ok, detail
		}(i)
	}
	wg.Wait()
	tb.Net.Flush() // quiesce residual probe traffic deterministically
	for i, ok := range results {
		if !ok {
			t.Errorf("self-test %s %s failed: %s", probes[i].mod, probes[i].pipe, details[i])
		}
	}
}

// TestLinearScaleOverUDP runs the linear-n suite over real UDP sockets
// (the paper's pre-configured management network) instead of the
// in-process Hub: n=16 smoke with the Table VI formulas intact
// (ROADMAP open item).
func TestLinearScaleOverUDP(t *testing.T) {
	const n = 16
	for _, name := range []string{"GRE", "MPLS"} {
		t.Run(name, func(t *testing.T) {
			sc, err := LinearScenarioByName(name)
			if err != nil {
				t.Fatal(err)
			}
			udp := newUDPFactory(t)
			tb, err := sc.BuildOver(n, udp)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			if _, err := sc.ConfigureLinear(tb, n); err != nil {
				t.Fatal(err)
			}
			// Unlike the synchronous Hub, UDP delivers module relays
			// asynchronously: wait until the counters quiesce before
			// checking the Table VI formulas.
			c := waitStableCounters(t, tb, 5*time.Second)
			if c.Sent() != sc.WantSent(n) || c.Received() != sc.WantRecv(n) {
				t.Errorf("over UDP: sent %d (want %d), received %d (want %d)",
					c.Sent(), sc.WantSent(n), c.Received(), sc.WantRecv(n))
			}
		})
	}
}

// newUDPFactory wraps a fresh UDP loopback registry as an
// EndpointFactory.
func newUDPFactory(t *testing.T) EndpointFactory {
	t.Helper()
	udp := channel.NewUDPNetwork()
	return func(name string) (channel.Endpoint, error) {
		return udp.Endpoint(name)
	}
}

// waitStableCounters polls the NM counters until they stop changing
// (several consecutive identical reads), for asynchronous transports.
func waitStableCounters(t *testing.T, tb *Testbed, timeout time.Duration) nm.Counters {
	t.Helper()
	deadline := time.Now().Add(timeout)
	last := tb.NM.Counters()
	stable := 0
	for {
		time.Sleep(10 * time.Millisecond)
		cur := tb.NM.Counters()
		if cur == last {
			stable++
			if stable >= 10 {
				return cur
			}
		} else {
			stable = 0
			last = cur
		}
		if time.Now().After(deadline) {
			return cur
		}
	}
}

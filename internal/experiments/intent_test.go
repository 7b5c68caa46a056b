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

// TestDestroyThenReapply proves full teardown: Destroy removes the
// intent's components (probes stop being delivered, self-test reports
// the path gone), and a following Apply restores delivery end to end.
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

			down, err := tb.NM.Destroy(fx.intent)
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
// one-shot API could not express: the same Fig 4 testbed is reconciled
// from the GRE intent to the MPLS intent and back, with stale
// components pruned at each step.
func TestReconfigureBetweenFlavours(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	gre := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
	mpls := VPNIntent(Fig4Goal(), "MPLS")

	step := func(intent nm.Intent, wantDeletes bool, token uint32) {
		t.Helper()
		plan, err := tb.NM.Plan(intent)
		if err != nil {
			t.Fatal(err)
		}
		if wantDeletes && len(plan.Deletes) == 0 {
			t.Fatalf("reconfigure to %q pruned nothing:\n%s", intent.Name, plan.Render())
		}
		if err := tb.NM.Apply(plan); err != nil {
			t.Fatalf("apply %q: %v", intent.Name, err)
		}
		if err := tb.VerifyConnectivity(token); err != nil {
			t.Fatalf("after %q: %v", intent.Name, err)
		}
	}
	step(gre, false, 93000)
	step(mpls, true, 93100)
	step(gre, true, 93200)

	// After the final flip the MPLS intent's state must be gone: its
	// plan is non-trivial again.
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
// one device: both diff entry points emit at most one batch per device
// per phase, which is what lets the chain executor treat script order as
// chain order.
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

// TestPlanMatchesOneIntentStorePlan is the differential check that the
// per-intent Plan is a view over the store's diff engine: on every
// evaluation topology, NM.Plan(intent) renders exactly the commands a
// fresh NM's one-intent Submit + PlanStore renders — from scratch, and
// on the diamond after a wire cut strands a configured device.
func TestPlanMatchesOneIntentStorePlan(t *testing.T) {
	type scenario struct {
		name  string
		build func() (*Testbed, nm.Intent, error)
		// cut, when set, names a wire to cut (and the devices that
		// re-report topology) after the intent was first configured; the
		// comparison is then made on the re-plan.
		cut      string
		reporter []core.DeviceID
	}
	var cases []scenario
	for _, fx := range intentFixtures() {
		fx := fx
		cases = append(cases, scenario{name: "fig/" + fx.name, build: func() (*Testbed, nm.Intent, error) {
			tb, err := fx.build()
			return tb, fx.intent, err
		}})
	}
	for _, sc := range LinearScenarios() {
		sc := sc
		cases = append(cases, scenario{name: "linear16/" + sc.Name, build: func() (*Testbed, nm.Intent, error) {
			tb, err := sc.Build(16)
			return tb, sc.Intent(16), err
		}})
	}
	cases = append(cases, scenario{
		name: "diamond/wire-cut", cut: "A-B1", reporter: []core.DeviceID{"A", "B1"},
		build: func() (*Testbed, nm.Intent, error) {
			tb, pairs, err := BuildDiamondShared(1)
			if err != nil {
				return nil, nm.Intent{}, err
			}
			return tb, pairs[0].Intent("VLAN tunnel"), nil
		},
	})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			per, intent, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			store, _, err := c.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := store.NM.Submit(intent); err != nil {
				t.Fatal(err)
			}
			if c.cut != "" {
				first, err := per.NM.Plan(intent)
				if err != nil {
					t.Fatal(err)
				}
				if err := per.NM.Apply(first); err != nil {
					t.Fatal(err)
				}
				if _, err := store.NM.Reconcile(); err != nil {
					t.Fatal(err)
				}
				for _, tb := range []*Testbed{per, store} {
					if err := tb.Net.SetMediumUp(c.cut, false); err != nil {
						t.Fatal(err)
					}
					for _, id := range c.reporter {
						if err := tb.Devices[id].MA.ReportTopology(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			plan, err := per.NM.Plan(intent)
			if err != nil {
				t.Fatal(err)
			}
			splan, err := store.NM.PlanStore()
			if err != nil {
				t.Fatal(err)
			}
			got := planLines(t, plan.Deletes, plan.Creates)
			want := planLines(t, splan.Deletes, splan.Creates)
			if len(got) == 0 {
				t.Fatal("per-intent plan is empty")
			}
			if c.cut != "" && len(plan.Deletes) == 0 {
				t.Error("re-plan after the cut deletes nothing")
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("per-intent plan differs from the one-intent store plan:\n--- Plan ---\n%s\n--- PlanStore ---\n%s",
					strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if plan.InPlace != splan.InPlace {
				t.Errorf("in place: Plan %d, PlanStore %d", plan.InPlace, splan.InPlace)
			}
		})
	}
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

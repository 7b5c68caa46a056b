package experiments

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"conman/internal/core"
	"conman/internal/nm"
	"conman/internal/topo"
)

// igpPipeOf fetches one adjacency pipe id of a device's IGP module from
// showActual (the NM-visible handle for self-testing it).
func igpPipeOf(t *testing.T, tb *Testbed, dev core.DeviceID) (core.ModuleRef, core.PipeID) {
	t.Helper()
	states, err := tb.NM.ShowActual(dev)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if st.Ref.Name == core.NameIGP && len(st.Pipes) > 0 {
			return st.Ref, st.Pipes[0].ID
		}
	}
	t.Fatalf("%s: no IGP module with adjacency pipes", dev)
	return core.ModuleRef{}, ""
}

// greSelfTest runs the GRE module's self test on an edge device and
// fails the test run if the tunnel endpoint is unreachable.
func greSelfTest(t *testing.T, tb *Testbed, dev core.DeviceID) {
	t.Helper()
	ok, detail, err := tb.NM.SelfTest(core.Ref(core.NameGRE, dev, "gre"), "P1")
	if err != nil {
		t.Fatalf("%s GRE self-test: %v", dev, err)
	}
	if !ok {
		t.Errorf("%s GRE self-test failed: %s", dev, detail)
	}
}

// TestGREIGPDeliversAtScale is the scenario the ROADMAP's oldest open
// item asked for: a GRE chain that forwards end-to-end beyond n=3. With
// an IGP control module on every router the NM's compiled configuration
// includes one pipe per adjacency; the modules flood link state and
// install the transit routes, so the tunnel self-tests and the customer
// probes deliver at n in {16, 64, 128}.
func TestGREIGPDeliversAtScale(t *testing.T) {
	ns := []int{16, 64}
	if !testing.Short() {
		ns = append(ns, 128)
	}
	sc := GREIGPScenario()
	for i, n := range ns {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tb, err := sc.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sc.ConfigureLinear(tb, n); err != nil {
				t.Fatal(err)
			}
			// The tunnel endpoints must reach each other across the
			// transit routers (the paper's §II-D.2 self test).
			greSelfTest(t, tb, rid(1))
			greSelfTest(t, tb, rid(n))
			// An interior IGP adjacency is confirmed bidirectionally.
			igpRef, pipe := igpPipeOf(t, tb, rid(n/2))
			ok, detail, err := tb.NM.SelfTest(igpRef, pipe)
			if err != nil || !ok {
				t.Errorf("IGP self-test on %s: ok=%v detail=%q err=%v", rid(n/2), ok, detail, err)
			}
			// Transit routers learned routes to the far link subnets.
			far, _ := linkSubnet(n - 1)
			if _, _, ok := tb.Devices[rid(2)].Kernel.RouteLookup("", far.Addr()); !ok {
				t.Errorf("R2 has no route toward the far link subnet %s", far)
			}
			// End-to-end byte-level delivery plus isolation.
			if err := tb.VerifyConnectivity(uint32(91000 + 100*i)); err != nil {
				t.Errorf("n=%d: %v", n, err)
			}
			// Reconciliation sees the IGP pipes as in place: the fresh
			// plan is empty, so apply is idempotent with the control
			// modules in the loop.
			again, err := sc.PlanLinear(tb, n)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Empty() {
				t.Errorf("re-plan not empty:\n%s", again.Render())
			}
		})
	}
}

// TestGREWithoutIGPStillCapped pins the baseline the IGP opens up: the
// plain GRE chain (no control modules) configures at n=5 but the data
// plane cannot deliver — transit routers have no routes between link
// subnets — so the scenario really is the IGP's doing, not a silent
// kernel change.
func TestGREWithoutIGPStillCapped(t *testing.T) {
	sc, err := LinearScenarioByName("GRE")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sc.Build(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ConfigureLinear(tb, 5); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(92000); err == nil {
		t.Error("plain GRE at n=5 delivered end-to-end; the no-IGP baseline changed")
	}
}

// TestGREIGPWithdrawRemovesRoutes pins route ownership: the routes the
// IGP installed belong to the intent's configuration, refcounted in the
// store like any component. Withdrawing the goal deletes the adjacency
// pipes, and the modules withdraw every owned route with them.
func TestGREIGPWithdrawRemovesRoutes(t *testing.T) {
	const n = 8
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	intent := sc.Intent(n)
	if err := tb.NM.Submit(intent); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(93000); err != nil {
		t.Fatal(err)
	}
	transit := tb.Devices[rid(3)].Kernel
	hadIGPRoutes := 0
	for _, rt := range transit.Routes("main") {
		if rt.Via.IsValid() {
			hadIGPRoutes++
		}
	}
	if hadIGPRoutes == 0 {
		t.Fatal("no IGP routes on transit router after reconcile")
	}

	if err := tb.NM.Withdraw(intent.Name); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	for _, rt := range transit.Routes("main") {
		if rt.Via.IsValid() {
			t.Errorf("route %v via %v survived withdrawal", rt.Dst, rt.Via)
		}
	}
	for k := 1; k <= n; k++ {
		if deviceConfigured(t, tb, rid(k)) {
			t.Errorf("%s still configured after withdrawal", rid(k))
		}
	}
}

// TestIGPRegainsLastAdjacency deletes the only adjacency pipe of an
// edge router, which clears its database, and re-applies: the recreated
// pipe's summary exchange must bring the whole database back from the
// neighbour whose own pipe never went away, so the router owns routes
// and the tunnel delivers again.
func TestIGPRegainsLastAdjacency(t *testing.T) {
	const n = 6
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	igpRef, pipe := igpPipeOf(t, tb, rid(1))
	if err := tb.NM.Delete(core.DeleteRequest{Kind: core.ComponentPipe, Module: igpRef, ID: string(pipe)}); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	states, err := tb.NM.ShowActual(rid(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range states {
		if st.Ref != igpRef {
			continue
		}
		if routes, _ := strconv.Atoi(st.LowLevel["routes"]); st.LowLevel["lsdb-size"] != strconv.Itoa(n) || routes == 0 {
			t.Errorf("%s after regaining its adjacency: %v, want lsdb-size %d and routes", rid(1), st.LowLevel, n)
		}
	}
	if err := tb.VerifyConnectivity(93500); err != nil {
		t.Error(err)
	}
	again, err := sc.PlanLinear(tb, n)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Errorf("re-plan not empty:\n%s", again.Render())
	}
}

// TestGREIGPRerouteConverges is the kill-wire scenario on the routed
// diamond: the applied GRE tunnel crosses one transit arm; cutting that
// arm's wire re-plans the intent over the other arm, the IGP
// re-converges, and the tunnel — whose cached endpoint addresses sit on
// the now-dead links — delivers again because the IGP advertises those
// link subnets over the surviving arm. The stranded transit router is
// pruned, its routes withdrawn with its pipes.
func TestGREIGPRerouteConverges(t *testing.T) {
	tb, err := BuildDiamondGRE()
	if err != nil {
		t.Fatal(err)
	}
	intent := nm.Intent{Name: "gre-diamond", Goal: DiamondGREGoal(), Prefer: "GRE-IP tunnel"}
	plan, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(94000); err != nil {
		t.Fatalf("initial apply: %v", err)
	}
	greSelfTest(t, tb, "EL")

	on := pathDevices(plan.Views[0].Path)
	used, spare := core.DeviceID("B1"), core.DeviceID("B2")
	if on["B2"] {
		used, spare = "B2", "B1"
	}
	if !on[used] || on[spare] {
		t.Fatalf("initial path should cross exactly one arm, got %s", plan.Views[0].Path.Modules())
	}

	// Cut the wire on the used arm; the affected devices re-report.
	if err := tb.Net.SetMediumUp("EL-"+string(used), false); err != nil {
		t.Fatal(err)
	}
	for _, id := range []core.DeviceID{"EL", used} {
		if err := tb.Devices[id].MA.ReportTopology(); err != nil {
			t.Fatal(err)
		}
	}

	replan, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if on := pathDevices(replan.Views[0].Path); on[used] || !on[spare] {
		t.Fatalf("expected reroute via %s, got %s", spare, replan.Views[0].Path.Modules())
	}
	prunes := false
	for _, ds := range replan.Deletes {
		if ds.Device == used {
			prunes = true
		}
	}
	if !prunes {
		t.Fatalf("replan does not prune stranded transit %s:\n%s", used, replan.Render())
	}
	if err := tb.NM.Apply(replan); err != nil {
		t.Fatal(err)
	}

	// The stranded router's IGP lost its pipes: its owned routes are gone.
	for _, rt := range tb.Devices[used].Kernel.Routes("main") {
		if rt.Via.IsValid() {
			t.Errorf("stranded %s keeps IGP route %v via %v", used, rt.Dst, rt.Via)
		}
	}
	if deviceConfigured(t, tb, used) {
		t.Errorf("stranded %s still carries configuration", used)
	}

	// Re-converged: the tunnel endpoints (addresses on the dead links)
	// are reachable over the surviving arm, and the customer probes
	// deliver end-to-end again.
	greSelfTest(t, tb, "EL")
	greSelfTest(t, tb, "ER")
	if err := tb.VerifyConnectivity(94100); err != nil {
		t.Fatalf("after reroute: %v", err)
	}
	again, err := tb.NM.Plan(intent)
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() {
		t.Errorf("plan after reroute not empty:\n%s", again.Render())
	}
}

// TestGREIGPOverUDP runs the IGP-enabled chain with its management
// plane on real UDP sockets: flooding is asynchronous there, so the
// test waits for the management traffic to settle before verifying the
// data plane.
func TestGREIGPOverUDP(t *testing.T) {
	const n = 8
	sc := GREIGPScenario()
	tb, err := sc.BuildOver(n, newUDPFactory(t))
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	waitStableCounters(t, tb, 10*time.Second)
	deadline := time.Now().Add(10 * time.Second)
	for {
		err = tb.VerifyConnectivity(uint32(95000 + time.Now().UnixNano()%1000))
		if err == nil || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("over UDP: %v", err)
	}
}

// TestCompileEmitsIGPAdjacencies pins the compiler rule at the script
// level: with full provider coverage the per-device batches contain one
// pipe per adjacency (edges 1, transit 2), every one naming the IGP as
// both upper module and dependency provider; without control modules
// the compiled scripts are byte-identical to before (no IGP pipes).
func TestCompileEmitsIGPAdjacencies(t *testing.T) {
	const n = 5
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sc.PlanLinear(tb, n)
	if err != nil {
		t.Fatal(err)
	}
	adjPipes := map[core.DeviceID]int{}
	for _, ds := range plan.Creates {
		for _, item := range ds.Items {
			if item.Pipe == nil || item.Pipe.Req.Upper.Name != core.NameIGP {
				continue
			}
			req := item.Pipe.Req
			if req.Lower.Name != core.NameIPv4 || req.UpperPeer.Name != core.NameIGP || req.LowerPeer.Name != core.NameIPv4 {
				t.Errorf("adjacency pipe with unexpected endpoints: %+v", req)
			}
			if len(req.Satisfy) != 1 || req.Satisfy[0].Provider != req.Upper.String() || req.Satisfy[0].Token == "" {
				t.Errorf("adjacency pipe does not name its provider: %+v", req.Satisfy)
			}
			adjPipes[ds.Device]++
		}
	}
	for k := 1; k <= n; k++ {
		want := 2
		if k == 1 || k == n {
			want = 1
		}
		if adjPipes[rid(k)] != want {
			t.Errorf("%s: %d adjacency pipes, want %d", rid(k), adjPipes[rid(k)], want)
		}
	}

	plain, err := LinearScenarioByName("GRE")
	if err != nil {
		t.Fatal(err)
	}
	ptb, err := plain.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	pplan, err := plain.PlanLinear(ptb, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range pplan.Creates {
		for _, item := range ds.Items {
			if item.Pipe != nil && item.Pipe.Req.Upper.Name == core.NameIGP {
				t.Fatalf("plain GRE compile emitted an IGP pipe on %s", ds.Device)
			}
		}
	}
}

// TestIGPRouteNextHopsOnLink spot-checks the routes the modules
// install: every IGP route's next hop must sit inside a subnet the
// router is directly connected to (the LSA subnet-matching rule), so
// the kernel can always ARP it.
func TestIGPRouteNextHopsOnLink(t *testing.T) {
	const n = 8
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		kern := tb.Devices[rid(k)].Kernel
		for _, rt := range kern.Routes("main") {
			if !rt.Via.IsValid() || rt.Dst.IsSingleIP() {
				continue // connected routes, and the IP module's /32
				// transit routes (whose next hops the permissive ARP
				// resolves even off-link)
			}
			if _, _, ok := kern.IfaceForSubnet(rt.Via); !ok {
				t.Errorf("%s: route %v via %v is not on a connected subnet", rid(k), rt.Dst, rt.Via)
			}
		}
	}
}

// TestIGPColdStartRelayCounts pins the flooding cost of an IGP cold
// start on the generated fabrics: applying the first routed intent
// brings up adjacencies on every router, and each LSA batch, summary and
// push is relayed through the NM, so Counters().RelayOut is the flooding
// message count. Under the sequential executor it is exact — two builds
// must agree — and pinned: a router originates once per command batch
// and a new adjacency exchanges summaries instead of databases, which
// took ring-16 from the 92 relays and fat-tree-4 from the 32 the retired
// IGPFlood bench rows held.
func TestIGPColdStartRelayCounts(t *testing.T) {
	coldStart := func(w *topo.Wiring) int {
		t.Helper()
		tb, pairs, err := BuildTopoGREIGP(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		tb.NM.Sequential = true
		plan, err := tb.NM.Plan(pairs[0].Intent("GRE-IP tunnel"))
		if err != nil {
			t.Fatal(err)
		}
		tb.NM.ResetCounters()
		if err := tb.NM.Apply(plan); err != nil {
			t.Fatal(err)
		}
		if err := tb.VerifyPair(pairs[0], 97000); err != nil {
			t.Fatalf("%s %s: data plane after cold start: %v", w.Family, w.Param, err)
		}
		return tb.NM.Counters().RelayOut
	}
	for _, tc := range []struct {
		build func() (*topo.Wiring, error)
		want  int
	}{
		{func() (*topo.Wiring, error) { return topo.Ring(16) }, 77},
		{func() (*topo.Wiring, error) { return topo.FatTree(4) }, 31},
	} {
		w, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		first, second := coldStart(w), coldStart(w)
		if first != second {
			t.Errorf("%s %s: %d LSA relays on one build, %d on the next — not deterministic", w.Family, w.Param, first, second)
		}
		if first != tc.want {
			t.Errorf("%s %s: %d relays, want %d", w.Family, w.Param, first, tc.want)
		}
	}
}

// TestIGPColdStartSPFRuns pins the cold start's cost on the sequential
// n=32 chain: how often the modules compute routes (Σ spf-runs, pulled
// with listFieldsAndValues) and how many conveys the NM relays (IGP
// floods, summaries and pushes, plus the GRE key exchange). Both are
// exact — two builds agree. An IGP module runs SPF only when a
// stored LSA can change its confirmed graph or prefixes, which holds it
// at 558 runs; the relays fell from 1 058 to 652 when origination moved
// to once per command batch and new adjacencies began exchanging
// summaries instead of databases.
func TestIGPColdStartSPFRuns(t *testing.T) {
	const n = 32
	coldStart := func() (spfRuns, relays int) {
		t.Helper()
		sc := GREIGPScenario()
		tb, err := sc.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		defer tb.Close()
		tb.NM.Sequential = true
		if _, err := sc.ConfigureLinear(tb, n); err != nil {
			t.Fatal(err)
		}
		relays = tb.NM.Counters().RelayOut
		for k := 1; k <= n; k++ {
			fields, err := tb.NM.ListFields(core.Ref(core.NameIGP, rid(k), "igp"), "self")
			if err != nil {
				t.Fatal(err)
			}
			runs, err := strconv.Atoi(fields["spf-runs"])
			if err != nil || fields["routes"] == "0" {
				t.Fatalf("%s: IGP fields %v: %v", rid(k), fields, err)
			}
			spfRuns += runs
		}
		return spfRuns, relays
	}
	first, relays := coldStart()
	if second, _ := coldStart(); first != second {
		t.Errorf("%d SPF runs on one build, %d on the next — not deterministic", first, second)
	}
	if first != 558 || relays != 652 {
		t.Errorf("n=%d: %d SPF runs and %d relays, want 558 and 652", n, first, relays)
	}
}

package experiments

import (
	"fmt"
	"maps"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"conman/internal/core"
	"conman/internal/netsim"
	"conman/internal/nm"
	"conman/internal/packet"
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

// TestGREIGPDeliversAtScale is a GRE chain that forwards end-to-end
// beyond n=3, where the plain GRE chain's transit routers have no routes. With
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
	if err := tb.Devices[igpRef.Device].MA.Delete(core.DeleteRequest{Kind: core.ComponentPipe, Module: igpRef, ID: string(pipe)}); err != nil {
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
	tb.SettleCounters(10 * time.Second)
	if err := tb.VerifyUntil(95000, 10*time.Second); err != nil {
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

// txDuring runs fn and returns, per port that sent any, the frames the
// port sent meanwhile (netsim's TxCount).
func txDuring(net *netsim.Network, fn func()) map[netsim.PortID]uint64 {
	var ports []netsim.PortID
	for _, name := range net.Media() {
		if m, ok := net.Medium(name); ok {
			ports = append(ports, m.Ports()...)
		}
	}
	before := make(map[netsim.PortID]uint64, len(ports))
	for _, p := range ports {
		before[p] = net.TxCount(p)
	}
	fn()
	sent := map[netsim.PortID]uint64{}
	for _, p := range ports {
		if d := net.TxCount(p) - before[p]; d > 0 {
			sent[p] = d
		}
	}
	return sent
}

// frameTotal sums a txDuring result.
func frameTotal(sent map[netsim.PortID]uint64) int {
	total := 0
	for _, n := range sent {
		total += int(n)
	}
	return total
}

// TestIGPColdStartFrameCounts pins the flooding cost of an IGP cold
// start on the generated fabrics: applying the first routed intent
// brings up adjacencies on every router, and every LSA batch, summary
// and push is one link-local frame on the adjacency's link, so the
// frames the network carries during Apply are the flooding cost (Apply
// sends nothing else onto the wire). Under the sequential executor they
// are exact — two builds must agree — and pinned. The NM relays only the
// address and key exchanges: ring-16's 74 relays and fat-tree-4's 31,
// when LSAs still went through the NM, fell to 20 and 12.
func TestIGPColdStartFrameCounts(t *testing.T) {
	coldStart := func(w *topo.Wiring) (frames, relays int) {
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
		sent := txDuring(tb.Net, func() { err = tb.NM.Apply(plan) })
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.VerifyPair(pairs[0], 97000); err != nil {
			t.Fatalf("%s %s: data plane after cold start: %v", w.Family, w.Param, err)
		}
		return frameTotal(sent), tb.NM.Counters().RelayOut
	}
	for _, tc := range []struct {
		build          func() (*topo.Wiring, error)
		frames, relays int
	}{
		{func() (*topo.Wiring, error) { return topo.Ring(16) }, 54, 20},
		{func() (*topo.Wiring, error) { return topo.FatTree(4) }, 19, 12},
	} {
		w, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		frames, relays := coldStart(w)
		if again, _ := coldStart(w); again != frames {
			t.Errorf("%s %s: %d frames on one build, %d on the next — not deterministic", w.Family, w.Param, frames, again)
		}
		if frames != tc.frames || relays != tc.relays {
			t.Errorf("%s %s: %d frames and %d relays, want %d and %d", w.Family, w.Param, frames, relays, tc.frames, tc.relays)
		}
	}
}

// chainColdStart configures the sequential GRE+IGP chain of n routers
// and returns the frames each port sent during Apply, and Σ spf-runs and
// Σ lsas-accepted over the routers (pulled with listFieldsAndValues).
func chainColdStart(t *testing.T, n int) (sent map[netsim.PortID]uint64, spfRuns, accepted int) {
	t.Helper()
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	tb.NM.Sequential = true
	plan, err := sc.PlanLinear(tb, n)
	if err != nil {
		t.Fatal(err)
	}
	sent = txDuring(tb.Net, func() { err = tb.NM.Apply(plan) })
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(97500); err != nil {
		t.Fatalf("n=%d: data plane after cold start: %v", n, err)
	}
	for k := 1; k <= n; k++ {
		fields, err := tb.NM.ListFields(core.Ref(core.NameIGP, rid(k), "igp"), "self")
		if err != nil {
			t.Fatal(err)
		}
		runs, err1 := strconv.Atoi(fields["spf-runs"])
		acc, err2 := strconv.Atoi(fields["lsas-accepted"])
		if err1 != nil || err2 != nil || fields["routes"] == "0" {
			t.Fatalf("%s: IGP fields %v", rid(k), fields)
		}
		spfRuns, accepted = spfRuns+runs, accepted+acc
	}
	return sent, spfRuns, accepted
}

// TestIGPColdStartSPFRuns pins the cold start's cost on the sequential
// n=32 chain: how often the modules compute routes (Σ spf-runs), how
// many LSAs they accept (Σ lsas-accepted: each router's once at every
// other, n(n−1)) and how many link-state frames carry them. All three
// are exact — two builds agree. An IGP module runs SPF only when a stored
// LSA can change its confirmed graph or prefixes; the executor's
// bit-reversed router order took SPF runs from 558 to 251. Moving the
// floods from NM relays (412 with the address and key exchanges) to
// link-local frames left the SPF runs at 251.
func TestIGPColdStartSPFRuns(t *testing.T) {
	const n = 32
	sent, spf, accepted := chainColdStart(t, n)
	again, spf2, _ := chainColdStart(t, n)
	if !maps.Equal(sent, again) || spf != spf2 {
		t.Errorf("%d SPF runs and %d frames on one build, %d and %d on the next — not deterministic", spf, frameTotal(sent), spf2, frameTotal(again))
	}
	if frames := frameTotal(sent); spf != 251 || accepted != n*(n-1) || frames != 346 {
		t.Errorf("n=%d: %d SPF runs, %d LSAs accepted, %d frames; want 251, %d and 346", n, spf, accepted, frames, n*(n-1))
	}
}

// TestIGPColdStartFramesPerLink pins the sequential chain's cold-start
// flooding link by link at n = 32 and n = 128: testdata/igp_frames.golden
// lists, per link Rk–Rk+1, the frames Rk sent rightward and Rk+1 sent
// leftward during Apply, and nothing else sent any. Rightward, link k
// carries 2·popcount(k) frames, one fewer on the last link. The counts
// repeat exactly across builds, and Σ lsas-accepted at n = 128 is
// 16 256 = n(n−1), as when the LSAs went through the NM.
func TestIGPColdStartFramesPerLink(t *testing.T) {
	var b strings.Builder
	for _, n := range []int{32, 128} {
		sent, _, accepted := chainColdStart(t, n)
		if again, _, _ := chainColdStart(t, n); !maps.Equal(sent, again) {
			t.Errorf("n=%d: per-port frame counts differ between two builds", n)
		}
		if accepted != n*(n-1) {
			t.Errorf("n=%d: Σ lsas-accepted = %d, want n(n−1) = %d", n, accepted, n*(n-1))
		}
		fmt.Fprintf(&b, "n=%d: %d frames\n", n, frameTotal(sent))
		onLinks := 0
		for k := 1; k < n; k++ {
			right := sent[netsim.PortID{Device: rid(k), Name: chainRight}]
			left := sent[netsim.PortID{Device: rid(k + 1), Name: chainLeft}]
			onLinks += int(right + left)
			fmt.Fprintf(&b, "R%d-R%d %d %d\n", k, k+1, right, left)
		}
		if onLinks != frameTotal(sent) {
			t.Errorf("n=%d: %d frames left the chain's router links, %d in all", n, onLinks, frameTotal(sent))
		}
	}
	want, err := os.ReadFile("testdata/igp_frames.golden")
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("per-link frame counts drifted.\n--- got ---\n%s\n--- want ---\n%s", b.String(), want)
	}
}

// igpLSDB pulls a router's IGP database with listFieldsAndValues: one
// "lsa:<origin>" entry per held LSA, its seq, prefix and neighbour counts.
func igpLSDB(t *testing.T, tb *Testbed, dev core.DeviceID) map[string]string {
	t.Helper()
	fields, err := tb.NM.ListFields(core.Ref(core.NameIGP, dev, "igp"), "lsdb")
	if err != nil {
		t.Fatal(err)
	}
	return fields
}

// TestIGPIgnoresLinkStateFromCustomerSite has customer site D, behind
// R1's customer-facing port, send R1 link-state packets that speak for a
// router: once as an IGP on D itself, once as R1's neighbour R2. Each
// carries a newer LSA for R3 with an extra prefix. Every router's
// database and R1's routes must stay as they were, and the data plane
// must still deliver.
func TestIGPIgnoresLinkStateFromCustomerSite(t *testing.T) {
	const n = 4
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	before := map[core.DeviceID]map[string]string{}
	for k := 1; k <= n; k++ {
		before[rid(k)] = igpLSDB(t, tb, rid(k))
	}
	routes := fmt.Sprint(tb.Devices[rid(1)].Kernel.Routes("main"))
	for _, from := range []core.DeviceID{"D", rid(2)} {
		ls := packet.LinkState{From: core.Ref(core.NameIGP, from, "igp").String(), LSAs: []packet.LSA{{
			Origin:    core.Ref(core.NameIGP, rid(3), "igp").String(),
			Seq:       1 << 20,
			Prefixes:  []netip.Prefix{netip.MustParsePrefix("10.0.1.7/24")},
			Neighbors: []string{core.Ref(core.NameIGP, rid(1), "igp").String()},
		}}}
		frame, err := packet.Serialize(ls.Append(nil), packet.Ethernet{Dst: packet.BroadcastMAC, Type: packet.EtherTypeLinkState})
		if err != nil {
			t.Fatal(err)
		}
		if err := tb.Net.Send(netsim.PortID{Device: "D", Name: "eth0"}, frame); err != nil {
			t.Fatal(err)
		}
	}
	for k := 1; k <= n; k++ {
		if got := igpLSDB(t, tb, rid(k)); !maps.Equal(got, before[rid(k)]) {
			t.Errorf("%s's database changed: %v, was %v", rid(k), got, before[rid(k)])
		}
	}
	if got := fmt.Sprint(tb.Devices[rid(1)].Kernel.Routes("main")); got != routes {
		t.Errorf("R1's routes changed:\n%s\nwas\n%s", got, routes)
	}
	if err := tb.VerifyConnectivity(97800); err != nil {
		t.Error(err)
	}
}

// TestIGPResyncsWhenCutWireHeals cuts the R2–R3 wire of a configured
// n = 5 chain and makes R2 re-originate behind it (an out-of-band delete
// of its adjacency to R1), so the update toward R3 is lost on the cut.
// No daemon runs, so no adjacency is re-formed: bringing the wire back
// must, on its own, level R3, R4 and R5 with R2's newest LSA.
func TestIGPResyncsWhenCutWireHeals(t *testing.T) {
	const n = 5
	sc := GREIGPScenario()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	r2 := core.Ref(core.NameIGP, rid(2), "igp")
	seqOf := func(dev core.DeviceID) string { return strings.Fields(igpLSDB(t, tb, dev)["lsa:"+r2.String()])[0] }
	stale := seqOf(rid(5))

	if err := tb.Net.SetMediumUp("R2-R3", false); err != nil {
		t.Fatal(err)
	}
	states, err := tb.NM.ShowActual(rid(2))
	if err != nil {
		t.Fatal(err)
	}
	var toR1 core.PipeID
	for _, st := range states {
		for _, p := range st.Pipes {
			if st.Ref == r2 && p.Peer.Device == rid(1) {
				toR1 = p.ID
			}
		}
	}
	if toR1 == "" {
		t.Fatal("R2 has no adjacency pipe to R1")
	}
	if err := tb.Devices[rid(2)].MA.Delete(core.DeleteRequest{Kind: core.ComponentPipe, Module: r2, ID: string(toR1)}); err != nil {
		t.Fatal(err)
	}
	newest := seqOf(rid(2))
	if newest == stale {
		t.Fatalf("R2 did not re-originate: seq %s", newest)
	}
	for k := 3; k <= n; k++ {
		if got := seqOf(rid(k)); got != stale {
			t.Fatalf("%s holds R2's LSA at %s across the cut, want the stale %s", rid(k), got, stale)
		}
	}

	if err := tb.Net.SetMediumUp("R2-R3", true); err != nil {
		t.Fatal(err)
	}
	for k := 3; k <= n; k++ {
		if got := seqOf(rid(k)); got != newest {
			t.Errorf("%s holds R2's LSA at %s after the heal, want %s", rid(k), got, newest)
		}
	}
}

package experiments

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"conman/internal/channel/channeltest"
	"conman/internal/core"
	"conman/internal/msg"
	"conman/internal/netsim"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
)

// configureWithMode builds a fresh linear-n testbed and configures it in
// the given execution mode, returning the testbed and its counters.
func configureWithMode(t *testing.T, sc LinearScenario, n int, sequential bool) (*Testbed, nm.Counters) {
	t.Helper()
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatalf("%s n=%d build: %v", sc.Name, n, err)
	}
	tb.NM.Sequential = sequential
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatalf("%s n=%d (sequential=%v): %v", sc.Name, n, sequential, err)
	}
	return tb, tb.NM.Counters()
}

// TestTableVIInvariantsAtScale asserts the paper's message-count
// formulas hold for n in {4, 8, 16, 32} in BOTH execution modes, and
// that the concurrent executor's counters are byte-identical to the
// sequential ones (the concurrency refactor must not change the
// protocol, only the wall clock).
func TestTableVIInvariantsAtScale(t *testing.T) {
	ns := []int{4, 8, 16, 32}
	for _, sc := range LinearScenarios() {
		for _, n := range ns {
			t.Run(fmt.Sprintf("%s/n=%d", sc.Name, n), func(t *testing.T) {
				_, seq := configureWithMode(t, sc, n, true)
				_, conc := configureWithMode(t, sc, n, false)
				if seq.Sent() != sc.WantSent(n) || seq.Received() != sc.WantRecv(n) {
					t.Errorf("sequential: sent %d (want %d), received %d (want %d)",
						seq.Sent(), sc.WantSent(n), seq.Received(), sc.WantRecv(n))
				}
				if conc != seq {
					t.Errorf("concurrent counters %+v differ from sequential %+v", conc, seq)
				}
			})
		}
	}
}

// TestConcurrentConfigureDelivers checks end-to-end byte-level probe
// delivery D -> E after a CONCURRENT configuration run. MPLS forwards by
// label switching and VLAN by L2 flooding, so both work at any chain
// length; GRE transit needs IP reachability between the tunnel
// endpoints, which without an IGP only holds at the paper's n=3.
func TestConcurrentConfigureDelivers(t *testing.T) {
	cases := []struct {
		scenario string
		n        int
	}{
		{"GRE", 3},
		{"MPLS", 3},
		{"MPLS", 16},
		{"VLAN", 3},
		{"VLAN", 16},
	}
	for i, c := range cases {
		t.Run(fmt.Sprintf("%s/n=%d", c.scenario, c.n), func(t *testing.T) {
			sc, err := LinearScenarioByName(c.scenario)
			if err != nil {
				t.Fatal(err)
			}
			tb, _ := configureWithMode(t, sc, c.n, false)
			if err := tb.VerifyConnectivity(uint32(70000 + 100*i)); err != nil {
				t.Errorf("probe after concurrent configure: %v", err)
			}
		})
	}
}

// TestDiscoverAllConcurrentMatchesSequential builds the same chain twice
// and checks the NM ends up with identical device and module knowledge
// either way.
func TestDiscoverAllConcurrentMatchesSequential(t *testing.T) {
	build := func(sequential bool) *Testbed {
		tb, err := BuildLinearGRE(16)
		if err != nil {
			t.Fatal(err)
		}
		tb.NM.Sequential = sequential
		// startAll already discovered; re-run in the mode under test.
		if err := tb.NM.DiscoverAll(); err != nil {
			t.Fatal(err)
		}
		return tb
	}
	seqTB, concTB := build(true), build(false)
	seqDevs, concDevs := seqTB.NM.Devices(), concTB.NM.Devices()
	if len(seqDevs) != len(concDevs) {
		t.Fatalf("device counts differ: %d vs %d", len(seqDevs), len(concDevs))
	}
	for i := range seqDevs {
		if seqDevs[i] != concDevs[i] {
			t.Fatalf("device order differs at %d: %s vs %s", i, seqDevs[i], concDevs[i])
		}
		si, _ := seqTB.NM.Device(seqDevs[i])
		ci, _ := concTB.NM.Device(concDevs[i])
		if len(si.Modules) != len(ci.Modules) {
			t.Errorf("%s: module counts differ: %d vs %d", seqDevs[i], len(si.Modules), len(ci.Modules))
			continue
		}
		for j := range si.Modules {
			if si.Modules[j].Ref != ci.Modules[j].Ref {
				t.Errorf("%s module %d: %s vs %s", seqDevs[i], j, si.Modules[j].Ref, ci.Modules[j].Ref)
			}
		}
	}
}

// TestChainBoundaryWiring pins the chain-orientation rule down: R1's
// chainLeft port and Rn's chainRight port are the external edge ports,
// every other router port carries an ISP link, and interior routers are
// wired left-to-right neighbour by neighbour.
func TestChainBoundaryWiring(t *testing.T) {
	const n = 4
	tb, err := BuildLinearGRE(n)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		dev := tb.Devices[rid(k)]
		if dev == nil {
			t.Fatalf("no device %s", rid(k))
		}
		wantExternal := map[string]bool{}
		if k == 1 {
			wantExternal[chainLeft] = true
		}
		if k == n {
			wantExternal[chainRight] = true
		}
		for _, port := range []string{chainLeft, chainRight} {
			if got := dev.IsExternal(port); got != wantExternal[port] {
				t.Errorf("%s %s: external=%v, want %v", rid(k), port, got, wantExternal[port])
			}
		}
		// Interior-facing ports carry the ISP link addresses.
		if k > 1 {
			if _, ok := dev.Kernel.AddrOf(chainLeft); !ok {
				t.Errorf("%s %s: missing left ISP link address", rid(k), chainLeft)
			}
		}
		if k < n {
			if _, ok := dev.Kernel.AddrOf(chainRight); !ok {
				t.Errorf("%s %s: missing right ISP link address", rid(k), chainRight)
			}
		}
	}
	// Neighbour wiring: R_k's chainRight faces R_{k+1}'s chainLeft.
	for k := 1; k < n; k++ {
		peers, err := tb.Net.Neighbor(netsim.PortID{Device: rid(k), Name: chainRight})
		if err != nil || len(peers) != 1 {
			t.Fatalf("R%d right neighbour: %v %v", k, peers, err)
		}
		want := netsim.PortID{Device: rid(k + 1), Name: chainLeft}
		if peers[0] != want {
			t.Errorf("R%d right neighbour = %v, want %v", k, peers[0], want)
		}
	}
}

// TestLargeChainConcurrent is the large-n smoke: build and concurrently
// configure n=64 (and n=128 unless -short), checking the Table VI
// formulas keep holding linearly far beyond the paper's lab scale.
func TestLargeChainConcurrent(t *testing.T) {
	ns := []int{64}
	if !testing.Short() {
		ns = append(ns, 128)
	}
	sc, err := LinearScenarioByName("GRE")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range ns {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			_, c := configureWithMode(t, sc, n, false)
			if c.Sent() != sc.WantSent(n) || c.Received() != sc.WantRecv(n) {
				t.Errorf("sent %d (want %d), received %d (want %d)",
					c.Sent(), sc.WantSent(n), c.Received(), sc.WantRecv(n))
			}
		})
	}
}

// TestConcurrentFasterOnLatentChannel pins the point of the refactor: on
// a management channel with non-zero latency, concurrent execution beats
// sequential by a wide margin. The threshold is deliberately loose (2x
// is the acceptance bar; the typical ratio is ~10x) to stay robust on
// loaded CI machines.
func TestConcurrentFasterOnLatentChannel(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const (
		n       = 32
		latency = 200 * time.Microsecond
	)
	sc, err := LinearScenarioByName("GRE")
	if err != nil {
		t.Fatal(err)
	}
	run := func(sequential bool) time.Duration {
		tb, err := sc.Build(n)
		if err != nil {
			t.Fatal(err)
		}
		tb.NM.Sequential = sequential
		plan, err := sc.PlanLinear(tb, n)
		if err != nil {
			t.Fatal(err)
		}
		tb.Hub.SetLatency(latency)
		start := time.Now()
		if err := tb.NM.Apply(plan); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	seq, conc := run(true), run(false)
	if conc*2 > seq {
		t.Errorf("concurrent execute %v not at least 2x faster than sequential %v", conc, seq)
	}
	t.Logf("n=%d latency=%v: sequential %v, concurrent %v (%.1fx)", n, latency, seq, conc, float64(seq)/float64(conc))
}

// TestHubChainExactCounters pins the hub-coldstart job's traffic: the
// GRE+IGP chain on the in-process hub, configured sequentially, over
// n ∈ {3, …, 8, 16, 32, 64, 128}. After Plan, a counter reset, Apply and
// a delivered probe, the NM has sent n messages more than it received:
// one command batch per router. The total is pinned per n, and is 5n + 4:
// the IGP floods in its own link-local frames, so the NM carries only the
// plain GRE chain's Table VI traffic — 3n + 2 sent (n command batches,
// the 2n relayed ip-exchange messages of the n address pairs, the 2
// relayed gre-params) and 2n + 2 received. At n = 128 that is 644
// messages; relaying every LSA through the NM cost 4 512 (n = 32: 164,
// was 856).
//
// The kernels execute 21 operations, or 22 when n is odd. The ingress rule
// echoes "1 > …/ip_forward" only if forwarding is off; the transit rule
// echoes it whenever it installs. Router 1's batch holds its ingress rule
// before its transit rule, so it always logs the echo twice (as Fig 7's
// router A does). Router n's batch holds them the other way round: its
// transit route installs first and its ingress rule finds forwarding on,
// unless router n is configured before router n−1. Then the transit rule
// waits for router n−1's address, which router n−1 only offers once it
// is configured, the ingress rule echoes meanwhile, and router n logs the
// echo twice too. In the bit-reversed order that happens when n is odd.
//
// Each Plan reads every occupied router once and Apply reads none, so
// the Plan and a re-plan after Apply send n + n showActual requests (the
// bench's 256 show_actual envelopes at n = 128 are the first Plan's 128
// requests and their 128 replies). Apply wrote its creates through every
// router's cached observation, which drops the digest, so the first
// re-plan reads n full bodies; a second re-plan sends its n requests with
// the digests that re-plan took, and all n are answered unchanged: no
// full body crosses the channel.
// The numbers are the same at every GOMAXPROCS, so a change to the
// executor, the compiler, the IGP, the observation cache or the device MA
// that moves one re-pins it here and says why.
func TestHubChainExactCounters(t *testing.T) {
	wantMsgs := map[int]int{ // sent + received, 5n + 4
		3: 19, 4: 24, 5: 29, 6: 34, 7: 39, 8: 44,
		16: 84, 32: 164, 64: 324, 128: 644,
	}
	for _, n := range []int{3, 4, 5, 6, 7, 8, 16, 32, 64, 128} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			wantExecOps := 21 + n%2 // Σ kernel ExecLog over every device
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
			tb.NM.ResetCounters()
			if err := tb.NM.Apply(plan); err != nil {
				t.Fatal(err)
			}
			if err := tb.VerifyConnectivity(10002); err != nil {
				t.Fatalf("data plane: %v", err)
			}
			c := tb.NM.Counters()
			if c.Sent() != c.Received()+n || c.Sent() != 3*n+2 {
				t.Errorf("sent %d, received %d; want sent = received + %d = 3n + 2", c.Sent(), c.Received(), n)
			}
			if got := c.Sent() + c.Received(); got != wantMsgs[n] {
				t.Errorf("messages sent+received = %d, want %d", got, wantMsgs[n])
			}
			if c.CmdSent != n {
				t.Errorf("command batches = %d, want %d", c.CmdSent, n)
			}
			ops := 0
			for _, dev := range tb.Devices {
				ops += len(dev.Kernel.ExecLog())
			}
			if ops != wantExecOps {
				t.Errorf("kernel operations = %d, want %d", ops, wantExecOps)
			}
			again, err := sc.PlanLinear(tb, n)
			if err != nil {
				t.Fatal(err)
			}
			if !again.Empty() {
				t.Fatalf("re-plan on the configured chain is not empty:\n%s", again.Render())
			}
			if got := plan.Stats.Observed + again.Stats.Observed; got != 2*n {
				t.Errorf("showActual requests = %d (%d + %d), want %d",
					got, plan.Stats.Observed, again.Stats.Observed, 2*n)
			}
			if again.Stats.Unchanged != 0 {
				t.Errorf("first re-plan: %d unchanged replies, want 0 (Apply's write-through drops every digest)", again.Stats.Unchanged)
			}
			third, err := sc.PlanLinear(tb, n)
			if err != nil {
				t.Fatal(err)
			}
			if !third.Empty() {
				t.Fatalf("second re-plan on the configured chain is not empty:\n%s", third.Render())
			}
			if st := third.Stats; st.Observed != n || st.Unchanged != n {
				t.Errorf("second re-plan: %d showActual requests, %d unchanged, %d full bodies; want %d, %d, 0",
					st.Observed, st.Unchanged, st.Observed-st.Unchanged, n, n)
			}
		})
	}
}

// TestPendingTransitRuleLeavesKernelAlone configures routers 1 and 3 of
// the plain GRE chain but not router 2. Router 3's transit rule then
// knows the tunnel's far end but waits on its next hop: router 2's IP
// module has the smaller reference, so it starts their address exchange,
// and it has no pipe yet. Retrying the waiting rule must not touch the
// kernel: each MA sweep that finds it still pending leaves router 3's
// ExecLog as it was. Once router 2 is configured the route installs.
func TestPendingTransitRuleLeavesKernelAlone(t *testing.T) {
	const n, retries = 3, 5
	sc, err := LinearScenarioByName("GRE")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := sc.Build(n)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	plan, err := sc.PlanLinear(tb, n)
	if err != nil {
		t.Fatal(err)
	}
	items := map[core.DeviceID][]msg.CommandItem{}
	for _, ds := range plan.Creates {
		items[ds.Device] = append(items[ds.Device], ds.Items...)
	}
	configure := func(dev core.DeviceID) {
		if resp := channeltest.Batch(t, tb.Hub, dev, items[dev]...); !resp.OK() {
			t.Fatalf("batch on %s: %v", dev, resp.Errors)
		}
	}
	transit := func(log []string) bool {
		for _, cmd := range log {
			if strings.HasPrefix(cmd, "ip route add to ") && strings.Contains(cmd, " via ") {
				return true
			}
		}
		return false
	}
	tail := tb.Devices[rid(n)]
	configure(rid(1))
	configure(rid(n))
	before := tail.Kernel.ExecLog()
	if transit(before) {
		t.Fatalf("transit route installed before its next hop is known: %q", before)
	}
	for i := 0; i < retries; i++ {
		tail.MA.Kick()
	}
	if after := tail.Kernel.ExecLog(); !slices.Equal(after, before) {
		t.Errorf("%d retries of a pending transit rule ran kernel commands:\nbefore %q\nafter  %q", retries, before, after)
	}
	configure(rid(2))
	if log := tail.Kernel.ExecLog(); !transit(log) {
		t.Errorf("transit route not installed once the next hop is known: %q", log)
	}
}

// countingBackend counts journal appends on their way to an in-memory
// backend.
type countingBackend struct {
	*datastore.MemBackend
	appends int
}

func (b *countingBackend) Append(e datastore.Entry) error {
	b.appends++
	return b.MemBackend.Append(e)
}

// TestStoreChurnExactAppends pins the journal cost of a store operation
// (store-churn's datastore.appends_per_op): on a store of a few hundred
// intents, a Submit or Withdraw and the Reconcile that carries it out
// append exactly two entries — the operation and apply-begin.
func TestStoreChurnExactAppends(t *testing.T) {
	const resident, spare, churn, wantPerOp = 200, 100, 200, 2
	tb, err := BuildDiamondLite(resident + spare)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	b := &countingBackend{MemBackend: datastore.NewMemBackend()}
	if _, err := tb.NM.Persist(b); err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{}
	for j := 1; j <= resident; j++ {
		live[j] = true
		if err := tb.NM.Submit(LiteIntent(j)); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, tb)
	rng := rand.New(rand.NewSource(18))
	for i := 0; i < churn; i++ {
		j := 1 + rng.Intn(resident+spare)
		before, op := b.appends, "submit"
		if live[j] = !live[j]; live[j] {
			err = tb.NM.Submit(LiteIntent(j))
		} else {
			op, err = "withdraw", tb.NM.Withdraw(LiteIntent(j).Name)
		}
		if err != nil {
			t.Fatal(err)
		}
		plan, err := tb.NM.Reconcile()
		if err != nil {
			t.Fatal(err)
		}
		if plan.Empty() {
			t.Fatalf("operation %d (%s %d): reconcile had nothing to do", i, op, j)
		}
		if got := b.appends - before; got != wantPerOp {
			t.Fatalf("operation %d (%s %d) appended %d journal entries, want %d", i, op, j, got, wantPerOp)
		}
	}
}

package experiments

// Conditional observation: the MA tags every showActual body with the
// SHA-256 of its modules' encoding, and the NM re-reads a device it
// already holds an observation of by that digest. These tests hold the
// bytes it saves, the write-through hazard it must not fall into, and
// the MA's side of the contract over seeded operation sequences.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"conman/internal/channel"
	"conman/internal/channel/channeltest"
	"conman/internal/core"
	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
)

// countingEndpoint counts the wire bytes of the showActual replies sent
// through it.
type countingEndpoint struct {
	channel.Endpoint
	bytes *atomic.Int64
}

func (e countingEndpoint) Send(env msg.Envelope) error {
	if env.Type == msg.TypeShowActualResp {
		b, err := env.Marshal()
		if err != nil {
			return err
		}
		e.bytes.Add(int64(len(b)))
	}
	return e.Endpoint.Send(env)
}

// TestReplanReadsDigestsNotState configures the n = 32 GRE+IGP chain and
// re-plans it twice. The first re-plan reads every router in full: Apply
// wrote its creates through the cache, which drops the digests. The
// second finds every body unchanged, so its showActual replies must come
// to at most a tenth of the first's bytes.
func TestReplanReadsDigestsNotState(t *testing.T) {
	const n = 32
	var replyBytes atomic.Int64
	hub := channel.NewHub()
	factory := func(name string) (channel.Endpoint, error) {
		return countingEndpoint{Endpoint: hub.Endpoint(name), bytes: &replyBytes}, nil
	}
	sc := GREIGPScenario()
	tb, err := sc.BuildOver(n, factory)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	if err := tb.VerifyConnectivity(20002); err != nil {
		t.Fatalf("data plane: %v", err)
	}
	tb.Net.Flush()
	replan := func() int64 {
		t.Helper()
		replyBytes.Store(0)
		plan, err := sc.PlanLinear(tb, n)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Empty() {
			t.Fatalf("re-plan on the configured chain is not empty:\n%s", plan.Render())
		}
		if plan.Stats.Observed != n {
			t.Fatalf("re-plan sent %d showActual requests, want %d", plan.Stats.Observed, n)
		}
		return replyBytes.Load()
	}
	first, second := replan(), replan()
	t.Logf("showActual.resp bytes: first re-plan %d, repeat re-plan %d (%.1f%%)",
		first, second, 100*float64(second)/float64(first))
	if first == 0 || second*10 > first {
		t.Errorf("repeat re-plan moved %d showActual.resp bytes, more than 10%% of the first re-plan's %d", second, first)
	}
}

// TestDigestDroppedOnWriteThrough is the hazard a kept digest would open.
// A rule deleted out of band is re-created by Apply, which writes the new
// rule into the cached observation. Deleting that rule out of band too
// puts the device back on the very body the repair pass read. Had the
// cache kept that body's digest across the write-through, the next Plan
// would be told "unchanged" and keep a cache that still holds the rule,
// planning nothing; it must re-create the rule instead.
func TestDigestDroppedOnWriteThrough(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	intent := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
	apply := func(wantCreates bool) {
		t.Helper()
		plan, err := tb.NM.Plan(intent)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Empty() == wantCreates {
			t.Fatalf("plan empty = %v, want %v:\n%s", plan.Empty(), !wantCreates, plan.Render())
		}
		if err := tb.NM.Apply(plan); err != nil {
			t.Fatal(err)
		}
	}
	apply(true)
	if err := tb.VerifyConnectivity(93000); err != nil {
		t.Fatalf("before the fault: %v", err)
	}
	apply(false) // every device read in full: the cache holds digests

	gre := core.Ref(core.NameGRE, "A", "l")
	greRules := func() []string {
		t.Helper()
		states, err := tb.NM.ShowActual("A")
		if err != nil {
			t.Fatal(err)
		}
		var ids []string
		for _, st := range states {
			if st.Ref == gre {
				for _, r := range st.SwitchRules {
					ids = append(ids, r.ID)
				}
			}
		}
		return ids
	}
	body := func() []byte {
		t.Helper()
		env := channeltest.Call(t, tb.Hub, "A", msg.TypeShowActualReq, nil)
		var resp msg.ShowActualResp
		if err := env.Decode(&resp); err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(resp.Modules)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	deleteGRERule := func() {
		t.Helper()
		ids := greRules()
		if len(ids) != 1 {
			t.Fatalf("GRE switch rules on A: %v, want one", ids)
		}
		if err := tb.Devices["A"].MA.Delete(core.DeleteRequest{
			Kind: core.ComponentSwitchRule, Module: gre, ID: ids[0],
		}); err != nil {
			t.Fatal(err)
		}
	}

	deleteGRERule()
	repairRead := body()
	apply(true) // reads A (the body above) and re-creates the rule
	deleteGRERule()
	if !bytes.Equal(body(), repairRead) {
		t.Fatal("deleting the re-created rule did not restore the body the repair pass read; the hazard is not set up")
	}
	apply(true)
	if ids := greRules(); len(ids) != 1 {
		t.Fatalf("GRE switch rules on A after the second repair: %v, want one", ids)
	}
	if err := tb.VerifyConnectivity(93100); err != nil {
		t.Fatalf("after the second repair: %v", err)
	}
}

// TestRestoredNMReadsByDigest restores the NM from two snapshots of the
// configured Fig 4 GRE VPN. The first is taken right after Apply, whose
// write-through dropped every digest: the entries carry none, as in a
// snapshot written before digests existed, so the restored NM's Plan
// reads every device in full. The second is taken after that Plan read
// them: the restored NM's Plan asks by digest, and every device answers
// unchanged.
func TestRestoredNMReadsByDigest(t *testing.T) {
	tb, err := BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	mem := datastore.NewMemBackend()
	if _, err := tb.NM.Persist(mem); err != nil {
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
	occupied := plan.Stats.Observed
	restartAndPlan := func(wantUnchanged int) {
		t.Helper()
		if err := tb.NM.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		tb.Hub.Detach(msg.NMName)
		n := nm.New()
		n.AttachChannel(tb.Hub.Endpoint(msg.NMName))
		if _, err := n.Persist(mem); err != nil {
			t.Fatal(err)
		}
		tb.NM = n
		again, err := n.Plan(intent)
		if err != nil {
			t.Fatal(err)
		}
		if !again.Empty() {
			t.Fatalf("restored NM plans changes on the configured network:\n%s", again.Render())
		}
		if st := again.Stats; st.Observed != occupied || st.Unchanged != wantUnchanged {
			t.Errorf("restored NM's Plan: %d showActual requests, %d unchanged; want %d, %d",
				st.Observed, st.Unchanged, occupied, wantUnchanged)
		}
	}
	restartAndPlan(0)
	restartAndPlan(occupied)
	if err := tb.VerifyConnectivity(95000); err != nil {
		t.Fatalf("after the restarts: %v", err)
	}
}

// TestShowActualDigestProperty drives a GRE+IGP chain through seeded
// operation sequences — installs, withdrawals, out-of-band deletes of
// pipes and rules, wire cuts and heals that make the IGP flood, and probe
// traffic that moves the port and tunnel counters — and after each step
// asks every router three times: in full, conditionally on the digest of
// the body it last answered, and in full again. Whenever the two full
// reads agree, the conditional one must answer unchanged exactly when
// that body equals the one behind the digest, and every digest must be
// the SHA-256 of the modules it came with.
func TestShowActualDigestProperty(t *testing.T) {
	const n, steps = 4, 40
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := GREIGPScenario()
			tb, err := sc.Build(n)
			if err != nil {
				t.Fatal(err)
			}
			defer tb.Close()
			rng := rand.New(rand.NewSource(seed))
			intent := sc.Intent(n)
			devs := make([]core.DeviceID, 0, n)
			for i := 1; i <= n; i++ {
				devs = append(devs, rid(i))
			}
			// held maps each device to the digest it last answered and
			// bodies each digest to the modules it named.
			held := make(map[core.DeviceID]string)
			bodies := make(map[string][]byte)
			read := func(dev core.DeviceID, ifDigest string) msg.ShowActualResp {
				t.Helper()
				var body any
				if ifDigest != "" {
					body = msg.ShowActualReq{IfDigest: ifDigest}
				}
				env := channeltest.Call(t, tb.Hub, dev, msg.TypeShowActualReq, body)
				var resp msg.ShowActualResp
				if err := env.Decode(&resp); err != nil {
					t.Fatal(err)
				}
				if !resp.Unchanged {
					// The digest names the modules exactly as sent.
					var raw struct {
						Modules json.RawMessage `json:"modules"`
					}
					if err := env.Decode(&raw); err != nil {
						t.Fatal(err)
					}
					sum := sha256.Sum256(raw.Modules)
					if want := hex.EncodeToString(sum[:]); resp.Digest != want {
						t.Fatalf("%s: digest %s, want SHA-256 of the modules %s", dev, resp.Digest, want)
					}
					bodies[resp.Digest] = raw.Modules
				}
				return resp
			}
			var unchanged, changed int
			check := func(step int, op string) {
				t.Helper()
				tb.Net.Flush()
				for _, dev := range devs {
					before := read(dev, "")
					cond := read(dev, held[dev])
					after := read(dev, "")
					if before.Digest != after.Digest {
						continue // the device moved between the reads
					}
					same := held[dev] != "" && bytes.Equal(bodies[after.Digest], bodies[held[dev]])
					if cond.Unchanged != same {
						t.Fatalf("step %d (%s), %s: unchanged = %v, but the body behind the held digest equal to a fresh read = %v",
							step, op, dev, cond.Unchanged, same)
					}
					if cond.Unchanged {
						unchanged++
						if cond.Modules != nil || cond.Digest != held[dev] {
							t.Fatalf("step %d (%s), %s: unchanged reply carries modules %v or digest %s, want none and %s",
								step, op, dev, cond.Modules, cond.Digest, held[dev])
						}
					} else {
						changed++
					}
					held[dev] = after.Digest
				}
			}

			token := uint32(94000)
			check(0, "start")
			for step := 1; step <= steps; step++ {
				var op string
				switch k := rng.Intn(7); k {
				case 0, 1:
					op = "install"
					if err := tb.NM.Submit(intent); err != nil {
						if err := tb.NM.Update(intent); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := tb.NM.Reconcile(); err != nil {
						t.Fatal(err)
					}
				case 2:
					op = "withdraw"
					if err := tb.NM.Withdraw(intent.Name); err == nil {
						if _, err := tb.NM.Reconcile(); err != nil {
							t.Fatal(err)
						}
					}
				case 3:
					op = "out-of-band delete"
					dev := devs[rng.Intn(len(devs))]
					if req, ok := pickComponent(t, tb, dev, rng); ok {
						op += " " + req.ID
						_ = tb.Devices[dev].MA.Delete(req)
					}
				case 4:
					i := 1 + rng.Intn(n-1)
					medium := fmt.Sprintf("R%d-R%d", i, i+1)
					op = "cut and heal " + medium
					if err := tb.Net.SetMediumUp(medium, false); err != nil {
						t.Fatal(err)
					}
					tb.Net.Flush()
					if err := tb.Net.SetMediumUp(medium, true); err != nil {
						t.Fatal(err)
					}
				case 5:
					op = "probe"
					token += 2
					_ = tb.VerifyConnectivity(token)
				default:
					op = "idle"
				}
				check(step, op)
			}
			if unchanged == 0 || changed == 0 {
				t.Errorf("%d unchanged and %d changed answers: the sequence did not exercise both", unchanged, changed)
			}
		})
	}
}

// pickComponent picks one of dev's configured (non-physical) pipes or
// installed switch rules at random, as MA.Delete names it.
func pickComponent(t *testing.T, tb *Testbed, dev core.DeviceID, rng *rand.Rand) (core.DeleteRequest, bool) {
	t.Helper()
	env := channeltest.Call(t, tb.Hub, dev, msg.TypeShowActualReq, nil)
	var resp msg.ShowActualResp
	if err := env.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	var reqs []core.DeleteRequest
	for _, st := range resp.Modules {
		for _, p := range st.Pipes {
			if p.End == core.EndUp {
				reqs = append(reqs, core.DeleteRequest{Kind: core.ComponentPipe, Module: st.Ref, ID: string(p.ID)})
			}
		}
		for _, r := range st.SwitchRules {
			reqs = append(reqs, core.DeleteRequest{Kind: core.ComponentSwitchRule, Module: st.Ref, ID: r.ID})
		}
	}
	if len(reqs) == 0 {
		return core.DeleteRequest{}, false
	}
	return reqs[rng.Intn(len(reqs))], true
}

package nm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"conman/internal/core"
	"conman/internal/msg"
)

func TestSubmitWithdrawBookkeeping(t *testing.T) {
	n := New()
	if err := n.Submit(Intent{}); err == nil {
		t.Error("submit accepted an unnamed intent")
	}
	a := Intent{Name: "a", Prefer: "GRE-IP tunnel"}
	b := Intent{Name: "b"}
	for _, in := range []Intent{a, b} {
		if err := n.Submit(in); err != nil {
			t.Fatal(err)
		}
	}
	// Resubmitting a live name is a typed error, not a silent overwrite.
	var dup *DuplicateIntentError
	if err := n.Submit(Intent{Name: "a", Prefer: "MPLS"}); !errors.As(err, &dup) {
		t.Fatalf("double submit = %v, want *DuplicateIntentError", err)
	} else if dup.Name != "a" {
		t.Errorf("duplicate error names %q, want a", dup.Name)
	}
	// Update replaces in place, keeping submission order.
	if err := n.Update(Intent{Name: "a", Prefer: "MPLS"}); err != nil {
		t.Fatal(err)
	}
	got := n.Registered()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("registered = %+v, want [a b]", got)
	}
	if got[0].Prefer != "MPLS" {
		t.Errorf("update did not replace: prefer = %q", got[0].Prefer)
	}
	// Update and Withdraw of unknown names are typed errors too.
	var unk *UnknownIntentError
	if err := n.Update(Intent{Name: "nope"}); !errors.As(err, &unk) {
		t.Fatalf("update of unknown = %v, want *UnknownIntentError", err)
	} else if unk.Op != "update" || unk.Name != "nope" {
		t.Errorf("unknown error = %+v, want op=update name=nope", unk)
	}
	unk = nil
	if err := n.Withdraw("nope"); !errors.As(err, &unk) {
		t.Fatalf("withdraw of unknown = %v, want *UnknownIntentError", err)
	} else if unk.Op != "withdraw" {
		t.Errorf("unknown error op = %q, want withdraw", unk.Op)
	}
	if err := n.Withdraw("a"); err != nil {
		t.Fatal(err)
	}
	got = n.Registered()
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("after withdraw, registered = %+v, want [b]", got)
	}
}

// script builds a DeviceScript from pipe/rule specs the way the
// compiler would emit it.
func pipeItem(id core.PipeID, req core.PipeRequest) (msg.CommandItem, string) {
	return msg.CommandItem{Pipe: &msg.CreatePipeItem{ID: id, Req: req}}, renderPipeCreate(id, req)
}

func ruleItem(r core.SwitchRule) (msg.CommandItem, string) {
	return msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: r}}, renderSwitchCreate(r)
}

// mustMerge folds one intent's single-device script into the store
// state the way a reconcile pass does.
func mustMerge(t *testing.T, ss *storeState, name string, ds DeviceScript) {
	t.Helper()
	if err := ss.merge(name, []DeviceScript{ds}); err != nil {
		t.Fatal(err)
	}
}

func appendItems(ds *DeviceScript, items ...func() (msg.CommandItem, string)) {
	for _, f := range items {
		it, rendered := f()
		ds.Items = append(ds.Items, it)
		ds.Rendered = append(ds.Rendered, rendered)
	}
}

// TestUnionMergeDedupesSharedComponents drives merge + diff directly: two intents compile the same transit pipe and rule on one
// device (each numbering the pipe P0 in isolation), plus one exclusive
// rule each. The union must configure the shared pair once, refcount it
// with both owners, and keep the exclusive rules separate.
func TestUnionMergeDedupesSharedComponents(t *testing.T) {
	dev := core.DeviceID("X")
	eth := core.Ref(core.NameETH, dev, "e")
	vlan := core.Ref(core.NameVLAN, dev, "v")
	req := core.PipeRequest{Upper: eth, Lower: vlan, LowerPeer: core.Ref(core.NameVLAN, "Y", "v")}

	mkScript := func(custPort string) DeviceScript {
		ds := DeviceScript{Device: dev}
		appendItems(&ds,
			func() (msg.CommandItem, string) { return pipeItem("P0", req) },
			func() (msg.CommandItem, string) {
				return ruleItem(core.SwitchRule{
					Module: eth, From: core.PipeID("Phy-" + custPort), To: "P0",
					Match: &core.Classifier{Kind: "tagged"},
				})
			},
			func() (msg.CommandItem, string) {
				return ruleItem(core.SwitchRule{Module: vlan, From: "P0", To: "Phy-trunk", Bidirectional: true})
			},
		)
		return ds
	}

	ss := newStoreState()
	mustMerge(t, ss, "vpn-a", mkScript("c1"))
	mustMerge(t, ss, "vpn-b", mkScript("c2"))

	du := ss.unions[dev]
	if len(du.pipes) != 1 {
		t.Fatalf("union holds %d pipes, want 1 (shared)", len(du.pipes))
	}
	if len(du.rules) != 3 {
		t.Fatalf("union holds %d rules, want 3 (2 exclusive + 1 shared)", len(du.rules))
	}
	plan := &Plan{}
	du.diff(newObserved(map[core.PipeID]obsPipe{}, nil), plan, true)
	if len(plan.Creates) != 1 {
		t.Fatalf("want one create batch, got %d", len(plan.Creates))
	}
	if got := len(plan.Creates[0].Items); got != 4 {
		t.Fatalf("create batch has %d items, want 4 (1 pipe + 3 rules):\n%s",
			got, strings.Join(plan.Creates[0].Rendered, "\n"))
	}
	rendered := strings.Join(plan.Creates[0].Rendered, "\n")
	if !strings.Contains(rendered, "[shared: vpn-a, vpn-b]") {
		t.Errorf("shared components not annotated with owners:\n%s", rendered)
	}
}

// handleFixture is one device's handle-embedding ingress: the IP module
// classifies customer traffic into a pipe over MPLS, whose NHLFE key the
// installed rule embeds. The pipe is observed as P8 carrying the
// provider's current handle "nhlfe=2"; an installed copy recording
// anything else is stale.
type handleFixture struct {
	ipm, mpls core.ModuleRef
	req       core.PipeRequest
}

func newHandleFixture(dev core.DeviceID) handleFixture {
	ipm, mpls := core.Ref(core.NameIPv4, dev, "g"), core.Ref(core.NameMPLS, dev, "o")
	return handleFixture{ipm: ipm, mpls: mpls, req: core.PipeRequest{Upper: ipm, Lower: mpls}}
}

// items are the desired pipe (compiled as P1) and the ingress rule into it.
func (h handleFixture) items() []func() (msg.CommandItem, string) {
	return []func() (msg.CommandItem, string){
		func() (msg.CommandItem, string) { return pipeItem("P1", h.req) },
		func() (msg.CommandItem, string) {
			return ruleItem(core.SwitchRule{Module: h.ipm, From: "Phy-cust", To: "P1"})
		},
	}
}

// observe builds the device's observed state: pipes and rules plus the
// fixture's pipe, installed as P8, and an ingress rule recording handle.
func (h handleFixture) observe(pipes map[core.PipeID]obsPipe, rules []obsRule, handle string) *observed {
	pipes["P8"] = obsPipe{upper: h.ipm, lower: h.mpls, handle: "nhlfe=2"}
	rules = append(rules, obsRule{id: "r8", module: h.ipm, from: "Phy-cust", to: "P8", handle: handle})
	return newObserved(pipes, rules)
}

// TestDiffAdoptsObservedPipeIDs pins the content-based matching that
// makes reconciliation stable across intent withdrawal: the desired
// pipe was compiled as P0 but is observed installed as P7 — the diff
// must adopt P7 (no churn), keep the installed rule referencing it, and
// delete only the truly stale rule. A rule embedding an exported handle
// (§II-E) is kept only while the handle it recorded is still the one its
// To pipe reports, and a kept one is a dependency to watch: a stale one
// is deleted and created again.
func TestDiffAdoptsObservedPipeIDs(t *testing.T) {
	for _, tc := range []struct {
		handle  string
		inPlace int
		deletes []string
		creates int
		deps    int
	}{
		{handle: "nhlfe=2", inPlace: 4, deletes: []string{"r2"}, deps: 1},
		{handle: "nhlfe=1", inPlace: 3, deletes: []string{"r2", "r8"}, creates: 1},
	} {
		t.Run(tc.handle, func(t *testing.T) {
			dev := core.DeviceID("X")
			eth := core.Ref(core.NameETH, dev, "e")
			vlan := core.Ref(core.NameVLAN, dev, "v")
			req := core.PipeRequest{Upper: eth, Lower: vlan, LowerPeer: core.Ref(core.NameVLAN, "Y", "v")}
			h := newHandleFixture(dev)

			ds := DeviceScript{Device: dev}
			appendItems(&ds,
				func() (msg.CommandItem, string) { return pipeItem("P0", req) },
				func() (msg.CommandItem, string) {
					return ruleItem(core.SwitchRule{Module: vlan, From: "P0", To: "Phy-trunk", Bidirectional: true})
				},
			)
			appendItems(&ds, h.items()...)
			ss := newStoreState()
			mustMerge(t, ss, "vpn-a", ds)

			o := h.observe(map[core.PipeID]obsPipe{
				"P7": {upper: eth, lower: vlan, lowerPeer: core.Ref(core.NameVLAN, "Y", "v")},
			}, []obsRule{
				{id: "r1", module: vlan, from: "P7", to: "Phy-trunk"},
				{id: "r2", module: vlan, from: "P7", to: "Phy-dead"},
			}, tc.handle)
			plan := &Plan{}
			ss.unions[dev].diff(o, plan, true)
			checkPlan(t, plan, tc.inPlace, tc.deletes, tc.creates)
			if len(plan.handleDeps) != tc.deps || tc.deps > 0 && plan.handleDeps[0] != (handleDep{h.mpls, "pipe:P8"}) {
				t.Errorf("handle dependencies %v, want %d: the kept ingress rule's on %s pipe:P8", plan.handleDeps, tc.deps, h.mpls)
			}
		})
	}
}

// checkPlan holds a one-device plan to its in-place count, the ids it
// deletes (in order) and the number of components it creates.
func checkPlan(t *testing.T, plan *Plan, inPlace int, deletes []string, creates int) {
	t.Helper()
	if plan.InPlace != inPlace {
		t.Errorf("InPlace = %d, want %d:\n%s", plan.InPlace, inPlace, plan.Render())
	}
	var got []string
	for _, ds := range plan.Deletes {
		for _, item := range ds.Items {
			got = append(got, item.Delete.Req.ID)
		}
	}
	if strings.Join(got, " ") != strings.Join(deletes, " ") {
		t.Errorf("deletes %v, want %v:\n%s", got, deletes, plan.Render())
	}
	if nc, _ := batchCounts(plan.Creates, nil); nc != creates {
		t.Errorf("%d creates, want %d:\n%s", nc, creates, plan.Render())
	}
}

// classifiedRule forges a resolved classified switch rule item the way
// the compiler emits customer-edge ingress rules.
func classifiedRule(module core.ModuleRef, from, to core.PipeID, domain, resolved string) func() (msg.CommandItem, string) {
	return func() (msg.CommandItem, string) {
		r := core.SwitchRule{
			Module: module, From: from, To: to,
			Match: &core.Classifier{Kind: "dst-domain", Value: domain},
		}
		return msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: r, MatchResolved: resolved}},
			renderSwitchCreate(r)
	}
}

// TestStoreConflictDetection pins the typed conflict error: two intents
// whose rules classify the same traffic (same module, same entry pipe,
// same classifier) but steer it into different pipes must surface as a
// ConflictError naming both intents — not as an order-dependent
// installation outcome.
func TestStoreConflictDetection(t *testing.T) {
	dev := core.DeviceID("A")
	ipm := core.Ref(core.NameIPv4, dev, "g")
	gre := core.Ref(core.NameGRE, dev, "l")
	mpls := core.Ref(core.NameMPLS, dev, "o")

	// Intent a: classify C1-S2 into a pipe toward GRE. Intent b: the
	// same classifier into a pipe toward MPLS.
	mk := func(lower core.ModuleRef) DeviceScript {
		ds := DeviceScript{Device: dev}
		appendItems(&ds,
			func() (msg.CommandItem, string) {
				return pipeItem("P0", core.PipeRequest{Upper: ipm, Lower: lower})
			},
			classifiedRule(ipm, "Phy-cust", "P0", "C1-S2", "10.0.2.0/24"),
		)
		return ds
	}
	ss := newStoreState()
	mustMerge(t, ss, "a", mk(gre))
	err := ss.merge("b", []DeviceScript{mk(mpls)})
	var ce *ConflictError
	if !errors.As(err, &ce) {
		t.Fatalf("merge of the colliding intent = %v, want *ConflictError", err)
	}
	if ce.IntentA != "a" || ce.IntentB != "b" {
		t.Errorf("conflict names intents %q/%q, want a/b", ce.IntentA, ce.IntentB)
	}
	if ce.Module != ipm {
		t.Errorf("conflict module = %s, want %s", ce.Module, ipm)
	}
	if !strings.Contains(ce.Error(), `"a"`) || !strings.Contains(ce.Error(), `"b"`) {
		t.Errorf("error text does not name both intents: %s", ce)
	}
}

// TestStoreConflictTolerates pins the non-conflicts: identical rules
// unify (shared, refcounted), divergent valueless Tagged classifiers
// coexist (the multi-tenant edge), and different classifier values are
// independent.
func TestStoreConflictTolerates(t *testing.T) {
	dev := core.DeviceID("A")
	ipm := core.Ref(core.NameIPv4, dev, "g")
	gre := core.Ref(core.NameGRE, dev, "l")
	eth := core.Ref(core.NameETH, dev, "a")

	ss := newStoreState()
	for i, name := range []string{"a", "b"} {
		ds := DeviceScript{Device: dev}
		appendItems(&ds,
			func() (msg.CommandItem, string) {
				return pipeItem("P0", core.PipeRequest{Upper: ipm, Lower: gre})
			},
			// Same classifier, same structural target: shared, fine.
			classifiedRule(ipm, "Phy-cust", "P0", "C1-S2", "10.0.2.0/24"),
			// Different classifier values: independent, fine.
			classifiedRule(ipm, "Phy-cust", "P0", fmt.Sprintf("C1-S%d", 3+i), fmt.Sprintf("10.0.%d.0/24", 3+i)),
			// Valueless Tagged classifier to per-intent customer ports:
			// the multi-tenant edge, fine.
			func() (msg.CommandItem, string) {
				r := core.SwitchRule{
					Module: eth, From: "Phy-trunk", To: core.PipeID(fmt.Sprintf("Phy-cust%d", i)),
					Match: &core.Classifier{Kind: "tagged"},
				}
				return msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: r}}, renderSwitchCreate(r)
			},
		)
		if err := ss.merge(name, []DeviceScript{ds}); err != nil {
			t.Fatalf("false conflict: %v", err)
		}
	}
}

// TestDroppedRematchKeepsQueuedStateSpokenFor pins what a rematch leaves
// behind for the delta pass: installed rules the rematch found stale are
// queued for deletion, the plan is dropped, and then an intent that wants
// exactly those rules merges. The delta pass must cancel the deletions
// and re-adopt the rules — not bind them and delete them in the same
// plan — except a rule whose embedded handle (§II-E) went stale meanwhile,
// whose deletion stands and which is created again.
func TestDroppedRematchKeepsQueuedStateSpokenFor(t *testing.T) {
	for _, tc := range []struct {
		handle  string
		inPlace int
		deletes []string
		creates int
	}{
		{handle: "nhlfe=2", inPlace: 5},
		{handle: "nhlfe=1", inPlace: 4, deletes: []string{"r8"}, creates: 1},
	} {
		t.Run(tc.handle, func(t *testing.T) {
			dev := core.DeviceID("X")
			eth := core.Ref(core.NameETH, dev, "e")
			vlan := core.Ref(core.NameVLAN, dev, "v")
			req := core.PipeRequest{Upper: eth, Lower: vlan, LowerPeer: core.Ref(core.NameVLAN, "Y", "v")}
			h := newHandleFixture(dev)
			mk := func(port core.PipeID) DeviceScript {
				ds := DeviceScript{Device: dev}
				appendItems(&ds,
					func() (msg.CommandItem, string) { return pipeItem("P0", req) },
					func() (msg.CommandItem, string) {
						return ruleItem(core.SwitchRule{Module: vlan, From: "P0", To: port})
					},
				)
				return ds
			}
			o := h.observe(map[core.PipeID]obsPipe{
				"P7": {upper: eth, lower: vlan, lowerPeer: core.Ref(core.NameVLAN, "Y", "v")},
			}, []obsRule{
				{id: "r1", module: vlan, from: "P7", to: "Phy-a"},
				{id: "r2", module: vlan, from: "P7", to: "Phy-b"},
			}, tc.handle)
			ss := newStoreState()
			mustMerge(t, ss, "a", mk("Phy-a"))
			dropped := &Plan{}
			ss.unions[dev].diff(o, dropped, true)
			checkPlan(t, dropped, 2, []string{"r2", "r8", "P8"}, 0)

			b := mk("Phy-b")
			appendItems(&b, h.items()...)
			mustMerge(t, ss, "b", b)
			plan := &Plan{}
			ss.unions[dev].diff(o, plan, false)
			checkPlan(t, plan, tc.inPlace, tc.deletes, tc.creates)
		})
	}
}

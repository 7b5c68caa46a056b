package nm

import (
	"errors"
	"fmt"
	"math/rand"
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
	du.diff(New(), &observed{pipes: map[core.PipeID]obsPipe{}}, plan, true)
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

// TestDiffAdoptsObservedPipeIDs pins the content-based matching that
// makes reconciliation stable across intent withdrawal: the desired
// pipe was compiled as P0 but is observed installed as P7 — the diff
// must adopt P7 (no churn), keep the installed rule referencing it, and
// delete only the truly stale rule.
func TestDiffAdoptsObservedPipeIDs(t *testing.T) {
	dev := core.DeviceID("X")
	eth := core.Ref(core.NameETH, dev, "e")
	vlan := core.Ref(core.NameVLAN, dev, "v")
	req := core.PipeRequest{Upper: eth, Lower: vlan, LowerPeer: core.Ref(core.NameVLAN, "Y", "v")}

	ds := DeviceScript{Device: dev}
	appendItems(&ds,
		func() (msg.CommandItem, string) { return pipeItem("P0", req) },
		func() (msg.CommandItem, string) {
			return ruleItem(core.SwitchRule{Module: vlan, From: "P0", To: "Phy-trunk", Bidirectional: true})
		},
	)
	ss := newStoreState()
	mustMerge(t, ss, "vpn-a", ds)

	o := &observed{
		pipes: map[core.PipeID]obsPipe{
			"P7": {upper: eth, lower: vlan, lowerPeer: core.Ref(core.NameVLAN, "Y", "v")},
		},
		rules: []obsRule{
			{id: "r1", module: vlan, from: "P7", to: "Phy-trunk"},
			{id: "r2", module: vlan, from: "P7", to: "Phy-dead"},
		},
	}
	plan := &Plan{}
	ss.unions[dev].diff(New(), o, plan, true)
	if len(plan.Creates) != 0 {
		t.Errorf("in-place pipe churned:\n%s", plan.Render())
	}
	if plan.InPlace != 2 {
		t.Errorf("InPlace = %d, want 2 (pipe + kept rule)", plan.InPlace)
	}
	if len(plan.Deletes) != 1 || len(plan.Deletes[0].Items) != 1 {
		t.Fatalf("want exactly one stale-rule delete, got:\n%s", plan.Render())
	}
	if !strings.Contains(plan.Deletes[0].Rendered[0], "r2") {
		t.Errorf("wrong rule deleted: %s", plan.Deletes[0].Rendered[0])
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
// behind for the delta pass: an installed rule the rematch found stale is
// queued for deletion, the plan is dropped, and then an intent that wants
// exactly that rule merges. The delta pass must cancel the deletion and
// re-adopt the rule — not bind it and delete it in the same plan.
func TestDroppedRematchKeepsQueuedStateSpokenFor(t *testing.T) {
	dev := core.DeviceID("X")
	eth := core.Ref(core.NameETH, dev, "e")
	vlan := core.Ref(core.NameVLAN, dev, "v")
	req := core.PipeRequest{Upper: eth, Lower: vlan, LowerPeer: core.Ref(core.NameVLAN, "Y", "v")}
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
	o := &observed{
		pipes: map[core.PipeID]obsPipe{
			"P7": {upper: eth, lower: vlan, lowerPeer: core.Ref(core.NameVLAN, "Y", "v")},
		},
		rules: []obsRule{
			{id: "r1", module: vlan, from: "P7", to: "Phy-a"},
			{id: "r2", module: vlan, from: "P7", to: "Phy-b"},
		},
	}
	n, ss := New(), newStoreState()
	mustMerge(t, ss, "a", mk("Phy-a"))
	dropped := &Plan{}
	ss.unions[dev].diff(n, o, dropped, true)
	if len(dropped.Deletes) != 1 || !strings.Contains(dropped.Deletes[0].Rendered[0], "r2") {
		t.Fatalf("rematch did not queue the stale rule:\n%s", dropped.Render())
	}

	mustMerge(t, ss, "b", mk("Phy-b"))
	plan := &Plan{}
	ss.unions[dev].diff(n, o, plan, false)
	if !plan.Empty() || plan.InPlace != 3 {
		t.Errorf("delta pass after the dropped rematch: %d in place, want 3 and no commands:\n%s",
			plan.InPlace, plan.Render())
	}
}

// checkSeqList fails unless the list's numbers are strictly increasing
// and pair up with its items.
func checkSeqList[T any](t *testing.T, what string, l seqList[T]) {
	t.Helper()
	if len(l.seqs) != len(l.items) {
		t.Fatalf("%s: %d numbers for %d items", what, len(l.seqs), len(l.items))
	}
	for i := 1; i < len(l.seqs); i++ {
		if l.seqs[i] <= l.seqs[i-1] {
			t.Fatalf("%s: numbers not strictly increasing: %v", what, l.seqs)
		}
	}
}

// TestOrderBookkeepingUnderChurn drives the store state the way reconcile
// passes do — first merges, re-merges (update), withdrawals, and an older
// intent whose first merge comes after a newer one's — against a plain
// model, and holds the sequence-ordered lists to it: every owner list is
// the component's owners in merge order with no name twice (merge's
// last-owner test relies on removeContribs having run), views are in
// registration order, and nothing is ever renumbered.
func TestOrderBookkeepingUnderChurn(t *testing.T) {
	dev := core.DeviceID("X")
	eth := core.Ref(core.NameETH, dev, "e")
	vlan := core.Ref(core.NameVLAN, dev, "v")
	trunk := core.PipeRequest{Upper: eth, Lower: vlan, LowerPeer: core.Ref(core.NameVLAN, "Y", "v")}
	script := func(port int) DeviceScript {
		ds := DeviceScript{Device: dev}
		appendItems(&ds,
			func() (msg.CommandItem, string) { return pipeItem("P0", trunk) },
			func() (msg.CommandItem, string) {
				return ruleItem(core.SwitchRule{
					Module: eth, From: core.PipeID(fmt.Sprintf("Phy-c%d", port)), To: "P0",
					Match: &core.Classifier{Kind: "tagged"},
				})
			},
			func() (msg.CommandItem, string) {
				return ruleItem(core.SwitchRule{Module: vlan, From: "P0", To: "Phy-trunk", Bidirectional: true})
			},
			// Named twice by one script: the second must not add a second ref.
			func() (msg.CommandItem, string) { return pipeItem("P1", trunk) },
		)
		return ds
	}

	ss := newStoreState()
	rng := rand.New(rand.NewSource(31))
	const names = 24
	var nextReg uint64
	regSeq := map[string]uint64{}    // registered name -> registration number
	merged := map[string]int{}       // merged name -> customer port
	var mergeOrder, pending []string // model: trunk owners; registered but never merged
	without := func(list []string, name string) []string {
		out := list[:0:0]
		for _, s := range list {
			if s != name {
				out = append(out, s)
			}
		}
		return out
	}
	lateFirstMerges := 0
	merge := func(name string, port int) {
		if k := len(ss.views.seqs); k > 0 && regSeq[name] < ss.views.seqs[k-1] {
			if _, has := ss.viewIdx[name]; !has {
				lateFirstMerges++
			}
		}
		ss.removeContribs(name)
		ss.contribs[name] = &intentContrib{}
		ss.setView(regSeq[name], IntentView{Intent: Intent{Name: name}})
		mustMerge(t, ss, name, script(port))
		merged[name] = port
		mergeOrder = append(without(mergeOrder, name), name)
	}
	for step := 0; step < 2000; step++ {
		name := fmt.Sprintf("vpn-%d", rng.Intn(names))
		_, registered := regSeq[name]
		switch r := rng.Intn(10); {
		case !registered:
			nextReg++
			regSeq[name] = nextReg
			if r < 2 {
				// Its compile fails for now: registered, merged later — after
				// intents registered after it.
				pending = append(pending, name)
			} else {
				merge(name, rng.Intn(4))
			}
		case r < 3:
			pending = without(pending, name)
			merge(name, rng.Intn(4)) // update, or the late first merge
		case r < 6:
			ss.removeContribs(name)
			delete(ss.contribs, name)
			ss.removeView(name)
			delete(regSeq, name)
			delete(merged, name)
			mergeOrder, pending = without(mergeOrder, name), without(pending, name)
		}

		du := ss.unions[dev]
		if du == nil {
			continue
		}
		if p := du.pipes[pipeKey(trunk)]; p != nil {
			checkSeqList(t, "trunk pipe owners", p.owners)
			if got := strings.Join(p.owners.items, ","); got != strings.Join(mergeOrder, ",") {
				t.Fatalf("step %d: trunk pipe owners %s, want merge order %s", step, got, strings.Join(mergeOrder, ","))
			}
		} else if len(mergeOrder) > 0 {
			t.Fatalf("step %d: trunk pipe gone with owners %v", step, mergeOrder)
		}
		for key, r := range du.rules {
			checkSeqList(t, "owners of rule "+key, r.owners)
			seen := map[string]bool{}
			for _, o := range r.owners.items {
				if seen[o] {
					t.Fatalf("step %d: rule %s owned twice by %s: %v", step, key, o, r.owners.items)
				}
				seen[o] = true
			}
		}
		checkSeqList(t, "views", ss.views)
		if len(ss.views.items) != len(merged) {
			t.Fatalf("step %d: %d views for %d merged intents", step, len(ss.views.items), len(merged))
		}
		for i, v := range ss.views.items {
			if ss.views.seqs[i] != regSeq[v.Intent.Name] || ss.viewIdx[v.Intent.Name] != regSeq[v.Intent.Name] {
				t.Fatalf("step %d: view %d (%s) sits at number %d, registered as %d", step, i, v.Intent.Name, ss.views.seqs[i], regSeq[v.Intent.Name])
			}
			if v.Exclusive+v.Shared != 3 {
				t.Fatalf("step %d: view %s tallies %d exclusive + %d shared components, want 3 in all", step, v.Intent.Name, v.Exclusive, v.Shared)
			}
		}
	}
	if lateFirstMerges == 0 {
		t.Error("no older intent ever first merged after a newer one: the sorted insert went untested")
	}
}

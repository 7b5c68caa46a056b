package nm

// A model test of the union (union.go) and its diff (diff.go), run on
// plain values. Seeded merges, updates and withdrawals over three devices
// that share a trunk are mirrored in a naive model — each component's
// content description mapped to its owners — and after every step the
// union's live pipes and rules, owner lists, view tallies and shared
// count must equal the model's. At checkpoints each device's union is
// diffed, a fake device applies the plan (bindCreated writes it through
// the cache), and a union rebuilt from empty is rematched against the
// device: both must send the same commands, wire ids included, and count
// the same components in place.

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"conman/internal/core"
	"conman/internal/msg"
)

var modelDevices = [3]core.DeviceID{"A", "B", "C"}

// devGoal is one intent's goal on one device: a customer port tagged onto
// the shared trunk and, when classify is set, a dst-domain route for the
// port into a GRE pipe towards one of two remote ends (variant). Two
// intents routing one port to different ends conflict.
type devGoal struct {
	on            bool
	port, variant int
	classify      bool
}

type modelGoal [3]devGoal

func randomGoal(rng *rand.Rand) modelGoal {
	var g modelGoal
	for !g[0].on && !g[1].on && !g[2].on {
		for i := range g {
			port := rng.Intn(6)
			// Mostly the port's own end: conflicts stay rare enough that
			// most intents merge.
			variant := port % 2
			if rng.Intn(8) == 0 {
				variant = 1 - variant
			}
			g[i] = devGoal{on: rng.Intn(3) > 0, port: port, variant: variant, classify: rng.Intn(2) == 0}
		}
	}
	return g
}

// modelItem is one compiled item with its content description (spec)
// and, for a value-carrying classifier rule, the traffic class it claims.
type modelItem struct {
	item  msg.CommandItem
	text  string
	spec  string
	class string
}

func pipeSpec(req core.PipeRequest) string {
	return fmt.Sprintf("pipe %s>%s~%s", req.Upper, req.Lower, req.LowerPeer)
}

func ruleSpec(r core.SwitchRule, from, to, resolved string) string {
	return fmt.Sprintf("rule %s %s>%s %s bi=%v %s", r.Module, from, to, classifierKey(r.Match), r.Bidirectional, resolved)
}

// unionSpecs describes a device union's live components the way the
// model does.
func unionSpecs(du *deviceUnion) map[string][]string {
	end := func(lit core.PipeID, up *unionPipe) string {
		if up != nil {
			return "(" + pipeSpec(up.req) + ")"
		}
		return string(lit)
	}
	out := make(map[string][]string)
	for _, p := range du.pipes {
		out[pipeSpec(p.req)] = p.owners.items
	}
	for _, r := range du.rules {
		out[ruleSpec(r.rule, end(r.rule.From, r.fromPipe), end(r.rule.To, r.toPipe), r.matchResolved)] = r.owners.items
	}
	return out
}

// deviceItems compiles a goal on device i the way the compiler would:
// pipe ids are local to the script, and the trunk is named twice.
func deviceItems(i int, g devGoal) []modelItem {
	dev := modelDevices[i]
	eth, vlan := core.Ref(core.NameETH, dev, "e"), core.Ref(core.NameVLAN, dev, "v")
	ipm, gre := core.Ref(core.NameIPv4, dev, "g"), core.Ref(core.NameGRE, dev, "l")
	peer := modelDevices[1]
	if i == 1 {
		peer = modelDevices[2]
	}
	trunk := core.PipeRequest{Upper: eth, Lower: vlan, LowerPeer: core.Ref(core.NameVLAN, peer, "v")}
	reqs := map[core.PipeID]core.PipeRequest{}
	var out []modelItem
	pipe := func(id core.PipeID, req core.PipeRequest) {
		reqs[id] = req
		it, text := pipeItem(id, req)
		out = append(out, modelItem{item: it, text: text, spec: pipeSpec(req)})
	}
	end := func(id core.PipeID) string {
		if req, ok := reqs[id]; ok {
			return "(" + pipeSpec(req) + ")"
		}
		return string(id)
	}
	rule := func(r core.SwitchRule, resolved string) {
		it := msg.CommandItem{Switch: &msg.CreateSwitchReq{Rule: r, MatchResolved: resolved}}
		mi := modelItem{item: it, text: renderSwitchCreate(r), spec: ruleSpec(r, end(r.From), end(r.To), resolved)}
		if r.Match != nil && r.Match.Value != "" {
			mi.class = fmt.Sprintf("%s %s %s", r.Module, r.From, resolved)
		}
		out = append(out, mi)
	}
	port := core.PipeID(fmt.Sprintf("Phy-c%d", g.port))
	pipe("P0", trunk)
	rule(core.SwitchRule{Module: eth, From: port, To: "P0", Match: &core.Classifier{Kind: "tagged"}}, "")
	rule(core.SwitchRule{Module: vlan, From: "P0", To: "Phy-trunk", Bidirectional: true}, "")
	if g.classify {
		far := core.DeviceID(fmt.Sprintf("R%d", g.variant))
		pipe("P1", core.PipeRequest{Upper: ipm, Lower: gre, LowerPeer: core.Ref(core.NameGRE, far, "l")})
		rule(core.SwitchRule{
			Module: ipm, From: port, To: "P1",
			Match: &core.Classifier{Kind: "dst-domain", Value: fmt.Sprintf("D%d", g.port)},
		}, fmt.Sprintf("10.0.%d.0/24", g.port))
	}
	// The same trunk and trunk rule again under another local id: the
	// union must not count the intent twice.
	pipe("P2", trunk)
	rule(core.SwitchRule{Module: vlan, From: "P2", To: "Phy-trunk", Bidirectional: true}, "")
	return out
}

func goalItems(g modelGoal) [3][]modelItem {
	var out [3][]modelItem
	for i, dg := range g {
		if dg.on {
			out[i] = deviceItems(i, dg)
		}
	}
	return out
}

func goalScripts(g modelGoal) []DeviceScript {
	var scripts []DeviceScript
	for i, items := range goalItems(g) {
		if items == nil {
			continue
		}
		ds := DeviceScript{Device: modelDevices[i]}
		for _, mi := range items {
			ds.Items = append(ds.Items, mi.item)
			ds.Rendered = append(ds.Rendered, mi.text)
		}
		scripts = append(scripts, ds)
	}
	return scripts
}

// unionModel is the naive union: per device, each component's spec
// mapped to its owners in merge order, and the class of each classifier
// rule spec.
type unionModel struct {
	owners  [3]map[string][]string
	classes [3]map[string]string
}

func newUnionModel() *unionModel {
	m := &unionModel{}
	for i := range m.owners {
		m.owners[i], m.classes[i] = map[string][]string{}, map[string]string{}
	}
	return m
}

func without(list []string, name string) []string {
	out := list[:0:0]
	for _, s := range list {
		if s != name {
			out = append(out, s)
		}
	}
	return out
}

func (m *unionModel) remove(name string) {
	for i := range m.owners {
		for spec, owners := range m.owners[i] {
			if owners = without(owners, name); len(owners) == 0 {
				delete(m.owners[i], spec)
			} else {
				m.owners[i][spec] = owners
			}
		}
	}
}

// merge re-merges name with goal g and reports whether it conflicts; a
// conflicting intent owns nothing afterwards.
func (m *unionModel) merge(name string, g modelGoal) (conflict bool) {
	m.remove(name)
	for i, items := range goalItems(g) {
		for _, mi := range items {
			owners := m.owners[i][mi.spec]
			if len(owners) == 0 && mi.class != "" {
				for spec, class := range m.classes[i] {
					if class == mi.class && spec != mi.spec && len(m.owners[i][spec]) > 0 {
						m.remove(name)
						return true
					}
				}
				m.classes[i][mi.spec] = mi.class
			}
			if len(owners) == 0 || owners[len(owners)-1] != name {
				m.owners[i][mi.spec] = append(owners, name)
			}
		}
	}
	return false
}

// tallies counts, per intent, the components it owns alone and those it
// shares, and the number of shared components.
func (m *unionModel) tallies() (excl, shared map[string]int, nShared int) {
	excl, shared = map[string]int{}, map[string]int{}
	for i := range m.owners {
		for _, owners := range m.owners[i] {
			if len(owners) == 1 {
				excl[owners[0]]++
				continue
			}
			nShared++
			for _, o := range owners {
				shared[o]++
			}
		}
	}
	return excl, shared, nShared
}

// fakeDevice is a device's installed state, and the delta union's cached
// observation of it (kept current by write-through only).
type fakeDevice struct {
	dev      core.DeviceID
	pipes    map[core.PipeID]obsPipe
	rules    map[string]obsRule
	nextRule int
	cache    *observed
	synced   bool
}

// observe is a fresh showActual of the device.
func (fd *fakeDevice) observe() *observed {
	ids := make([]string, 0, len(fd.rules))
	for id := range fd.rules {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var rules []obsRule
	for _, id := range ids {
		rules = append(rules, fd.rules[id])
	}
	return newObserved(maps.Clone(fd.pipes), rules)
}

// apply executes a one-device plan and writes it through du and the
// cache the way Apply does.
func (fd *fakeDevice) apply(t *testing.T, du *deviceUnion, plan *Plan) {
	t.Helper()
	for _, ds := range plan.Deletes {
		for _, item := range ds.Items {
			if item.Delete.Req.Kind == core.ComponentPipe {
				delete(fd.pipes, core.PipeID(item.Delete.Req.ID))
			} else {
				delete(fd.rules, item.Delete.Req.ID)
			}
		}
		fd.cache.forgetDeleted(ds.Items)
		du.pendingDelRules, du.pendingDelPipes = nil, nil
	}
	for _, ds := range plan.Creates {
		results := make([]msg.CommandItemResult, len(ds.Items))
		for i, item := range ds.Items {
			if p := item.Pipe; p != nil {
				fd.pipes[p.ID] = obsPipe{upper: p.Req.Upper, lower: p.Req.Lower, upperPeer: p.Req.UpperPeer, lowerPeer: p.Req.LowerPeer}
				results[i].PipeID = p.ID
				continue
			}
			fd.nextRule++
			id, s := fmt.Sprintf("r%d", fd.nextRule), item.Switch
			fd.rules[id] = obsRule{
				id: id, module: s.Rule.Module, from: s.Rule.From, to: s.Rule.To,
				match: classifierKey(s.Rule.Match), via: s.Rule.Via,
				matchResolved: s.MatchResolved, viaResolved: s.ViaResolved,
			}
			results[i].RuleID = id
		}
		if du.bindCreated(fd.cache, plan, results) {
			t.Fatalf("%s: the device's create results invalidated the cache", fd.dev)
		}
	}
}

// sameState fails unless the cache describes exactly the installed state.
func (fd *fakeDevice) sameState(t *testing.T, tag string) {
	t.Helper()
	if !maps.Equal(fd.cache.pipes, fd.pipes) {
		t.Fatalf("%s: cached pipes %v, device has %v", tag, fd.cache.pipes, fd.pipes)
	}
	live := 0
	for _, or := range fd.cache.rules {
		if or.id == "" {
			continue
		}
		live++
		if want, ok := fd.rules[or.id]; !ok || want.key() != or.key() {
			t.Fatalf("%s: cached rule %s (%s) is not installed as such", tag, or.id, or.key())
		}
	}
	if live != len(fd.rules) {
		t.Fatalf("%s: %d cached rules, device has %d", tag, live, len(fd.rules))
	}
}

func planText(plan *Plan) string {
	var lines []string
	for _, scripts := range [][]DeviceScript{plan.Deletes, plan.Creates} {
		for _, ds := range scripts {
			for _, r := range ds.Rendered {
				lines = append(lines, string(ds.Device)+": "+r)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
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

// TestUnionAgainstModel drives the store state the way reconcile passes
// do — first merges, re-merges (update), withdrawals, conflicting merges
// that leave the intent owning nothing, and an older intent whose first
// merge comes after a newer one's — and holds it to the model after every
// step. Views must be in registration order, owner lists in merge order
// (merge's last-owner test relies on removeContribs having run), and
// nothing is ever renumbered. Views captured as a Plan captures them must
// not change under later steps. Every checkpoint also holds the delta
// diff to a rematch of a union rebuilt from empty. Each seed is a
// subtest: seeds 5 and 7 once caught fresh pipes numbered in the order
// merge history left the items in rather than the rebuild's.
func TestUnionAgainstModel(t *testing.T) {
	for _, seed := range []int64{31, 1, 2, 3, 4, 5, 6, 7, 8} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			unionAgainstModel(t, seed)
		})
	}
}

func unionAgainstModel(t *testing.T, seed int64) {
	const names, steps, every = 24, 2400, 40
	rng := rand.New(rand.NewSource(seed))
	ss, m := newStoreState(), newUnionModel()
	var fakes [3]*fakeDevice
	for i, dev := range modelDevices {
		fakes[i] = &fakeDevice{dev: dev, pipes: map[core.PipeID]obsPipe{}, rules: map[string]obsRule{}}
	}
	var nextReg uint64
	regSeq := map[string]uint64{}    // registered name -> registration number
	goals := map[string]modelGoal{}  // merged name -> goal
	var mergeOrder, pending []string // names by latest merge; registered but unmerged
	lateFirstMerges, conflicts, checkpoints, compactions := 0, 0, 0, 0
	var deadBefore [3]int // tombstones per device after the last step
	// Views captured as a Plan captures them, with what they showed
	// then: later steps must leave every one of them as it was.
	type capture struct {
		views []*IntentView
		text  string
	}
	var captures []capture
	captureRng := rand.New(rand.NewSource(37)) // apart, so the steps stay as seeded
	viewsText := func(views []*IntentView) string {
		var b strings.Builder
		for _, v := range views {
			fmt.Fprintf(&b, "%s %d+%d; ", v.Intent.Name, v.Exclusive, v.Shared)
		}
		return b.String()
	}

	merge := func(name string, g modelGoal) {
		if k := len(ss.views.seqs); k > 0 && regSeq[name] < ss.views.seqs[k-1] {
			if _, has := ss.viewIdx[name]; !has {
				lateFirstMerges++
			}
		}
		ss.removeContribs(name)
		ss.contribs[name] = &intentContrib{}
		ss.setView(regSeq[name], IntentView{Intent: Intent{Name: name}})
		conflict := m.merge(name, g)
		err := ss.merge(name, goalScripts(g))
		var ce *ConflictError
		if conflict != errors.As(err, &ce) {
			t.Fatalf("merge of %s: model conflict %v, union error %v", name, conflict, err)
		}
		mergeOrder, pending = without(mergeOrder, name), without(pending, name)
		if conflict {
			conflicts++
			delete(ss.contribs, name)
			ss.removeView(name)
			delete(goals, name)
			pending = append(pending, name)
			return
		}
		goals[name] = g
		mergeOrder = append(mergeOrder, name)
	}

	check := func(step int) {
		for i, dev := range modelDevices {
			du := ss.unions[dev]
			if du == nil {
				if len(m.owners[i]) > 0 {
					t.Fatalf("step %d: %s has no union, model %v", step, dev, m.owners[i])
				}
				continue
			}
			got := unionSpecs(du)
			if len(got) != len(m.owners[i]) || du.live != len(got) {
				t.Fatalf("step %d: %s: union has %d components (live %d), model %d:\n%v\n--- model ---\n%v",
					step, dev, len(got), du.live, len(m.owners[i]), got, m.owners[i])
			}
			for spec, owners := range m.owners[i] {
				if strings.Join(got[spec], ",") != strings.Join(owners, ",") {
					t.Fatalf("step %d: %s: %s owned by %v, want merge order %v", step, dev, spec, got[spec], owners)
				}
			}
			live := 0
			for _, it := range du.items {
				if !it.isGone() {
					live++
				}
				if it.pipe != nil {
					checkSeqList(t, "pipe owners", it.pipe.owners)
				} else {
					checkSeqList(t, "rule owners", it.rule.owners)
				}
			}
			if live != du.live {
				t.Fatalf("step %d: %s: %d live items, live count %d", step, dev, live, du.live)
			}
			if du.dead < deadBefore[i] {
				compactions++
			}
			deadBefore[i] = du.dead
		}
		excl, shared, nShared := m.tallies()
		if ss.shared != nShared {
			t.Fatalf("step %d: %d shared components, model %d", step, ss.shared, nShared)
		}
		for _, c := range captures {
			if got := viewsText(c.views); got != c.text {
				t.Fatalf("step %d: a captured views slice changed:\n%s\nwas\n%s", step, got, c.text)
			}
			// A caller's append must not land in the store's slots.
			_ = append(c.views, &IntentView{Intent: Intent{Name: "appended"}})
		}
		checkSeqList(t, "views", ss.views)
		if len(ss.views.items) != len(goals) {
			t.Fatalf("step %d: %d views for %d merged intents", step, len(ss.views.items), len(goals))
		}
		for i, v := range ss.views.items {
			name := v.Intent.Name
			if ss.views.seqs[i] != regSeq[name] || ss.viewIdx[name] != regSeq[name] {
				t.Fatalf("step %d: view %d (%s) sits at number %d, registered as %d", step, i, name, ss.views.seqs[i], regSeq[name])
			}
			if v.Exclusive != excl[name] || v.Shared != shared[name] {
				t.Fatalf("step %d: view %s tallies %d exclusive + %d shared, model %d + %d",
					step, name, v.Exclusive, v.Shared, excl[name], shared[name])
			}
		}
	}

	checkpoint := func(step int) {
		checkpoints++
		if rng.Intn(2) == 0 {
			// A dropped dry run first: the delta plan below re-emits work
			// it already handed wire ids to.
			for i, fd := range fakes {
				if du := ss.unions[modelDevices[i]]; du != nil && fd.cache != nil {
					du.diff(fd.cache, &Plan{}, !fd.synced)
					fd.synced = true
				}
			}
		}
		rebuilt := newStoreState()
		for _, name := range mergeOrder {
			if err := rebuilt.merge(name, goalScripts(goals[name])); err != nil {
				t.Fatalf("step %d: rebuild: %v", step, err)
			}
		}
		for i, dev := range modelDevices {
			du, fd := ss.unions[dev], fakes[i]
			if du == nil {
				continue
			}
			tag := fmt.Sprintf("step %d %s", step, dev)
			if fd.cache == nil {
				fd.cache = fd.observe()
			}
			delta := &Plan{}
			du.diff(fd.cache, delta, !fd.synced)
			fd.synced = true
			rdu := rebuilt.unions[dev]
			if rdu == nil {
				rdu = &deviceUnion{dev: dev}
			}
			full := &Plan{}
			rdu.diff(fd.observe(), full, true)
			if got, want := planText(full), planText(delta); got != want || full.InPlace != delta.InPlace {
				t.Fatalf("%s: rebuilt rematch (%d in place) differs from the delta plan (%d in place):\n--- delta ---\n%s\n--- rebuilt ---\n%s",
					tag, full.InPlace, delta.InPlace, want, got)
			}
			fd.apply(t, du, delta)
			fd.sameState(t, tag)
			// Applied and written through: a rematch against the cache
			// finds everything in place. It also forgets the handed-out
			// ids, as Apply's next full pass would.
			nc, _ := batchCounts(delta.Creates, nil)
			again := &Plan{}
			du.diff(fd.cache, again, true)
			if !again.Empty() || again.InPlace != delta.InPlace+nc {
				t.Fatalf("%s: rematch after apply: %d in place, want %d, and no commands:\n%s",
					tag, again.InPlace, delta.InPlace+nc, again.Render())
			}
		}
	}

	for step := 0; step < steps; step++ {
		name := fmt.Sprintf("vpn-%d", rng.Intn(names))
		_, registered := regSeq[name]
		switch r := rng.Intn(10); {
		case !registered:
			nextReg++
			regSeq[name] = nextReg
			if r < 2 {
				// Its compile fails for now: registered, merged later —
				// after intents registered after it.
				pending = append(pending, name)
			} else {
				merge(name, randomGoal(rng))
			}
		case r < 4:
			merge(name, randomGoal(rng)) // update, or the late first merge
		case r < 7:
			ss.removeContribs(name)
			delete(ss.contribs, name)
			ss.removeView(name)
			m.remove(name)
			delete(regSeq, name)
			delete(goals, name)
			mergeOrder, pending = without(mergeOrder, name), without(pending, name)
		}
		check(step)
		if captureRng.Intn(3) == 0 {
			views := ss.captureViews()
			captures = append(captures, capture{views, viewsText(views)})
			if len(captures) > 8 {
				captures = captures[1:]
			}
		}
		if step%every == every-1 {
			checkpoint(step)
		}
	}
	if lateFirstMerges == 0 {
		t.Error("no older intent ever first merged after a newer one: the sorted insert went untested")
	}
	if conflicts == 0 || compactions == 0 {
		t.Errorf("%d conflicting merges and %d compactions: the error path or compaction went untested", conflicts, compactions)
	}
	t.Logf("%d steps, %d checkpoints, %d conflicting merges, %d late first merges", steps, checkpoints, conflicts, lateFirstMerges)
}

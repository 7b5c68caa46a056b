package nm

// The incremental store engine (ROADMAP: persistent, incremental intent
// datastore). storeState lives across reconcile passes, guarded by
// NM.planMu: the merged per-device unions, each intent's contribution
// refs into them, per-intent sharing views, and the observed-state
// cache. A pass only pays for what changed — dirty intents recompile,
// devices whose observation generation moved re-observe, and devices
// with a valid, fully bound cache entry diff in O(pending work) or are
// skipped outright. There is one diff (deviceUnion.diff below): a
// rematch is the same pass over pending work, run from empty.

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"conman/internal/core"
	"conman/internal/msg"
	"conman/internal/nm/datastore"
)

// obsEntry is one device's cached observation, tagged with the
// generation it was fetched at. The entry is *valid* while the device's
// observation generation still equals gen (no event since the fetch)
// and *synced* once a rematch has bound the union against it — only
// then can a later pass trust the recorded bindings and diff just the
// pending work.
type obsEntry struct {
	gen    uint64
	o      *observed
	synced bool
}

// intentContrib is one registered intent's share of the union: the path
// it compiled to, the devices it occupies, and a ref per union
// component it co-owns (so Withdraw/Update removes exactly this share).
type intentContrib struct {
	path    *Path
	devices []core.DeviceID
	refs    []contribRef
}

type contribRef struct {
	du *deviceUnion
	it unionItem
	// seq is the intent's number in the component's owner list.
	seq uint64
}

// seqList keeps items in the order of the strictly increasing sequence
// numbers they were added under — registration order for the store's
// intents and views, merge order for a component's owners — so a
// membership change renumbers nothing: an item is found and removed by
// binary search on its number, O(log k) plus one copy.
type seqList[T any] struct {
	seqs  []uint64
	items []T
	next  uint64
}

// push appends v under the list's own next number and returns it.
func (l *seqList[T]) push(v T) uint64 {
	l.next++
	l.put(l.next, v)
	return l.next
}

// put inserts v at the sorted position of a number the caller owns: the
// end, unless an older intent first merges after a newer one.
func (l *seqList[T]) put(seq uint64, v T) {
	i, dup := slices.BinarySearch(l.seqs, seq)
	if dup {
		panic(fmt.Sprintf("nm: sequence number %d used twice", seq))
	}
	l.seqs, l.items = slices.Insert(l.seqs, i, seq), slices.Insert(l.items, i, v)
}

func (l *seqList[T]) remove(seq uint64) bool {
	i, ok := slices.BinarySearch(l.seqs, seq)
	if ok {
		l.seqs, l.items = slices.Delete(l.seqs, i, i+1), slices.Delete(l.items, i, i+1)
	}
	return ok
}

// storeState is the incremental heart of the intent store.
type storeState struct {
	unions map[core.DeviceID]*deviceUnion
	order  []core.DeviceID
	// contribs tracks each registered intent's union share.
	contribs map[string]*intentContrib
	// views/viewIdx are the per-intent sharing summaries, maintained on
	// ownership transitions instead of a full-store tally per pass, in
	// registration order: viewIdx holds each view's number in views.
	// Every Plan captures views.items as-is (copying 10k views per
	// pass would defeat O(changed)), so it is copy-on-write: once
	// viewsShared is set, mutators clone the slice — and bumpView the
	// element — before writing, leaving captured snapshots untouched.
	views       seqList[*IntentView]
	viewIdx     map[string]uint64
	viewsShared bool
	// shared counts distinct components with more than one owner.
	shared int
	// compiledGen is the NM compileGen the unions were built against; a
	// mismatch forces a full rebuild (topology, module discovery or
	// domain changes can re-route any intent).
	compiledGen uint64
	// cache holds the per-device observations.
	cache map[core.DeviceID]*obsEntry
	// recordedCount counts, per device, how many committed intent
	// records occupy it (the incremental form of scanning intentDevs for
	// stranded devices).
	recordedCount map[core.DeviceID]int
	// removedIntents / recordsDirty stage occupancy-record changes for
	// the next successful Apply commit.
	removedIntents map[string]bool
	recordsDirty   map[string]bool
	// passSeq ties plans to the state generation they were computed
	// from; an Apply of a superseded plan is refused.
	passSeq uint64
}

func newStoreState() *storeState {
	return &storeState{
		unions:         make(map[core.DeviceID]*deviceUnion),
		contribs:       make(map[string]*intentContrib),
		viewIdx:        make(map[string]uint64),
		cache:          make(map[core.DeviceID]*obsEntry),
		recordedCount:  make(map[core.DeviceID]int),
		removedIntents: make(map[string]bool),
		recordsDirty:   make(map[string]bool),
	}
}

// reset discards the unions and views (compile inputs changed; every
// intent re-merges from scratch) while keeping the observation cache
// and record counts: cached device state is still real state, so the
// rebuild can rematch against it without a single showActual. Pending
// per-device work (newItems, queued deletes) is discarded with the
// unions — the rematch re-derives it from the union-vs-cache diff.
func (ss *storeState) reset() {
	ss.unions = make(map[core.DeviceID]*deviceUnion)
	ss.order = nil
	ss.contribs = make(map[string]*intentContrib)
	ss.views = seqList[*IntentView]{}
	ss.viewIdx = make(map[string]uint64)
	ss.viewsShared = false
	ss.shared = 0
	for _, ce := range ss.cache {
		ce.synced = false
	}
}

// ---------------------------------------------------------------------------
// Ownership accounting

// ownerAdded updates the sharing tallies after name (the last element)
// joined a component's owner list.
func (ss *storeState) ownerAdded(owners []string) {
	switch len(owners) {
	case 1:
		ss.bumpView(owners[0], 1, 0)
	case 2:
		// The component just became shared: it leaves the first owner's
		// exclusive tally and enters both owners' shared ones.
		ss.shared++
		ss.bumpView(owners[0], -1, 1)
		ss.bumpView(owners[1], 0, 1)
	default:
		ss.bumpView(owners[len(owners)-1], 0, 1)
	}
}

// unshared moves a component back into its now-sole owner's exclusive
// tally.
func (ss *storeState) unshared(owner string) {
	ss.shared--
	ss.bumpView(owner, 1, -1)
}

func (ss *storeState) bumpView(name string, dExclusive, dShared int) {
	if seq, ok := ss.viewIdx[name]; ok {
		ss.ownViews()
		i, _ := slices.BinarySearch(ss.views.seqs, seq)
		// Clone the element too: a snapshot captured last pass still
		// points at the old struct.
		v := *ss.views.items[i]
		v.Exclusive += dExclusive
		v.Shared += dShared
		ss.views.items[i] = &v
	}
}

// ownViews makes the views slice writable, cloning it if a Plan
// snapshot captured it. The clone copies pointers only; elements are
// cloned individually by their mutators.
func (ss *storeState) ownViews() {
	if !ss.viewsShared {
		return
	}
	ss.views.items = append([]*IntentView(nil), ss.views.items...)
	ss.viewsShared = false
}

// setView installs (or replaces) an intent's view under its registration
// number seq with zeroed sharing counts; the subsequent merge
// re-accumulates them.
func (ss *storeState) setView(seq uint64, v IntentView) {
	ss.removeView(v.Intent.Name)
	ss.ownViews()
	ss.viewIdx[v.Intent.Name] = seq
	ss.views.put(seq, &v)
}

func (ss *storeState) removeView(name string) {
	if seq, ok := ss.viewIdx[name]; ok {
		ss.ownViews()
		ss.views.remove(seq)
		delete(ss.viewIdx, name)
	}
}

// removeContribs drops one intent's share of every union component it
// contributed to. Components whose last owner leaves are tombstoned;
// ones bound to installed device state queue their deletion for the
// next pass (no observation sweep — the binding already knows the
// installed ids). The departing intent's own view is left to the caller
// (deleted on withdraw, replaced on update).
func (ss *storeState) removeContribs(name string) {
	contrib := ss.contribs[name]
	if contrib == nil {
		return
	}
	for _, ref := range contrib.refs {
		du := ref.du
		switch {
		case ref.it.pipe != nil:
			p := ref.it.pipe
			if !p.owners.remove(ref.seq) {
				continue
			}
			switch len(p.owners.items) {
			case 0:
				du.killPipe(p)
			case 1:
				ss.unshared(p.owners.items[0])
			}
		case ref.it.rule != nil:
			r := ref.it.rule
			if !r.owners.remove(ref.seq) {
				continue
			}
			switch len(r.owners.items) {
			case 0:
				du.killRule(r)
			case 1:
				ss.unshared(r.owners.items[0])
			}
		case ref.it.other != nil:
			du.killOther(ref.it.other)
		}
		du.maybeCompact()
	}
	contrib.refs = nil
}

// ---------------------------------------------------------------------------
// Union component lifecycle (kill + compaction + conflict classes)

func (du *deviceUnion) killPipe(p *unionPipe) {
	p.gone = true
	delete(du.pipes, p.key)
	du.live--
	du.dead++
	if p.inPlace {
		p.inPlace = false
		du.bound--
		du.pendingDelPipes = append(du.pendingDelPipes, core.DeleteRequest{
			Kind: core.ComponentPipe, Module: p.req.Lower, ID: string(p.id),
		})
	}
}

func (du *deviceUnion) killRule(r *unionRule) {
	r.gone = true
	delete(du.rules, r.key)
	du.classRemove(r)
	du.live--
	du.dead++
	if r.kept {
		r.kept = false
		du.bound--
		du.pendingDelRules = append(du.pendingDelRules, core.DeleteRequest{
			Kind: core.ComponentSwitchRule, Module: r.rule.Module, ID: r.boundID,
		})
		r.boundID = ""
	}
}

func (du *deviceUnion) killOther(o *unionOther) {
	o.gone = true
	du.live--
	du.dead++
}

// maybeCompact drops tombstoned items once they outnumber the live ones
// (amortised O(1) per kill), so long-lived unions do not accrete every
// component ever withdrawn.
func (du *deviceUnion) maybeCompact() {
	if du.dead <= 16 || du.dead <= du.live {
		return
	}
	keepItems := du.items[:0]
	for _, it := range du.items {
		if !it.isGone() {
			keepItems = append(keepItems, it)
		}
	}
	du.items = keepItems
	keepNew := du.newItems[:0]
	for _, it := range du.newItems {
		if !it.isGone() {
			keepNew = append(keepNew, it)
		}
	}
	du.newItems = keepNew
	du.dead = 0
}

// pipeIdent is the structural identity of a rule's pipe reference: two
// intents compile the same pipe under different local ids, so NM-created
// pipes compare by content, physical references by literal id.
func pipeIdent(lit core.PipeID, up *unionPipe) string {
	if up != nil {
		return "pipe:" + pipeKey(up.req)
	}
	return string(lit)
}

// describeTarget renders a rule target for a conflict message: the
// pipe's structural endpoints rather than a compile-local id.
func describeTarget(lit core.PipeID, up *unionPipe, via string) string {
	out := string(lit)
	if up != nil {
		out = fmt.Sprintf("the %s~%s pipe", up.req.Upper, up.req.Lower)
	}
	if i := strings.IndexByte(via, '/'); i > 0 {
		out += " via " + via[:i]
	}
	return out
}

// ruleClassKey identifies the traffic a value-carrying classifier rule
// claims: module, entry pipe (structural), classifier and resolution.
// Rules sharing it must agree on the target or they conflict.
func ruleClassKey(r *unionRule) string {
	return r.rule.Module.String() + "|" + pipeIdent(r.rule.From, r.fromPipe) + "|" +
		classifierKey(r.rule.Match) + "|" + r.matchResolved
}

// classAdd indexes a new value-carrying classifier rule and reports a
// typed conflict if an existing rule claims the same traffic for a
// different target; detection happens as each intent merges. Only
// value-carrying classifiers are exclusive: dst-domain routes a prefix
// exactly one way, so divergent targets clash. Valueless classifiers
// ("Tagged") select a traffic class that L2 delivery further
// discriminates — the multi-tenant edge legitimately fans one trunk out
// to several customer ports. Rules that unified into one union entry are
// by construction conflict-free.
func (du *deviceUnion) classAdd(r *unionRule, owner string) error {
	if r.rule.Match == nil || r.rule.Match.Value == "" {
		return nil
	}
	if du.classes == nil {
		du.classes = make(map[string][]*unionRule)
	}
	key := ruleClassKey(r)
	to, via := pipeIdent(r.rule.To, r.toPipe), r.rule.Via+"/"+r.viaResolved
	for _, prev := range du.classes[key] {
		if prev.gone {
			continue
		}
		prevVia := prev.rule.Via + "/" + prev.viaResolved
		if pipeIdent(prev.rule.To, prev.toPipe) != to || prevVia != via {
			return &ConflictError{
				Device: du.dev, Module: r.rule.Module,
				IntentA: prev.owners.items[0], IntentB: owner,
				RuleA: prev.rule, RuleB: r.rule,
				TargetA: describeTarget(prev.rule.To, prev.toPipe, prevVia),
				TargetB: describeTarget(r.rule.To, r.toPipe, via),
			}
		}
	}
	du.classes[key] = append(du.classes[key], r)
	return nil
}

func (du *deviceUnion) classRemove(r *unionRule) {
	if du.classes == nil || r.rule.Match == nil || r.rule.Match.Value == "" {
		return
	}
	key := ruleClassKey(r)
	list := du.classes[key]
	for i, e := range list {
		if e == r {
			du.classes[key] = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(du.classes[key]) == 0 {
		delete(du.classes, key)
	}
}

// ---------------------------------------------------------------------------
// Observation-cache binding indexes

// ensureIndex lazily builds the binding indexes a bare observed (as
// tests construct it, or as observe() returns it) does not carry.
func (o *observed) ensureIndex() {
	if o.claimed == nil {
		o.claimed = make(map[core.PipeID]bool)
	}
	if o.usedIDs == nil {
		o.usedIDs = make(map[core.PipeID]bool)
	}
	if o.ruleIdx == nil {
		o.rebuildRuleIndex()
	}
}

func (o *observed) rebuildRuleIndex() {
	o.ruleIdx = make(map[string][]int, len(o.rules))
	o.ruleByID = make(map[string]int, len(o.rules))
	for j := range o.rules {
		or := &o.rules[j]
		if or.id == "" { // tombstone
			continue
		}
		o.ruleIdx[or.key()] = append(o.ruleIdx[or.key()], j)
		o.ruleByID[or.id] = j
	}
}

// key is the binding identity of an installed rule — exactly the fields
// the diff compares when deciding whether a desired rule is kept.
func (or *obsRule) key() string {
	return or.module.String() + "|" + string(or.from) + "|" + string(or.to) + "|" +
		or.match + "|" + or.via + "|" + or.matchResolved + "|" + or.viaResolved
}

// desiredRuleKey is the same identity computed from a desired rule's
// resolved form.
func desiredRuleKey(rr core.SwitchRule, matchResolved, viaResolved string) string {
	return rr.Module.String() + "|" + string(rr.From) + "|" + string(rr.To) + "|" +
		classifierKey(rr.Match) + "|" + rr.Via + "|" + matchResolved + "|" + viaResolved
}

// addRule write-through-appends a just-installed rule.
func (o *observed) addRule(or obsRule) {
	j := len(o.rules)
	o.rules = append(o.rules, or)
	o.ruleIdx[or.key()] = append(o.ruleIdx[or.key()], j)
	o.ruleByID[or.id] = j
}

// tombstoneRule write-through-removes a just-deleted rule.
func (o *observed) tombstoneRule(id string) {
	j, ok := o.ruleByID[id]
	if !ok {
		return
	}
	or := &o.rules[j]
	key := or.key()
	idx := o.ruleIdx[key]
	for k, v := range idx {
		if v == j {
			o.ruleIdx[key] = append(idx[:k], idx[k+1:]...)
			break
		}
	}
	if len(o.ruleIdx[key]) == 0 {
		delete(o.ruleIdx, key)
	}
	delete(o.ruleByID, id)
	or.id = ""
}

// compactRules drops tombstones before a rematch.
func (o *observed) compactRules() {
	dead := false
	for j := range o.rules {
		if o.rules[j].id == "" {
			dead = true
			break
		}
	}
	if !dead {
		return
	}
	keep := o.rules[:0]
	for _, or := range o.rules {
		if or.id != "" {
			keep = append(keep, or)
		}
	}
	o.rules = keep
	o.rebuildRuleIndex()
}

// matchUnclaimed finds the lowest-id unclaimed observed pipe matching a
// desired request.
func (o *observed) matchUnclaimed(req core.PipeRequest) (best core.PipeID, found bool) {
	for id, op := range o.pipes {
		if !o.claimed[id] && (!found || id < best) && op.matches(req) {
			best, found = id, true
		}
	}
	return best, found
}

// allocPipeID allocates the lowest wire id that is neither observed on
// the device nor handed out since the last rematch. A pipe this pass
// deletes is still observed until Apply writes the deletion
// through, so a delete and a create of the same shape in one pass cannot
// collide; the rematch forgets the handed-out ids (forgetBindings), so
// it numbers missing pipes the same whether or not dry runs preceded it.
func (o *observed) allocPipeID() core.PipeID {
	for next := 0; ; next++ {
		cand := core.PipeID(fmt.Sprintf("P%d", next))
		if o.usedIDs[cand] {
			continue
		}
		if _, exists := o.pipes[cand]; exists {
			continue
		}
		o.usedIDs[cand] = true
		return cand
	}
}

// ---------------------------------------------------------------------------
// The diff

// adoptPendingPipe cancels a queued pipe deletion whose installed pipe
// matches a re-merged desired pipe (the update/resubmit path), so an
// unchanged component is re-adopted instead of churned.
func (du *deviceUnion) adoptPendingPipe(o *observed, req core.PipeRequest) (core.PipeID, bool) {
	for i, dr := range du.pendingDelPipes {
		id := core.PipeID(dr.ID)
		op, ok := o.pipes[id]
		if !ok || !op.matches(req) {
			continue
		}
		du.pendingDelPipes = append(du.pendingDelPipes[:i], du.pendingDelPipes[i+1:]...)
		return id, true
	}
	return "", false
}

// bindRule finds an installed rule with the desired rule's binding
// identity that nothing else holds: an unused observed one, else one
// whose deletion is queued (the update/resubmit path: the deletion is
// cancelled and the unchanged rule re-adopted instead of churned). The
// identity carries module, endpoints, classifier and the concrete
// resolutions, so resolved-value drift (SetDomain / SetGateway changed
// since install) simply fails to match and the rule is replaced. A
// non-zero provider is the module below the To pipe whose exported
// fields the rule embeds.
func (du *deviceUnion) bindRule(n *NM, o *observed, key string, provider core.ModuleRef, to core.PipeID) (string, bool) {
	// Stale embedded handle (§II-E): the provider regenerated its exported
	// fields since the rule was installed (e.g. an NHLFE renumbered by
	// pipe churn), so the installed rule's embedded copy points at dead
	// state even though its abstract and resolved forms still match —
	// replace it.
	fresh := func(or *obsRule) bool {
		return provider.IsZero() || n.handleFresh(provider, to, or.handle)
	}
	for _, j := range o.ruleIdx[key] {
		if or := &o.rules[j]; !or.used && or.id != "" && fresh(or) {
			or.used = true
			return or.id, true
		}
	}
	for i, dr := range du.pendingDelRules {
		j, ok := o.ruleByID[dr.ID]
		if !ok {
			continue
		}
		if or := &o.rules[j]; or.key() == key && fresh(or) {
			du.pendingDelRules = append(du.pendingDelRules[:i], du.pendingDelRules[i+1:]...)
			or.used = true
			return or.id, true
		}
	}
	return "", false
}

func pipesReady(r *unionRule) bool {
	return (r.fromPipe == nil || r.fromPipe.inPlace) && (r.toPipe == nil || r.toPipe.inPlace)
}

// diff reconciles one device's union against its observed state,
// appending delete/create batches to the plan. There is one matcher,
// bindPending, and it only ever looks at pending work: on a device whose
// cached observation is valid and already bound (synced) that is the
// newly merged components and the queued deletions of withdrawn ones, so
// the cost is O(pending), independent of union and store size — the
// incremental store's fast path. A rematch (the observation is fresh, or
// the unions were rebuilt, or the caller holds a scratch union) is the
// same pass run from empty: forgetBindings makes every live component
// pending, and whatever observed state nobody claimed afterwards is stale
// and queued for deletion too. Either way newItems and pendingDel* hold
// exactly the emitted work on return, so a plan that is never applied
// re-emits it next pass.
func (du *deviceUnion) diff(n *NM, o *observed, plan *Plan, rematch bool) {
	o.ensureIndex()
	if rematch {
		du.forgetBindings(o)
	}
	du.bindPending(n, o, plan)
	if rematch {
		du.queueUnclaimed(o)
	}
	// Deletes after adoption so cancelled ones never hit the wire; the
	// executor still runs all Deletes before any Creates.
	if len(du.pendingDelRules)+len(du.pendingDelPipes) > 0 {
		del := DeviceScript{Device: du.dev}
		for _, reqs := range [][]core.DeleteRequest{du.pendingDelRules, du.pendingDelPipes} {
			for _, req := range reqs {
				di, rendered := deleteItem(req)
				del.Items = append(del.Items, di)
				del.Rendered = append(del.Rendered, rendered)
			}
		}
		plan.Deletes = append(plan.Deletes, del)
	}
}

// forgetBindings resets the device to "nothing matched yet": no observed
// pipe or rule is claimed, no wire id has been handed out, no deletion is
// queued, and every live desired component is pending again, in
// first-appearance order.
func (du *deviceUnion) forgetBindings(o *observed) {
	o.compactRules()
	o.claimed = make(map[core.PipeID]bool)
	o.usedIDs = make(map[core.PipeID]bool)
	for j := range o.rules {
		o.rules[j].used = false
	}
	du.bound = 0
	du.pendingDelRules, du.pendingDelPipes = nil, nil
	du.newItems = du.newItems[:0]
	for _, it := range du.items {
		switch {
		case it.isGone():
			continue
		case it.pipe != nil:
			it.pipe.inPlace, it.pipe.id = false, ""
		case it.rule != nil:
			it.rule.kept, it.rule.boundID = false, ""
		}
		du.newItems = append(du.newItems, it)
	}
}

// queueUnclaimed queues the deletion of every observed rule no desired
// rule kept, then every observed pipe no desired pipe claimed (rules
// before the pipes they reference). Queued state counts as spoken for,
// like the bound components killRule/killPipe queue: only bindRule /
// adoptPendingPipe, which cancel the deletion, can hand it out again.
func (du *deviceUnion) queueUnclaimed(o *observed) {
	for j := range o.rules {
		if or := &o.rules[j]; !or.used && or.id != "" {
			or.used = true
			du.pendingDelRules = append(du.pendingDelRules, core.DeleteRequest{
				Kind: core.ComponentSwitchRule, Module: or.module, ID: or.id,
			})
		}
	}
	for _, id := range sortedKeys(o.pipes) {
		if op := o.pipes[id]; !o.claimed[id] && !op.lower.IsZero() {
			o.claimed[id] = true
			du.pendingDelPipes = append(du.pendingDelPipes, core.DeleteRequest{
				Kind: core.ComponentPipe, Module: op.lower, ID: string(id),
			})
		}
	}
}

// bindPending resolves each pending component: a pipe binds to an
// observed pipe of the same content, adopting its wire id so surviving
// configuration is untouched; a rule binds to an identical installed rule
// once every NM-created pipe it references is in place (a rule on a
// freshly created pipe resolves to a fresh id no installed rule can
// match). What cannot bind gets a create command, in first-appearance
// order across the intents, and stays pending until Apply binds it
// to what the device reports.
func (du *deviceUnion) bindPending(n *NM, o *observed, plan *Plan) {
	// Everything bound before this pass is in place by definition.
	plan.InPlace += du.bound
	creates := DeviceScript{Device: du.dev}
	var binds []bindTarget
	keep := du.newItems[:0]
	for _, it := range du.newItems {
		switch {
		case it.pipe != nil && !it.pipe.gone:
			p := it.pipe
			if p.inPlace {
				continue
			}
			id, ok := du.adoptPendingPipe(o, p.req)
			if !ok {
				id, ok = o.matchUnclaimed(p.req)
			}
			if ok {
				p.id, p.inPlace, o.claimed[id] = id, true, true
				du.bound++
				plan.InPlace++
				continue
			}
			if p.id == "" {
				p.id = o.allocPipeID()
			}
			creates.Items = append(creates.Items, msg.CommandItem{
				Pipe: &msg.CreatePipeItem{ID: p.id, Req: p.req},
			})
			creates.Rendered = append(creates.Rendered,
				renderPipeCreate(p.id, p.req)+ownersSuffix(p.owners.items))
			binds = append(binds, bindTarget{pipe: p})
			keep = append(keep, it)
		case it.rule != nil && !it.rule.gone:
			r := it.rule
			if r.kept {
				continue
			}
			// A rule that embeds exported handles registers the dependency,
			// so Apply installs a trigger on the provider.
			provider := n.handleProvider(r)
			if !provider.IsZero() {
				plan.handleDeps = append(plan.handleDeps, handleDep{provider, "pipe:" + string(r.toPipe.id)})
			}
			rr := r.resolved()
			if pipesReady(r) {
				if id, ok := du.bindRule(n, o, desiredRuleKey(rr, r.matchResolved, r.viaResolved), provider, rr.To); ok {
					r.kept, r.boundID = true, id
					du.bound++
					plan.InPlace++
					continue
				}
			}
			creates.Items = append(creates.Items, msg.CommandItem{
				Switch: &msg.CreateSwitchReq{
					Rule:          rr,
					MatchResolved: r.matchResolved,
					ViaResolved:   r.viaResolved,
				},
			})
			creates.Rendered = append(creates.Rendered,
				renderSwitchCreate(rr)+ownersSuffix(r.owners.items))
			binds = append(binds, bindTarget{rule: r})
			keep = append(keep, it)
		case it.other != nil && !it.other.gone && !it.other.done:
			creates.Items = append(creates.Items, it.other.item)
			creates.Rendered = append(creates.Rendered, it.other.rendered)
			binds = append(binds, bindTarget{other: it.other})
			keep = append(keep, it)
		}
	}
	du.newItems = keep
	if len(creates.Items) > 0 {
		plan.Creates = append(plan.Creates, creates)
		if plan.createBinds == nil {
			plan.createBinds = make(map[core.DeviceID][]bindTarget)
		}
		plan.createBinds[du.dev] = binds
	}
}

// ---------------------------------------------------------------------------
// PlanStore / Apply / Reconcile

// PlanStore computes the store-wide reconciliation diff incrementally:
// only intents whose goals changed since the last pass recompile, only
// devices whose observation generation moved re-observe, and devices
// with a valid, fully bound cache entry diff in O(pending) — or are
// skipped outright when nothing on them changed. A compile-input change
// (topology, module discovery, domain bindings) falls back to a full
// union rebuild, still rematching against cached observations.
// Planning sends no configuration commands. The plan is tied to the
// store state it was computed from; a newer PlanStore supersedes it.
func (n *NM) PlanStore() (*Plan, error) {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	return n.planStoreLocked()
}

func (n *NM) planStoreLocked() (*Plan, error) {
	ss := n.ss

	// Drain the mutation marks and snapshot the generations.
	n.mu.Lock()
	curGen := n.compileGen
	full := ss.compiledGen != curGen
	var dirty []string
	if full {
		dirty = append([]string(nil), n.storeOrder.items...)
	} else {
		dirty = make([]string, 0, len(n.ssDirty))
		for name := range n.ssDirty {
			dirty = append(dirty, name)
		}
		sort.Slice(dirty, func(i, j int) bool { return n.storePos[dirty[i]] < n.storePos[dirty[j]] })
	}
	removed := sortedKeys(n.ssRemoved)
	intents := make(map[string]Intent, len(dirty))
	regSeq := make(map[string]uint64, len(dirty))
	for _, name := range dirty {
		intents[name], regSeq[name] = n.store[name], n.storePos[name]
	}
	n.ssDirty = make(map[string]bool)
	n.ssRemoved = make(map[string]bool)
	gens := make(map[core.DeviceID]uint64, len(n.obsGens))
	for d, g := range n.obsGens {
		gens[d] = g
	}
	n.mu.Unlock()

	if full {
		ss.reset()
		ss.compiledGen = curGen
	}
	plan := &Plan{records: make(map[string][]core.DeviceID)}
	plan.Stats.FullRebuild = full

	// Withdrawals first: drop the leaving intents' shares (queueing
	// deletes of their bound components) and stage record retirement.
	for _, name := range removed {
		ss.removeContribs(name)
		delete(ss.contribs, name)
		ss.removeView(name)
		ss.removedIntents[name] = true
		delete(ss.recordsDirty, name)
	}

	// Dirty intents: recompile and re-merge, in submission order.
	for i, name := range dirty {
		intent := intents[name]
		path, scripts, err := n.compileIntent(intent)
		if err != nil {
			n.requeueDirty(dirty[i:])
			return nil, fmt.Errorf("nm: reconcile: %w", err)
		}
		plan.Stats.Recompiled++
		devs := scriptDevices(scripts)
		ss.removeContribs(name)
		ss.contribs[name] = &intentContrib{path: path, devices: devs}
		ss.setView(regSeq[name], IntentView{Intent: intent, Path: path, Devices: devs})
		if err := ss.merge(name, scripts); err != nil {
			delete(ss.contribs, name)
			ss.removeView(name)
			n.requeueDirty(dirty[i:])
			return nil, err
		}
		ss.recordsDirty[name] = true
		delete(ss.removedIntents, name)
	}

	// Device classification: what does each occupied device need?
	const (
		actSkip = iota
		actRematch
		actDelta
	)
	action := make(map[core.DeviceID]int)
	var required []core.DeviceID
	occupied := make(map[core.DeviceID]bool)
	for _, dev := range ss.order {
		du := ss.unions[dev]
		if du == nil || du.live == 0 {
			continue
		}
		occupied[dev] = true
		ce := ss.cache[dev]
		switch {
		case ce == nil || ce.o == nil || ce.gen != gens[dev]:
			// An event moved the generation (or we never looked):
			// observe fresh, then rematch the whole union.
			required = append(required, dev)
			action[dev] = actRematch
			plan.Stats.CacheMisses++
		case !ce.synced:
			// Cached observation is current but the union was rebuilt
			// (or restored): rematch against the cache, zero RPCs.
			action[dev] = actRematch
			plan.Stats.CacheHits++
		case du.hasWork():
			action[dev] = actDelta
			plan.Stats.CacheHits++
		default:
			plan.InPlace += du.bound
			plan.Stats.CacheHits++
		}
	}

	// Stranded devices — occupied only by withdrawn or rerouted goals,
	// or flagged unreachable-with-stale-state — are always probed fresh:
	// the cache cannot vouch for a device we are about to stop watching.
	n.mu.Lock()
	strandedSet := make(map[core.DeviceID]bool)
	for dev, cnt := range ss.recordedCount {
		if cnt > 0 && !occupied[dev] {
			strandedSet[dev] = true
		}
	}
	for dev := range n.staleDevs {
		if !occupied[dev] {
			strandedSet[dev] = true
		}
	}
	n.mu.Unlock()
	stranded := sortedKeys(strandedSet)

	obs, unreachable, err := n.observe(
		append(append([]core.DeviceID(nil), required...), stranded...),
		optionalSet(stranded))
	if err != nil {
		return nil, err
	}
	plan.Unreachable = unreachable
	plan.Stats.Observed = len(obs)
	for _, dev := range required {
		ss.cache[dev] = &obsEntry{gen: gens[dev], o: obs[dev]}
	}

	// Prune stranded devices first (their whole observed state is
	// stale); unreachable ones are skipped and remembered.
	for _, dev := range stranded {
		o := obs[dev]
		if o == nil {
			continue
		}
		ss.cache[dev] = &obsEntry{gen: gens[dev], o: o}
		plan.pruned = append(plan.pruned, dev)
		(&deviceUnion{dev: dev}).diff(n, o, plan, true)
		if du := ss.unions[dev]; du != nil {
			du.pendingDelRules, du.pendingDelPipes, du.newItems = nil, nil, nil
		}
	}

	for _, dev := range ss.order {
		if act := action[dev]; act != actSkip {
			ce := ss.cache[dev]
			ss.unions[dev].diff(n, ce.o, plan, act == actRematch)
			ce.synced = true
			plan.Stats.DiffedDevices++
		}
	}

	// The plan captures the views slice without copying (O(changed), not
	// O(store)); mutators clone before the next write. Elements are
	// effectively immutable once captured.
	plan.Views = ss.views.items
	ss.viewsShared = true
	plan.Shared = ss.shared
	for name := range ss.recordsDirty {
		if c := ss.contribs[name]; c != nil {
			plan.records[name] = c.devices
		}
	}
	plan.removedIntents = sortedKeys(ss.removedIntents)
	ss.passSeq++
	plan.pass = ss.passSeq
	return plan, nil
}

// requeueDirty re-marks still-registered intents dirty after a failed
// pass, so the next one retries them.
func (n *NM) requeueDirty(names []string) {
	n.mu.Lock()
	for _, name := range names {
		if _, ok := n.store[name]; ok {
			n.ssDirty[name] = true
		}
	}
	n.mu.Unlock()
}

// sortedKeys returns a set's members in ascending order.
func sortedKeys[K ~string, V any](set map[K]V) []K {
	out := make([]K, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// planDevices is the sorted union of devices a plan touches.
func planDevices(plan *Plan) []core.DeviceID {
	set := make(map[core.DeviceID]bool)
	for _, ds := range plan.Deletes {
		set[ds.Device] = true
	}
	for _, ds := range plan.Creates {
		set[ds.Device] = true
	}
	return sortedKeys(set)
}

func scriptDeviceSet(scripts []DeviceScript) map[core.DeviceID]bool {
	set := make(map[core.DeviceID]bool, len(scripts))
	for _, ds := range scripts {
		set[ds.Device] = true
	}
	return set
}

func (n *NM) invalidateDevice(dev core.DeviceID) {
	n.mu.Lock()
	n.obsGens[dev]++
	n.mu.Unlock()
}

func (n *NM) invalidateDevices(devs map[core.DeviceID]bool) {
	n.mu.Lock()
	for dev := range devs {
		n.obsGens[dev]++
	}
	n.mu.Unlock()
}

// recordOccupancyLocked is the single writer of the occupancy memory,
// shared by Apply and Persist's restore: it replaces the
// named intent's recorded device set (an empty set retires the record)
// and keeps ss.recordedCount, the per-device count of records, in step.
// Caller holds planMu and mu.
func (n *NM) recordOccupancyLocked(name string, devs []core.DeviceID) {
	count := n.ss.recordedCount
	old := n.intentDevs[name]
	set := make(map[core.DeviceID]bool, len(devs))
	for _, dev := range devs {
		if !set[dev] && !old[dev] {
			count[dev]++
		}
		set[dev] = true
	}
	for dev := range old {
		if !set[dev] {
			if count[dev]--; count[dev] <= 0 {
				delete(count, dev)
			}
		}
	}
	if len(set) == 0 {
		delete(n.intentDevs, name)
		return
	}
	n.intentDevs[name] = set
}

func (n *NM) clearExpected() {
	n.mu.Lock()
	n.expectNotify = make(map[string]int)
	n.mu.Unlock()
}

// Apply executes a plan — stale components deleted first, missing ones
// created — then binds the created components to the ids the devices
// reported, writing them through the observation cache so the next pass
// needs no re-observe. On success it commits the plan's occupancy-record
// delta and journals the apply (when persistence is attached). A plan
// superseded by a newer PlanStore (or Plan) is refused, and applying an
// empty plan sends nothing.
func (n *NM) Apply(plan *Plan) error {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	return n.applyLocked(plan)
}

func (n *NM) applyLocked(plan *Plan) error {
	ss := n.ss
	if plan.pass != ss.passSeq {
		return fmt.Errorf("nm: apply: plan superseded by a newer PlanStore (recompute and retry)")
	}
	if plan.applied {
		return fmt.Errorf("nm: apply: plan already applied")
	}
	plan.applied = true

	if !plan.Empty() {
		n.mu.Lock()
		jerr := n.journalLocked(datastore.OpApplyBegin, "", planDevices(plan), 0)
		if jerr == nil {
			// Our own pipe deletes make the lower module notify
			// pipe-deleted; those events must not invalidate the cache
			// this apply writes through.
			for _, ds := range plan.Deletes {
				for _, item := range ds.Items {
					if item.Delete != nil && item.Delete.Req.Kind == core.ComponentPipe {
						n.expectNotify[expectKey(ds.Device, "pipe-deleted", item.Delete.Req.ID)]++
					}
				}
			}
		}
		n.mu.Unlock()
		if jerr != nil {
			return jerr
		}
	}

	if len(plan.Deletes) > 0 {
		if _, err := n.executeCollect(plan.Deletes); err != nil {
			n.invalidateDevices(scriptDeviceSet(plan.Deletes))
			n.clearExpected()
			return fmt.Errorf("nm: reconcile (teardown phase): %w", err)
		}
		// Write the deletions through the observation cache and retire
		// the queued work they came from.
		for _, ds := range plan.Deletes {
			if ce := ss.cache[ds.Device]; ce != nil && ce.o != nil {
				ce.o.ensureIndex()
				for _, item := range ds.Items {
					if item.Delete == nil {
						continue
					}
					switch item.Delete.Req.Kind {
					case core.ComponentSwitchRule:
						ce.o.tombstoneRule(item.Delete.Req.ID)
					case core.ComponentPipe:
						id := core.PipeID(item.Delete.Req.ID)
						delete(ce.o.pipes, id)
						delete(ce.o.claimed, id)
					}
				}
			}
			if du := ss.unions[ds.Device]; du != nil {
				du.pendingDelRules, du.pendingDelPipes = nil, nil
			}
		}
	}

	if len(plan.Creates) > 0 {
		resps, err := n.executeCollect(plan.Creates)
		if err != nil {
			n.invalidateDevices(scriptDeviceSet(plan.Creates))
			n.clearExpected()
			return fmt.Errorf("nm: reconcile: %w", err)
		}
		for i, ds := range plan.Creates {
			n.bindCreatesLocked(ds, resps[i], plan.createBinds[ds.Device])
		}
	}

	// Dependency maintenance (§II-E): watch every provider component a
	// desired rule embeds handles from, so churn fires a Trigger.
	if err := n.installHandleTriggers(plan.handleDeps); err != nil {
		n.clearExpected()
		return fmt.Errorf("nm: reconcile (triggers): %w", err)
	}
	n.markStale(plan.pruned, plan.Unreachable)
	for _, dev := range plan.pruned {
		delete(ss.cache, dev)
		if du := ss.unions[dev]; du != nil && du.live == 0 {
			delete(ss.unions, dev)
			for i, d := range ss.order {
				if d == dev {
					ss.order = append(ss.order[:i], ss.order[i+1:]...)
					break
				}
			}
		}
	}

	// Commit the occupancy-record delta (withdrawn intents drop out
	// here, after their components were pruned).
	n.mu.Lock()
	for _, name := range plan.removedIntents {
		n.recordOccupancyLocked(name, nil)
		delete(ss.removedIntents, name)
	}
	for name, devs := range plan.records {
		n.recordOccupancyLocked(name, devs)
		delete(ss.recordsDirty, name)
	}
	var jerr error
	if !plan.Empty() {
		jerr = n.journalLocked(datastore.OpCommit, "", nil, 0)
	}
	// Self-inflicted notifies usually land before the batch response;
	// any suppression still unclaimed is dropped so a later *real* event
	// is never swallowed (worst case: one spurious re-observe).
	n.expectNotify = make(map[string]int)
	j := n.journal
	n.mu.Unlock()
	if jerr != nil {
		return jerr
	}
	if j != nil && j.SnapshotDue(autoSnapshotEvery) {
		if err := n.checkpointLocked(); err != nil {
			return fmt.Errorf("nm: apply: checkpoint: %w", err)
		}
	}
	return nil
}

// bindCreates binds the union components a create batch realised to the
// identifiers the device reported, writing them through the observation
// cache — the plan's components are in place without a re-observe. Any
// shape mismatch, or a result the NM cannot take at face value (a
// pending rule, or one embedding an exported handle the NM never saw),
// falls back to invalidating the device so the next pass observes it
// fresh.
func (n *NM) bindCreatesLocked(ds DeviceScript, resp msg.CommandBatchResp, binds []bindTarget) {
	ss := n.ss
	ce := ss.cache[ds.Device]
	du := ss.unions[ds.Device]
	if ce == nil || ce.o == nil || du == nil ||
		len(binds) != len(ds.Items) || len(resp.Results) != len(ds.Items) {
		n.invalidateDevice(ds.Device)
		return
	}
	o := ce.o
	o.ensureIndex()
	invalidate := false
	for i := range ds.Items {
		b := binds[i]
		res := resp.Results[i]
		switch {
		case b.pipe != nil:
			p := b.pipe
			if p.gone || p.inPlace {
				continue
			}
			if res.PipeID != "" && res.PipeID != p.id {
				invalidate = true
				continue
			}
			p.inPlace = true
			du.bound++
			o.pipes[p.id] = obsPipe{
				upper: p.req.Upper, lower: p.req.Lower,
				upperPeer: p.req.UpperPeer, lowerPeer: p.req.LowerPeer,
			}
			o.claimed[p.id] = true
			o.usedIDs[p.id] = true
		case b.rule != nil:
			r := b.rule
			if r.gone || r.kept {
				continue
			}
			if !n.handleProvider(r).IsZero() || res.Pending || res.RuleID == "" {
				// The installed form embeds state the NM did not see (an
				// exported handle) or is not installed yet: observe it
				// for real next pass.
				invalidate = true
				continue
			}
			rr := r.resolved()
			r.kept, r.boundID = true, res.RuleID
			du.bound++
			o.addRule(obsRule{
				id: res.RuleID, module: rr.Module, from: rr.From, to: rr.To,
				match: classifierKey(rr.Match), via: rr.Via,
				matchResolved: r.matchResolved, viaResolved: r.viaResolved,
				used: true,
			})
		case b.other != nil:
			b.other.done = true
		}
	}
	keep := du.newItems[:0]
	for _, it := range du.newItems {
		if it.isGone() {
			continue
		}
		if (it.pipe != nil && it.pipe.inPlace) || (it.rule != nil && it.rule.kept) ||
			(it.other != nil && it.other.done) {
			continue
		}
		keep = append(keep, it)
	}
	du.newItems = keep
	if invalidate {
		n.invalidateDevice(ds.Device)
	}
}

// Reconcile moves the network to the union of all registered intents:
// PlanStore followed by Apply under one lock, returning the plan
// that was executed. Reconcile treats the store as the complete desired
// state — components no registered intent wants are pruned, and
// components two goals share are configured once and survive until the
// last owner is withdrawn. Reconcile is idempotent: immediately
// reconciling again sends zero commands.
func (n *NM) Reconcile() (*Plan, error) {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	plan, err := n.planStoreLocked()
	if err != nil {
		return nil, err
	}
	if err := n.applyLocked(plan); err != nil {
		return plan, err
	}
	return plan, nil
}

package nm

// The diff: one device's union against its observed state, and
// bindCreated, its other half once Apply has run the creates. Both work
// on values alone, the §II-E handle check included.

import (
	"cmp"
	"slices"
	"strings"

	"conman/internal/core"
	"conman/internal/msg"
)

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
// since install) simply fails to match and the rule is replaced. A kept
// rule embedding an exported handle is a dependency to watch.
func (du *deviceUnion) bindRule(o *observed, plan *Plan, key string) (string, bool) {
	// Stale embedded handle (§II-E): the rule's copy differs from the
	// handle its To pipe reports now (e.g. an NHLFE renumbered by pipe
	// churn), so it points at dead state though its abstract and resolved
	// forms still match — replace it. A rule steering into a pipe its own
	// module is below embeds nothing.
	fresh := func(or *obsRule) bool {
		op := o.pipes[or.to]
		return op.lower == or.module || or.handle == op.handle
	}
	bind := func(or *obsRule) (string, bool) {
		or.used = true
		if or.handle != "" {
			plan.handleDeps = append(plan.handleDeps, handleDep{o.pipes[or.to].lower, "pipe:" + string(or.to)})
		}
		return or.id, true
	}
	for _, j := range o.ruleIdx[key] {
		if or := &o.rules[j]; !or.used && or.id != "" && fresh(or) {
			return bind(or)
		}
	}
	for i, dr := range du.pendingDelRules {
		j, ok := o.ruleByID[dr.ID]
		if !ok {
			continue
		}
		if or := &o.rules[j]; or.key() == key && fresh(or) {
			du.pendingDelRules = append(du.pendingDelRules[:i], du.pendingDelRules[i+1:]...)
			return bind(or)
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
func (du *deviceUnion) diff(o *observed, plan *Plan, rematch bool) {
	if rematch {
		du.forgetBindings(o)
	}
	du.bindPending(o, plan)
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
		default:
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
// to what the device reports (bindCreated).
func (du *deviceUnion) bindPending(o *observed, plan *Plan) {
	// Everything bound before this pass is in place by definition.
	plan.InPlace += du.bound
	var fresh []*unionPipe
	for _, it := range du.newItems {
		p := it.pipe
		if p == nil || p.gone || p.inPlace {
			continue
		}
		id, ok := du.adoptPendingPipe(o, p.req)
		if !ok {
			id, ok = o.matchUnclaimed(p.req)
		}
		switch {
		case ok:
			p.id, p.inPlace, o.claimed[id] = id, true, true
			du.bound++
			plan.InPlace++
		case p.id == "":
			fresh = append(fresh, p)
		}
	}
	// Fresh wire ids go out in first-claim order (claimSeq), as a union
	// rebuilt from the current intents would hand them out.
	slices.SortFunc(fresh, func(a, b *unionPipe) int { return cmp.Compare(a.owners.seqs[0], b.owners.seqs[0]) })
	for _, p := range fresh {
		p.id = o.allocPipeID()
	}
	creates := DeviceScript{Device: du.dev}
	var binds []unionItem
	keep := du.newItems[:0]
	for _, it := range du.newItems {
		switch {
		case it.pipe != nil && !it.pipe.gone && !it.pipe.inPlace:
			p := it.pipe
			creates.Items = append(creates.Items, msg.CommandItem{
				Pipe: &msg.CreatePipeItem{ID: p.id, Req: p.req},
			})
			creates.Rendered = append(creates.Rendered,
				renderPipeCreate(p.id, p.req)+ownersSuffix(p.owners.items))
		case it.rule != nil && !it.rule.gone && !it.rule.kept:
			r := it.rule
			rr := r.resolved()
			if pipesReady(r) {
				if id, ok := du.bindRule(o, plan, desiredRuleKey(rr, r.matchResolved, r.viaResolved)); ok {
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
		default:
			continue
		}
		binds = append(binds, it)
		keep = append(keep, it)
	}
	du.newItems = keep
	if len(creates.Items) > 0 {
		plan.Creates = append(plan.Creates, creates)
		if plan.createBinds == nil {
			plan.createBinds = make(map[core.DeviceID][]unionItem)
		}
		plan.createBinds[du.dev] = binds
	}
}

// bindCreated binds the components the plan's create batch for the
// device realised (createBinds) to the ids and handles the device
// reported, writing them through o, so they are in place without a
// re-observe. An installed rule's handle is also its To pipe's current
// one, and a dependency to watch. It reports invalidate when the results
// do not line up with the batch, or for a pending rule, whose handle is
// not known yet: the device must then be observed fresh next pass.
func (du *deviceUnion) bindCreated(o *observed, plan *Plan, results []msg.CommandItemResult) (invalidate bool) {
	binds := plan.createBinds[du.dev]
	if len(results) != len(binds) {
		return true
	}
	for i, b := range binds {
		res := results[i]
		if p := b.pipe; p != nil {
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
				handle: res.Handle,
			}
			o.claimed[p.id] = true
			o.usedIDs[p.id] = true
			continue
		}
		r := b.rule
		if r.gone || r.kept {
			continue
		}
		if res.Pending || res.RuleID == "" {
			// Not installed yet: observe it for real next pass.
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
			handle: res.Handle, used: true,
		})
		if op, ok := o.pipes[rr.To]; ok && res.Handle != "" && op.lower != rr.Module {
			// The rule just read the handle from its To pipe's module.
			op.handle = res.Handle
			o.pipes[rr.To] = op
			plan.handleDeps = append(plan.handleDeps, handleDep{op.lower, "pipe:" + string(rr.To)})
		}
	}
	keep := du.newItems[:0]
	for _, it := range du.newItems {
		if it.isGone() || (it.pipe != nil && it.pipe.inPlace) || (it.rule != nil && it.rule.kept) {
			continue
		}
		keep = append(keep, it)
	}
	du.newItems = keep
	return invalidate
}

// ownersSuffix annotates a rendered create line with the owning intents
// when a component is shared.
func ownersSuffix(owners []string) string {
	if len(owners) < 2 {
		return ""
	}
	return "  [shared: " + strings.Join(owners, ", ") + "]"
}

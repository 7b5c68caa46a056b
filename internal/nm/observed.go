package nm

// The NM's per-device view of configured components, condensed from
// showActual, with the binding indexes the diff (diff.go) keeps on it.
// Apply writes through it, so a still-valid observation needs no re-read.

import (
	"fmt"

	"conman/internal/core"
	"conman/internal/msg"
)

// observed is one device's configured components and their binding
// indexes. Build it with newObserved, which indexes it.
type observed struct {
	// pipes maps a pipe id to the (upper, lower) modules it connects
	// and their remote peers. Physical pipes are excluded: the NM
	// cannot create or delete them.
	pipes map[core.PipeID]obsPipe
	// rules lists installed switch rules across the device's modules.
	rules []obsRule

	// claimed marks observed pipes that are spoken for: bound to a desired
	// union pipe, or queued for deletion.
	claimed map[core.PipeID]bool
	// usedIDs holds the wire ids handed out for the device since the last
	// rematch; with the observed ids they are what allocPipeID skips.
	usedIDs map[core.PipeID]bool
	// ruleIdx indexes rules by binding identity (obsRule.key) and
	// ruleByID by installed id; tombstoned rules (id=="") are unindexed.
	ruleIdx  map[string][]int
	ruleByID map[string]int
}

type obsPipe struct {
	upper, lower         core.ModuleRef
	upperPeer, lowerPeer core.ModuleRef
	// handle is the lower module's exported handle (PipeState.Handle).
	handle string
}

// matches reports whether the observed pipe satisfies a desired pipe
// request: same modules AND same remote peers — a pipe whose far-end
// peer changed must be recreated so the modules renegotiate (VID,
// keys, labels) with the new peer.
func (o obsPipe) matches(req core.PipeRequest) bool {
	return o.upper == req.Upper && o.lower == req.Lower &&
		o.upperPeer == req.UpperPeer && o.lowerPeer == req.LowerPeer
}

type obsRule struct {
	id       string
	module   core.ModuleRef
	from, to core.PipeID
	match    string
	via      string
	// matchResolved/viaResolved are the concrete values the rule was
	// installed with; a rule whose fresh resolution differs has drifted
	// and must be replaced even though its abstract form still matches.
	matchResolved string
	viaResolved   string
	// handle is the low-level handle the rule embeds from the module
	// below its To pipe, as the installing module reported it; one that
	// differs from the To pipe's handle is stale (§II-E).
	handle string
	used   bool
}

func classifierKey(c *core.Classifier) string {
	if c == nil {
		return ""
	}
	return c.Kind + "=" + c.Value
}

// newObserved is the one way to build an observed: it takes ownership of
// pipes and rules and indexes them for binding.
func newObserved(pipes map[core.PipeID]obsPipe, rules []obsRule) *observed {
	o := &observed{
		pipes:   pipes,
		rules:   rules,
		claimed: make(map[core.PipeID]bool),
		usedIDs: make(map[core.PipeID]bool),
	}
	o.rebuildRuleIndex()
	return o
}

// observedFrom condenses one device's showActual answer into the
// diffable view.
func observedFrom(states []core.ModuleState) *observed {
	pipes := make(map[core.PipeID]obsPipe)
	var rules []obsRule
	for _, st := range states {
		for _, ps := range st.Pipes {
			// The module below a pipe reports it as an up pipe (Other
			// = the module above, Peer = its own remote peer); the
			// module above reports the same pipe as a down pipe
			// carrying the upper-side peer. Physical pipes are not
			// diffable.
			switch ps.End {
			case core.EndUp:
				op := pipes[ps.ID]
				op.upper, op.lower, op.lowerPeer, op.handle = ps.Other, st.Ref, ps.Peer, ps.Handle
				pipes[ps.ID] = op
			case core.EndDown:
				op := pipes[ps.ID]
				op.upperPeer = ps.Peer
				pipes[ps.ID] = op
			}
		}
		for _, r := range st.SwitchRules {
			rules = append(rules, obsRule{
				id: r.ID, module: st.Ref,
				from: r.From, to: r.To,
				match: classifierKey(r.Match), via: r.Via,
				matchResolved: r.MatchResolved, viaResolved: r.ViaResolved,
				handle: r.HandleResolved,
			})
		}
	}
	return newObserved(pipes, rules)
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

// forgetDeleted writes an executed delete batch through: the deleted
// rules and pipes are no longer on the device.
func (o *observed) forgetDeleted(items []msg.CommandItem) {
	for _, item := range items {
		if item.Delete == nil {
			continue
		}
		switch item.Delete.Req.Kind {
		case core.ComponentSwitchRule:
			o.tombstoneRule(item.Delete.Req.ID)
		case core.ComponentPipe:
			id := core.PipeID(item.Delete.Req.ID)
			delete(o.pipes, id)
			delete(o.claimed, id)
		}
	}
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

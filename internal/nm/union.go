package nm

// The per-device union of every registered intent's desired
// configuration, with owners per component: merge folds an intent in,
// removeContribs takes its share out again. A value — nothing here talks
// to the NM or a device.

import (
	"fmt"
	"slices"
	"strings"

	"conman/internal/core"
	"conman/internal/msg"
)

// intentContrib is one registered intent's share of the union: the
// devices it occupies and a ref per union component it co-owns (so
// Withdraw/Update removes exactly this share).
type intentContrib struct {
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

// unionPipe is one desired pipe in the union of all registered intents.
// Its identity is its content — endpoint modules, remote peers and
// dependency choices — not a compiled pipe id: intents compiled in
// isolation number their pipes independently, so the store matches
// pipes structurally and assigns wire ids afterwards (adopting the id
// of a matching observed pipe, or allocating a fresh one).
type unionPipe struct {
	req    core.PipeRequest
	owners seqList[string]
	// id is the resolved wire id: the observed pipe's id when the pipe
	// is already in place, a freshly allocated one otherwise.
	id      core.PipeID
	inPlace bool
	// key caches pipeKey(req); gone tombstones a pipe whose last owner
	// withdrew (the incremental store never reslices items).
	key  string
	gone bool
}

// unionRule is one desired switch rule in the union. From/To referring
// to NM-created pipes are tracked through the unionPipe they resolve
// against (fromPipe/toPipe non-nil); physical pipe references stay
// literal.
type unionRule struct {
	rule             core.SwitchRule
	fromPipe, toPipe *unionPipe
	matchResolved    string
	viaResolved      string
	owners           seqList[string]
	kept             bool
	// boundID is the installed rule id this desired rule is bound to
	// while kept, so a later withdrawal can delete it without an
	// observation sweep.
	boundID string
	// key caches ruleUnionKey; gone tombstones a withdrawn rule.
	key  string
	gone bool
}

// resolved returns the rule with From/To rewritten to the final wire
// ids of the union pipes it references.
func (r *unionRule) resolved() core.SwitchRule {
	rr := r.rule
	if r.fromPipe != nil {
		rr.From = r.fromPipe.id
	}
	if r.toPipe != nil {
		rr.To = r.toPipe.id
	}
	return rr
}

// unionItem is one union component — exactly one field is set. A
// device's items keep first-appearance order, so create batches read
// like a from-scratch script; a create batch's items align with the
// unionItems they realise.
type unionItem struct {
	pipe *unionPipe
	rule *unionRule
}

// isGone reports whether an item is tombstoned.
func (it unionItem) isGone() bool {
	if it.pipe != nil {
		return it.pipe.gone
	}
	return it.rule.gone
}

// deviceUnion is the merged desired configuration of one device across
// every registered intent, with ownership per component. items, pipes
// and rules carry the union itself; the rest is the pending work and the
// binding tallies the diff consumes.
type deviceUnion struct {
	dev   core.DeviceID
	items []unionItem
	pipes map[string]*unionPipe
	rules map[string]*unionRule

	// newItems are the pending components — merged since the last diff
	// resolved them, or all live ones once a rematch forgot the bindings:
	// each is still waiting to be bound to an observed component or
	// created on the device.
	newItems []unionItem
	// pendingDelRules/pendingDelPipes are installed components queued
	// for deletion (rules before pipes): bound ones whose last owner
	// withdrew, and observed state a rematch found nobody claiming.
	pendingDelRules []core.DeleteRequest
	pendingDelPipes []core.DeleteRequest
	// classes indexes value-carrying classifier rules by (module, entry,
	// classifier, resolution) for conflict detection as intents merge.
	classes map[string][]*unionRule
	// bound counts desired components currently bound to device state;
	// live counts non-tombstoned items; dead counts tombstones awaiting
	// compaction.
	bound int
	live  int
	dead  int
}

// hasWork reports whether the diff has pending work on this device.
func (du *deviceUnion) hasWork() bool {
	return len(du.newItems) > 0 || len(du.pendingDelRules) > 0 || len(du.pendingDelPipes) > 0
}

// pipeKey is the canonical content identity of a desired pipe.
func pipeKey(req core.PipeRequest) string {
	var b strings.Builder
	b.WriteString(req.Upper.String())
	b.WriteByte('|')
	b.WriteString(req.Lower.String())
	b.WriteByte('|')
	b.WriteString(req.UpperPeer.String())
	b.WriteByte('|')
	b.WriteString(req.LowerPeer.String())
	for _, d := range req.Satisfy {
		b.WriteByte('|')
		b.WriteString(d.Token + "/" + d.Tradeoff + "/" + d.Value + "/" + d.Provider)
	}
	return b.String()
}

// ruleUnionKey is the canonical identity of a desired switch rule, with
// pipe references lifted into content space so two intents' rules over
// the same (structurally identical) pipes unify.
func ruleUnionKey(r *msg.CreateSwitchReq, fp, tp *unionPipe) string {
	from, to := string(r.Rule.From), string(r.Rule.To)
	if fp != nil {
		from = "pipe:" + pipeKey(fp.req)
	}
	if tp != nil {
		to = "pipe:" + pipeKey(tp.req)
	}
	return r.Rule.Module.String() + "|" + from + "|" + to + "|" +
		classifierKey(r.Rule.Match) + "|" + r.Rule.Via + "|" +
		fmt.Sprint(r.Rule.Bidirectional) + "|" + r.MatchResolved + "|" + r.ViaResolved
}

// merge folds one intent's compiled device scripts into the per-device
// unions: every component gains the intent as an owner (refcounting),
// the intent's contribution refs record its share (so a later withdraw
// or update removes exactly that), the sharing tallies and the per-device
// conflict-class index follow, and new components queue as pending work
// for the next diff. A classifier conflict aborts the merge with this
// intent's partial contributions removed and a *ConflictError returned.
func (ss *storeState) merge(name string, scripts []DeviceScript) error {
	contrib := ss.contribs[name]
	if contrib == nil {
		contrib = &intentContrib{}
		ss.contribs[name] = contrib
	}
	for _, ds := range scripts {
		du := ss.unions[ds.Device]
		if du == nil {
			du = &deviceUnion{
				dev:   ds.Device,
				pipes: make(map[string]*unionPipe),
				rules: make(map[string]*unionRule),
			}
			ss.unions[ds.Device] = du
			ss.order = append(ss.order, ds.Device)
		}
		add := func(it unionItem) {
			du.items = append(du.items, it)
			du.newItems = append(du.newItems, it)
			du.live++
		}
		own := func(owners *seqList[string], it unionItem) {
			// merge(name) only ever follows removeContribs(name), so name
			// owns nothing when it starts and can only be the newest owner
			// of a component its scripts already named: no scan.
			if k := len(owners.items); k > 0 && owners.items[k-1] == name {
				return
			}
			ss.claimSeq++
			seq := ss.claimSeq
			owners.put(seq, name)
			ss.ownerAdded(owners.items)
			contrib.refs = append(contrib.refs, contribRef{du: du, it: it, seq: seq})
		}
		// local maps this intent's compile-time pipe ids (device-scoped
		// P0, P1, ...) to their union pipes.
		local := make(map[core.PipeID]*unionPipe)
		for _, item := range ds.Items {
			switch {
			case item.Pipe != nil:
				key := pipeKey(item.Pipe.Req)
				up := du.pipes[key]
				if up == nil {
					up = &unionPipe{req: item.Pipe.Req, key: key}
					du.pipes[key] = up
					add(unionItem{pipe: up})
				}
				own(&up.owners, unionItem{pipe: up})
				local[item.Pipe.ID] = up
			case item.Switch != nil:
				fp, tp := local[item.Switch.Rule.From], local[item.Switch.Rule.To]
				key := ruleUnionKey(item.Switch, fp, tp)
				ur := du.rules[key]
				if ur == nil {
					ur = &unionRule{
						rule: item.Switch.Rule, fromPipe: fp, toPipe: tp,
						matchResolved: item.Switch.MatchResolved,
						viaResolved:   item.Switch.ViaResolved,
						key:           key,
					}
					if err := du.classAdd(ur, name); err != nil {
						ss.removeContribs(name)
						return err
					}
					du.rules[key] = ur
					add(unionItem{rule: ur})
				}
				own(&ur.owners, unionItem{rule: ur})
			default:
				ss.removeContribs(name)
				return fmt.Errorf("nm: intent %q: %s: compiled item is neither a pipe nor a switch rule", name, ds.Device)
			}
		}
	}
	return nil
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
		if p := ref.it.pipe; p != nil {
			if !p.owners.remove(ref.seq) {
				continue
			}
			switch len(p.owners.items) {
			case 0:
				du.killPipe(p)
			case 1:
				ss.unshared(p.owners.items[0])
			}
		} else {
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
		}
		du.maybeCompact()
	}
	contrib.refs = nil
}

// ---------------------------------------------------------------------------
// Component lifecycle (kill + compaction)

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

// ---------------------------------------------------------------------------
// Conflict classes

// ConflictError reports two registered intents whose desired switch
// rules classify the same traffic at the same module but steer it to
// different targets — a packet cannot obey both, so reconciliation
// refuses to install either and names the colliding goals instead of
// leaving the outcome to rule-installation order.
type ConflictError struct {
	// Device and Module locate the collision.
	Device core.DeviceID
	Module core.ModuleRef
	// IntentA/IntentB name one owner of each colliding rule, and
	// RuleA/RuleB are the rules as those intents compiled them.
	IntentA, IntentB string
	RuleA, RuleB     core.SwitchRule
	// TargetA/TargetB describe where each rule steers the traffic in
	// structural terms (compile-local pipe ids like P1 collide across
	// intents, so the rendered rules alone can look identical).
	TargetA, TargetB string
}

func (e *ConflictError) Error() string {
	return fmt.Sprintf("nm: reconcile: conflicting switch rules on %s: intent %q wants %s (into %s), intent %q wants %s (into %s)",
		e.Module, e.IntentA, renderSwitchCreate(e.RuleA), e.TargetA, e.IntentB, renderSwitchCreate(e.RuleB), e.TargetB)
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

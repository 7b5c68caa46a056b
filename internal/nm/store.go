package nm

// The intent store: the NM holds the full set of high-level goals and
// derives device configuration from their union (the paper's "NM holds
// all the goals" model, §III). Submit, Update and Withdraw register,
// replace and remove goals; Reconcile merges the desired configuration
// per device with ownership tracking, diffs the union against observed
// state, and sends create/delete batches that only remove components
// *no* registered intent wants. Intents sharing transit devices
// therefore coexist, and withdrawing one goal removes exactly its
// unshared components. The work is incremental (storestate.go): only
// dirty intents recompile, only devices whose observation generation
// moved re-observe, and every mutation is journaled through the
// datastore package when persistence is attached. The diff itself
// (deviceUnion.diff, storestate.go) has one body: a full rematch is the
// delta pass run from empty. NM.Plan / NM.PlanDestroy (intent.go) run it
// over a scratch one-intent store and an empty one.

import (
	"fmt"
	"strings"

	"conman/internal/core"
	"conman/internal/msg"
	"conman/internal/nm/datastore"
)

// DuplicateIntentError reports a Submit of an intent name that is
// already registered. Replacing a live intent is a distinct operation
// (Update) so a name collision between unrelated goals cannot silently
// overwrite desired state.
type DuplicateIntentError struct{ Name string }

func (e *DuplicateIntentError) Error() string {
	return fmt.Sprintf("nm: submit: intent %q is already registered (use Update to replace it)", e.Name)
}

// UnknownIntentError reports an operation on an intent name the store
// does not hold.
type UnknownIntentError struct {
	Op   string // "withdraw" or "update"
	Name string
}

func (e *UnknownIntentError) Error() string {
	return fmt.Sprintf("nm: %s: no intent %q registered", e.Op, e.Name)
}

// Submit registers a new intent (a named connectivity goal) in the NM's
// intent store. Submitting an already-registered name is a typed
// DuplicateIntentError — use Update to replace a live intent.
// Submitting sends nothing: the store only changes desired state, and
// the next Reconcile moves the network toward it.
func (n *NM) Submit(intent Intent) error {
	if intent.Name == "" {
		return fmt.Errorf("nm: submit: intent needs a name")
	}
	n.mu.Lock()
	if _, ok := n.store[intent.Name]; ok {
		n.mu.Unlock()
		return &DuplicateIntentError{Name: intent.Name}
	}
	n.storePos[intent.Name] = n.storeOrder.push(intent.Name)
	n.store[intent.Name] = intent
	n.ssDirty[intent.Name] = true
	// A withdraw-then-resubmit within one reconcile window is a
	// replacement; the dirty mark alone covers it.
	delete(n.ssRemoved, intent.Name)
	err := n.journalLocked(datastore.OpSubmit, intent.Name, intent, 0)
	n.mu.Unlock()
	return err
}

// Update replaces a registered intent's goal in place, keeping its
// submission position. Updating an unknown name is a typed
// UnknownIntentError.
func (n *NM) Update(intent Intent) error {
	if intent.Name == "" {
		return fmt.Errorf("nm: update: intent needs a name")
	}
	n.mu.Lock()
	if _, ok := n.store[intent.Name]; !ok {
		n.mu.Unlock()
		return &UnknownIntentError{Op: "update", Name: intent.Name}
	}
	n.store[intent.Name] = intent
	n.ssDirty[intent.Name] = true
	err := n.journalLocked(datastore.OpUpdate, intent.Name, intent, 0)
	n.mu.Unlock()
	return err
}

// Withdraw removes the named intent from the store. Its configuration
// stays on the devices until the next Reconcile, which prunes exactly
// the components no remaining intent wants (shared pipes and switch
// rules survive as long as another goal still needs them). Withdrawing
// an unknown name is a typed UnknownIntentError.
func (n *NM) Withdraw(name string) error {
	n.mu.Lock()
	if _, ok := n.store[name]; !ok {
		n.mu.Unlock()
		return &UnknownIntentError{Op: "withdraw", Name: name}
	}
	delete(n.store, name)
	delete(n.ssDirty, name)
	n.ssRemoved[name] = true
	n.storeOrder.remove(n.storePos[name])
	delete(n.storePos, name)
	err := n.journalLocked(datastore.OpWithdraw, name, nil, 0)
	n.mu.Unlock()
	return err
}

// Registered returns the store's intents in submission order.
func (n *NM) Registered() []Intent {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Intent, 0, len(n.storeOrder.items))
	for _, name := range n.storeOrder.items {
		out = append(out, n.store[name])
	}
	return out
}

// IntentView is one intent's slice of a StorePlan: the path chosen for
// it, the devices its desired configuration occupies, and how much of
// that configuration it shares with other registered intents.
type IntentView struct {
	// Intent is the registered goal this view describes.
	Intent Intent
	// Path is the module-level path the store compiled for the intent.
	Path *Path
	// Devices lists the devices the intent's configuration occupies.
	Devices []core.DeviceID
	// Exclusive counts desired components only this intent wants;
	// withdrawing the intent removes exactly these.
	Exclusive int
	// Shared counts desired components at least one other registered
	// intent wants too; these survive the intent's withdrawal.
	Shared int
}

// StorePlan is the store-wide reconciliation diff: the union of every
// registered intent's desired configuration, compared against observed
// device state in a single sweep. Like a Plan it is inert — computing
// it sends no configuration commands — and it doubles as the dry-run
// rendering of what Reconcile would do.
type StorePlan struct {
	// Views holds the per-intent breakdown, in submission order. The
	// slice and its elements are shared, immutable snapshots (the store
	// mutates copy-on-write): read freely, never write through them.
	Views []*IntentView
	// Deletes are per-device batches removing components no registered
	// intent wants (switch rules before the pipes they reference).
	Deletes []DeviceScript
	// Creates are per-device batches creating missing components, in
	// first-appearance compiler order across the intents.
	Creates []DeviceScript
	// InPlace counts desired components already configured.
	InPlace int
	// Shared counts distinct desired components wanted by more than one
	// intent (the store's refcounted overlap).
	Shared int
	// Unreachable lists stranded devices (occupied only by withdrawn or
	// rerouted intents) that did not answer showActual — killed or
	// partitioned. Their stale state could not be pruned this pass; the
	// NM remembers them and retries once they answer again.
	Unreachable []core.DeviceID
	// Stats reports how much work computing the plan actually did — the
	// incremental store's cost model (O(changed), not O(store)).
	Stats StoreStats

	// records is the device occupancy of intents whose contributions
	// changed this pass (a delta, not the whole store); a successful
	// ApplyStore merges it into the NM's memory.
	records map[string][]core.DeviceID
	// removedIntents are withdrawn intents whose occupancy records a
	// successful ApplyStore retires.
	removedIntents []string
	// pruned lists stranded devices that were observed (and cleaned)
	// this pass; ApplyStore clears their stale mark.
	pruned []core.DeviceID
	// handleDeps are the (provider, component) pairs desired rules embed
	// resolved handles from; ApplyStore installs triggers for them
	// (§II-E).
	handleDeps []handleDep
	// createBinds aligns, per device, with that device's Creates items:
	// the union components each created item realises, so ApplyStore can
	// bind them to the ids the device reports (write-through instead of
	// a re-observe).
	createBinds map[core.DeviceID][]bindTarget
	// pass ties the plan to the storeState generation it was computed
	// from; ApplyStore refuses a plan superseded by a newer PlanStore.
	pass uint64
	// applied guards against executing the same plan's batches twice.
	applied bool
}

// StoreStats quantifies one PlanStore pass.
type StoreStats struct {
	// Recompiled counts intents compiled this pass (dirty ones only,
	// unless a compile-input change forced a full rebuild).
	Recompiled int
	// Observed counts devices fetched fresh via showActual (including
	// stranded devices, which are always probed for liveness).
	Observed int
	// CacheHits / CacheMisses count occupied devices served from the
	// observation cache vs re-observed because their generation moved.
	CacheHits   int
	CacheMisses int
	// DiffedDevices counts devices whose union was diffed at all;
	// devices with a valid cache and no pending changes are skipped.
	DiffedDevices int
	// FullRebuild reports that compile inputs changed (topology, module
	// discovery, domain bindings) and the whole union was rebuilt.
	FullRebuild bool
}

// bindTarget is the union component a created batch item realises.
// Exactly one field is set.
type bindTarget struct {
	pipe  *unionPipe
	rule  *unionRule
	other *unionOther
}

// Empty reports whether applying the store plan would send no commands.
func (p *StorePlan) Empty() bool { return len(p.Deletes) == 0 && len(p.Creates) == 0 }

// Render prints the store plan dry-run style: every intent's chosen
// path, every command Reconcile would send (shared components annotated
// with their owning intents), and a summary line.
func (p *StorePlan) Render() string {
	var b strings.Builder
	noun := "intents"
	if len(p.Views) == 1 {
		noun = "intent"
	}
	fmt.Fprintf(&b, "store plan (%d %s)\n", len(p.Views), noun)
	for _, v := range p.Views {
		fmt.Fprintf(&b, "  intent %q", v.Intent.Name)
		if v.Path != nil {
			fmt.Fprintf(&b, " — path %s: %s", v.Path.Describe(), v.Path.Modules())
		}
		fmt.Fprintf(&b, " (%d exclusive, %d shared components)\n", v.Exclusive, v.Shared)
	}
	renderBatches(&b, p.Deletes, p.Creates, p.InPlace, fmt.Sprintf(", %d shared", p.Shared))
	return b.String()
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

// unionItem keeps the per-device first-appearance order of desired
// components, so create batches read like a from-scratch script.
// Exactly one field is set.
type unionItem struct {
	pipe  *unionPipe
	rule  *unionRule
	other *unionOther
}

// unionOther is a non-diffed desired item (filters and future command
// kinds); it executes once, attributed to the intent that wants it.
type unionOther struct {
	item     msg.CommandItem
	rendered string
	owner    string
	done     bool
	gone     bool
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

// gone reports whether an item is tombstoned.
func (it unionItem) isGone() bool {
	switch {
	case it.pipe != nil:
		return it.pipe.gone
	case it.rule != nil:
		return it.rule.gone
	case it.other != nil:
		return it.other.gone
	}
	return true
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
			seq := owners.push(name)
			ss.ownerAdded(owners.items)
			contrib.refs = append(contrib.refs, contribRef{du: du, it: it, seq: seq})
		}
		// local maps this intent's compile-time pipe ids (device-scoped
		// P0, P1, ...) to their union pipes.
		local := make(map[core.PipeID]*unionPipe)
		for i, item := range ds.Items {
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
				uo := unionItem{other: &unionOther{item: item, rendered: ds.Rendered[i], owner: name}}
				add(uo)
				ss.ownerAdded([]string{name})
				contrib.refs = append(contrib.refs, contribRef{du: du, it: uo})
			}
		}
	}
	return nil
}

// ownersSuffix annotates a rendered create line with the owning intents
// when a component is shared.
func ownersSuffix(owners []string) string {
	if len(owners) < 2 {
		return ""
	}
	return "  [shared: " + strings.Join(owners, ", ") + "]"
}

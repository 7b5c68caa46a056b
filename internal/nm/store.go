package nm

// The intent store: the NM holds the full set of high-level goals and
// derives device configuration from their union (the paper's "NM holds
// all the goals" model, §III). Submit, Update and Withdraw register,
// replace and remove goals; Reconcile merges the desired configuration
// per device with ownership tracking, diffs the union against observed
// state, and sends create/delete batches that only remove components
// *no* registered intent wants. Intents sharing transit devices
// therefore coexist, and withdrawing one goal removes exactly its
// unshared components. The union and its merge live in union.go, the
// observed state in observed.go, and the one diff (deviceUnion.diff) in
// diff.go: a full rematch is the delta pass run from empty. The work is
// incremental (storestate.go): only dirty intents recompile, only
// devices whose observation generation moved re-observe, and every
// mutation is journaled through the datastore package when persistence
// is attached — before it changes memory, so a mutation whose append
// fails is not made. NM.Plan (intent.go) is the one-intent way
// in: it registers the intent and runs PlanStore over a fresh
// observation.

import (
	"fmt"
	"strings"

	"conman/internal/core"
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
	defer n.mu.Unlock()
	if _, ok := n.store[intent.Name]; ok {
		return &DuplicateIntentError{Name: intent.Name}
	}
	if err := n.journalLocked(datastore.OpSubmit, intent.Name, intent, 0); err != nil {
		return err
	}
	n.storePos[intent.Name] = n.storeOrder.push(intent.Name)
	n.store[intent.Name] = intent
	n.ssDirty[intent.Name] = true
	// A withdraw-then-resubmit within one reconcile window is a
	// replacement; the dirty mark alone covers it.
	delete(n.ssRemoved, intent.Name)
	return nil
}

// Update replaces a registered intent's goal in place, keeping its
// submission position. Updating an unknown name is a typed
// UnknownIntentError.
func (n *NM) Update(intent Intent) error {
	if intent.Name == "" {
		return fmt.Errorf("nm: update: intent needs a name")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.store[intent.Name]; !ok {
		return &UnknownIntentError{Op: "update", Name: intent.Name}
	}
	if err := n.journalLocked(datastore.OpUpdate, intent.Name, intent, 0); err != nil {
		return err
	}
	n.store[intent.Name] = intent
	n.ssDirty[intent.Name] = true
	return nil
}

// Withdraw removes the named intent from the store. Its configuration
// stays on the devices until the next Reconcile, which prunes exactly
// the components no remaining intent wants (shared pipes and switch
// rules survive as long as another goal still needs them). Withdrawing
// an unknown name is a typed UnknownIntentError.
func (n *NM) Withdraw(name string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.store[name]; !ok {
		return &UnknownIntentError{Op: "withdraw", Name: name}
	}
	if err := n.journalLocked(datastore.OpWithdraw, name, nil, 0); err != nil {
		return err
	}
	delete(n.store, name)
	delete(n.ssDirty, name)
	n.ssRemoved[name] = true
	n.storeOrder.remove(n.storePos[name])
	delete(n.storePos, name)
	return nil
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

// IntentView is one intent's slice of a Plan: the path chosen for
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

// Plan is the store-wide reconciliation diff: the union of every
// registered intent's desired configuration, compared against observed
// device state in a single sweep. It is inert — computing it sends no
// configuration commands — so it doubles as the dry-run rendering of
// what Apply (or Reconcile) would do.
type Plan struct {
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
	// Apply merges it into the NM's memory.
	records map[string][]core.DeviceID
	// removedIntents are withdrawn intents whose occupancy records a
	// successful Apply retires.
	removedIntents []string
	// pruned lists stranded devices that were observed (and cleaned)
	// this pass; Apply clears their stale mark.
	pruned []core.DeviceID
	// handleDeps are the (provider, component) pairs installed rules
	// embed handles from — the kept ones the diff found and the ones
	// Apply's creates reported; Apply installs triggers for them (§II-E).
	handleDeps []handleDep
	// createBinds aligns, per device, with that device's Creates items:
	// the union components each created item realises, so Apply can
	// bind them to the ids the device reports (write-through instead of
	// a re-observe).
	createBinds map[core.DeviceID][]unionItem
	// pass ties the plan to the storeState generation it was computed
	// from; Apply refuses a plan superseded by a newer PlanStore.
	pass uint64
	// applied guards against executing the same plan's batches twice.
	applied bool
}

// StorePlan is Plan's former name, kept only because the benchmark
// module (bench/storechurn.go) still spells it.
//
// Deprecated: use Plan.
type StorePlan = Plan

// StoreStats quantifies one PlanStore pass.
type StoreStats struct {
	// Recompiled counts intents compiled this pass (dirty ones only,
	// unless a compile-input change forced a full rebuild).
	Recompiled int
	// Observed counts devices fetched fresh via showActual (including
	// stranded devices, which are always probed for liveness).
	Observed int
	// Unchanged counts the Observed requests answered "unchanged": the
	// device's body still had the cached observation's digest, so no
	// state crossed the channel.
	Unchanged int
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

// Empty reports whether applying the plan would send no commands.
func (p *Plan) Empty() bool { return len(p.Deletes) == 0 && len(p.Creates) == 0 }

// Render prints the plan dry-run style: every intent's chosen path,
// every command Apply would send, one "device: command" line apiece
// (deletes first, shared components annotated with their owning
// intents), and a summary line.
func (p *Plan) Render() string {
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
	for _, scripts := range [][]DeviceScript{p.Deletes, p.Creates} {
		for _, ds := range scripts {
			for _, line := range ds.Rendered {
				fmt.Fprintf(&b, "  %s: %s\n", ds.Device, line)
			}
		}
	}
	if nc, nd := batchCounts(p.Creates, p.Deletes); nc+nd == 0 {
		fmt.Fprintf(&b, "  no changes (%d components in place, %d shared)\n", p.InPlace, p.Shared)
	} else {
		fmt.Fprintf(&b, "  %d to create, %d to delete, %d in place, %d shared\n", nc, nd, p.InPlace, p.Shared)
	}
	return b.String()
}

// batchCounts counts the commands in a plan's create and delete batches.
func batchCounts(creates, deletes []DeviceScript) (nc, nd int) {
	for _, ds := range creates {
		nc += len(ds.Items)
	}
	for _, ds := range deletes {
		nd += len(ds.Items)
	}
	return nc, nd
}

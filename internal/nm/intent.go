package nm

import (
	"fmt"
	"sort"
	"strings"

	"conman/internal/core"
	"conman/internal/msg"
)

// Intent is a declarative connectivity goal: the NM holds it as desired
// state and can (re)derive device configuration from it at any time —
// the paper's model of a manager that keeps high-level goals and
// re-invokes configuration after failures (§II, §IV). An Intent is
// side-effect free; Plan computes what would change and Apply reconciles
// the network toward it.
type Intent struct {
	// Name identifies the intent in plan renderings.
	Name string
	// Goal is the high-level connectivity goal (§III-C).
	Goal Goal
	// Prefer pins a path flavour by its Describe() string ("GRE-IP
	// tunnel", "MPLS", "VLAN tunnel"); empty selects the paper's path
	// selector (minimise pipes, prefer fast forwarding).
	Prefer string
	// MaxPaths bounds the path search (0 = DefaultMaxPaths): the
	// enumeration cap in Exhaustive mode, a safety valve otherwise.
	MaxPaths int
	// Exhaustive compiles through the legacy enumerate-then-filter
	// finder instead of the default best-first search (A/B testing;
	// infeasible on long L2 chains, where the enumeration cap truncates
	// the variant space).
	Exhaustive bool
}

// Plan is the diff between an intent's desired configuration and the
// device state the NM observed via showActual: per-device delete batches
// for stale components and create batches for missing ones. A Plan is
// inert until Apply executes it, so it doubles as the dry-run rendering.
type Plan struct {
	Intent Intent
	// Path is the chosen module-level path (nil for destroy plans the
	// intent could no longer resolve).
	Path *Path
	// Deletes are per-device batches removing stale components (switch
	// rules first, then pipes). Executed before Creates.
	Deletes []DeviceScript
	// Creates are per-device batches creating missing components, in
	// compiler order.
	Creates []DeviceScript
	// InPlace counts desired components that were already configured and
	// therefore appear in neither batch.
	InPlace int
	// Unreachable lists stranded devices (previously touched, off the
	// current path) that could not be observed — killed or partitioned.
	// Their stale state cannot be pruned this pass; the NM remembers
	// them and retries when they answer again.
	Unreachable []core.DeviceID

	// touched is the device set of the intent's current path; a
	// successful Apply records it so later Plans prune devices the path
	// migrated away from. Destroy plans leave it nil, which retires the
	// record.
	touched []core.DeviceID
	// pruned lists devices that were observed and diffed against an empty
	// union (stranded ones, and every device of a destroy plan); Apply
	// clears their stale mark.
	pruned []core.DeviceID
	// handleDeps are the (provider, component) pairs desired rules embed
	// resolved handles from; Apply installs triggers for them (§II-E).
	handleDeps []handleDep
}

// Empty reports whether applying the plan would send no commands.
func (p *Plan) Empty() bool { return len(p.Deletes) == 0 && len(p.Creates) == 0 }

// Render prints the plan in the dry-run style of declarative tooling:
// every command that Apply would send, per device, plus a summary line.
func (p *Plan) Render() string {
	var b strings.Builder
	title := p.Intent.Name
	if title == "" {
		title = "(unnamed)"
	}
	fmt.Fprintf(&b, "plan for intent %q", title)
	if p.Path != nil {
		fmt.Fprintf(&b, " — path %s: %s", p.Path.Describe(), p.Path.Modules())
	}
	b.WriteString("\n")
	renderBatches(&b, p.Deletes, p.Creates, p.InPlace, "")
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

// renderBatches is the body every plan rendering shares: each command of
// the delete batches, then of the create batches, one "device: command"
// line apiece, and the summary line (tally, when set, extends it with a
// plan-specific count).
func renderBatches(b *strings.Builder, deletes, creates []DeviceScript, inPlace int, tally string) {
	for _, scripts := range [][]DeviceScript{deletes, creates} {
		for _, ds := range scripts {
			for _, line := range ds.Rendered {
				fmt.Fprintf(b, "  %s: %s\n", ds.Device, line)
			}
		}
	}
	if nc, nd := batchCounts(creates, deletes); nc+nd == 0 {
		fmt.Fprintf(b, "  no changes (%d components in place%s)\n", inPlace, tally)
	} else {
		fmt.Fprintf(b, "  %d to create, %d to delete, %d in place%s\n", nc, nd, inPlace, tally)
	}
}

// graph returns the potential-connectivity graph for the NM's current
// compile generation, rebuilding only when discovery, topology or
// domain knowledge moved since the last build. Cache misses rebuild
// outside n.mu (BuildGraph takes it internally); a generation that
// moved mid-build simply leaves the cache unset for the next caller.
func (n *NM) graph() (*Graph, error) {
	n.mu.Lock()
	gen := n.compileGen
	if g := n.graphCache; g != nil && n.graphGen == gen {
		n.mu.Unlock()
		return g, nil
	}
	n.mu.Unlock()
	g, err := BuildGraph(n)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	if n.compileGen == gen {
		n.graphCache, n.graphGen = g, gen
	}
	n.mu.Unlock()
	return g, nil
}

// compileIntent resolves an intent to its chosen path and the full
// desired per-device scripts (what a from-scratch configuration would
// execute).
func (n *NM) compileIntent(intent Intent) (*Path, []DeviceScript, error) {
	g, err := n.graph()
	if err != nil {
		return nil, nil, err
	}
	chosen, stats, err := g.FindBest(FindSpec{
		From:          intent.Goal.From,
		To:            intent.Goal.To,
		TrafficDomain: intent.Goal.TrafficDomain,
		FromPipe:      intent.Goal.FromPipe,
		ToPipe:        intent.Goal.ToPipe,
		MaxPaths:      intent.MaxPaths,
		Prefer:        intent.Prefer,
		Exhaustive:    intent.Exhaustive,
	})
	if err != nil {
		return nil, nil, err
	}
	if chosen == nil {
		if stats.PreferUnknown {
			return nil, nil, fmt.Errorf("nm: intent %q: no %q path found — %q is not a path flavour the finder recognises (want a Describe() string such as \"GRE-IP tunnel\", \"MPLS\" or \"VLAN tunnel\"), so the search ran undirected", intent.Name, intent.Prefer, intent.Prefer)
		}
		if intent.Prefer != "" {
			return nil, nil, fmt.Errorf("nm: intent %q: no %q path found", intent.Name, intent.Prefer)
		}
		return nil, nil, fmt.Errorf("nm: intent %q: no path satisfies the goal", intent.Name)
	}
	scripts, err := n.Compile(chosen, intent.Goal)
	if err != nil {
		return nil, nil, err
	}
	return chosen, scripts, nil
}

// observed is the NM's per-device view of configured components, built
// from showActual.
type observed struct {
	// pipes maps a pipe id to the (upper, lower) modules it connects
	// and their remote peers. Physical pipes are excluded: the NM
	// cannot create or delete them.
	pipes map[core.PipeID]obsPipe
	// rules lists installed switch rules across the device's modules.
	rules []obsRule

	// The remaining fields are the diff's binding indexes, lazily built
	// by ensureIndex (storestate.go); a bare observed as observe() or a
	// test constructs it carries none of them.

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
	// below its To pipe (core.CanonicalHandle form), as the installing
	// module reported it; stale handles force replacement (§II-E).
	handle string
	used   bool
}

func classifierKey(c *core.Classifier) string {
	if c == nil {
		return ""
	}
	return c.Kind + "=" + c.Value
}

// observe fetches showActual for every device and condenses it into the
// diffable view. Devices are queried on the NM's worker pool. Devices in
// the optional set (stranded: previously touched, off every current
// path) may fail to answer — a killed device must not wedge
// reconciliation of the survivors — and are returned as unreachable
// with no entry in the map.
func (n *NM) observe(devs []core.DeviceID, optional map[core.DeviceID]bool) (map[core.DeviceID]*observed, []core.DeviceID, error) {
	out := make([]*observed, len(devs))
	unreach := make([]bool, len(devs))
	err := n.forEach(len(devs), func(i int) error {
		states, err := n.ShowActual(devs[i])
		if err != nil {
			if optional[devs[i]] {
				unreach[i] = true
				return nil
			}
			return err
		}
		o := &observed{pipes: make(map[core.PipeID]obsPipe)}
		for _, st := range states {
			for _, ps := range st.Pipes {
				// The module below a pipe reports it as an up pipe (Other
				// = the module above, Peer = its own remote peer); the
				// module above reports the same pipe as a down pipe
				// carrying the upper-side peer. Physical pipes are not
				// diffable.
				switch ps.End {
				case core.EndUp:
					op := o.pipes[ps.ID]
					op.upper, op.lower, op.lowerPeer = ps.Other, st.Ref, ps.Peer
					o.pipes[ps.ID] = op
				case core.EndDown:
					op := o.pipes[ps.ID]
					op.upperPeer = ps.Peer
					o.pipes[ps.ID] = op
				}
			}
			for _, r := range st.SwitchRules {
				o.rules = append(o.rules, obsRule{
					id: r.ID, module: st.Ref,
					from: r.From, to: r.To,
					match: classifierKey(r.Match), via: r.Via,
					matchResolved: r.MatchResolved, viaResolved: r.ViaResolved,
					handle: r.HandleResolved,
				})
			}
		}
		out[i] = o
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m := make(map[core.DeviceID]*observed, len(devs))
	var unreachable []core.DeviceID
	for i, d := range devs {
		if unreach[i] {
			unreachable = append(unreachable, d)
			continue
		}
		m[d] = out[i]
	}
	sort.Slice(unreachable, func(i, j int) bool { return unreachable[i] < unreachable[j] })
	return m, unreachable, nil
}

// optionalSet builds the observe() optional set from a stranded list.
func optionalSet(stranded []core.DeviceID) map[core.DeviceID]bool {
	if len(stranded) == 0 {
		return nil
	}
	set := make(map[core.DeviceID]bool, len(stranded))
	for _, d := range stranded {
		set[d] = true
	}
	return set
}

func scriptDevices(scripts []DeviceScript) []core.DeviceID {
	out := make([]core.DeviceID, len(scripts))
	for i := range scripts {
		out[i] = scripts[i].Device
	}
	return out
}

// strandedDevices returns the devices a previous Apply of this intent
// touched that the current path no longer visits, in sorted order.
func (n *NM) strandedDevices(intentName string, current []core.DeviceID) []core.DeviceID {
	if intentName == "" {
		return nil
	}
	cur := make(map[core.DeviceID]bool, len(current))
	for _, d := range current {
		cur[d] = true
	}
	set := make(map[core.DeviceID]bool)
	n.mu.Lock()
	for d := range n.intentDevs[intentName] {
		if !cur[d] {
			set[d] = true
		}
	}
	// Devices that were unreachable when a previous pass wanted to prune
	// them: keep trying until they answer.
	for d := range n.staleDevs {
		if !cur[d] {
			set[d] = true
		}
	}
	n.mu.Unlock()
	return sortedKeys(set)
}

// deleteItem builds one delete command plus its rendering.
func deleteItem(req core.DeleteRequest) (msg.CommandItem, string) {
	return msg.CommandItem{Delete: &msg.DeleteReq{Req: req}},
		fmt.Sprintf("delete (%s, %s, %s)", req.Kind, req.Module, req.ID)
}

// Plan computes the reconciliation diff for an intent: it compiles the
// desired configuration, observes the actual state of every device on
// the chosen path — plus any device a previous Apply of this intent
// touched that the path has since migrated away from — and returns
// per-device batches that create what is missing and delete what is
// stale. It is the store's own pass over a scratch one-intent store —
// the same merge, the same rematch (deviceUnion.diff) — so the
// per-intent contract is ownership: the intent owns every device it
// touches, and anything observed there that it does not want is stale.
// Installed pipes are matched by content and keep their wire ids.
// Planning sends no configuration commands;
// Apply(plan) twice in a row therefore sends zero commands on the
// second pass.
func (n *NM) Plan(intent Intent) (*Plan, error) { return n.planIntent(intent, false) }

// PlanDestroy computes the teardown plan for an intent: the same
// rematch with nothing merged, so every switch rule and NM-created pipe
// observed on the intent's devices is deleted (rules first, then pipes).
// Planning sends no configuration commands.
func (n *NM) PlanDestroy(intent Intent) (*Plan, error) { return n.planIntent(intent, true) }

func (n *NM) planIntent(intent Intent, destroy bool) (*Plan, error) {
	path, desired, err := n.compileIntent(intent)
	if err != nil {
		return nil, err
	}
	devs := scriptDevices(desired)
	// Devices a previous Apply of this intent touched but the current
	// path avoids (e.g. rerouted around a failure): everything on them
	// is stale. Unreachable ones are skipped and remembered.
	stranded := n.strandedDevices(intent.Name, devs)
	all := append(append([]core.DeviceID(nil), stranded...), devs...)
	obs, unreachable, err := n.observe(all, optionalSet(stranded))
	if err != nil {
		return nil, err
	}
	plan := &Plan{Intent: intent, Path: path, Unreachable: unreachable}
	ss := newStoreState()
	if !destroy {
		if err := ss.merge(intent.Name, desired); err != nil {
			return nil, err
		}
		plan.touched = devs
	}
	var diff StorePlan
	for _, dev := range all {
		o := obs[dev]
		if o == nil {
			continue
		}
		du := ss.unions[dev]
		if du == nil {
			du = &deviceUnion{dev: dev}
			plan.pruned = append(plan.pruned, dev)
		}
		du.diff(n, o, &diff, true)
	}
	plan.Deletes, plan.Creates = diff.Deletes, diff.Creates
	plan.InPlace, plan.handleDeps = diff.InPlace, diff.handleDeps
	return plan, nil
}

// Apply reconciles the network toward the plan's intent: stale
// components are deleted first, then missing ones created, both through
// the chain executor (one batch per device per phase, concurrently
// across devices unless n.Sequential). Applying an empty plan sends
// nothing; applying the same intent's fresh Plan right after a
// successful Apply is therefore a no-op.
func (n *NM) Apply(plan *Plan) error {
	// The per-intent path writes device state behind the store's
	// observation cache, so every touched device's generation is bumped
	// and the next store pass observes it fresh.
	touched := make(map[core.DeviceID]bool)
	for _, ds := range plan.Deletes {
		touched[ds.Device] = true
	}
	for _, ds := range plan.Creates {
		touched[ds.Device] = true
	}
	defer n.invalidateDevices(touched)
	if len(plan.Deletes) > 0 {
		if err := n.Execute(plan.Deletes); err != nil {
			return fmt.Errorf("nm: apply %q (teardown phase): %w", plan.Intent.Name, err)
		}
	}
	if len(plan.Creates) > 0 {
		if err := n.Execute(plan.Creates); err != nil {
			return fmt.Errorf("nm: apply %q: %w", plan.Intent.Name, err)
		}
	}
	// Dependency maintenance (§II-E): watch every provider component a
	// desired rule embeds handles from, so churn fires a Trigger.
	if err := n.installHandleTriggers(plan.handleDeps); err != nil {
		return fmt.Errorf("nm: apply %q (triggers): %w", plan.Intent.Name, err)
	}
	n.markStale(plan.pruned, plan.Unreachable)
	if plan.Intent.Name != "" {
		n.planMu.Lock()
		n.mu.Lock()
		n.recordOccupancyLocked(plan.Intent.Name, plan.touched)
		n.mu.Unlock()
		n.planMu.Unlock()
	}
	return nil
}

// Destroy tears an intent's configuration back down: it plans the
// teardown against observed state and applies it, returning the plan
// that was executed.
func (n *NM) Destroy(intent Intent) (*Plan, error) {
	plan, err := n.PlanDestroy(intent)
	if err != nil {
		return nil, err
	}
	if err := n.Apply(plan); err != nil {
		return plan, err
	}
	return plan, nil
}

package nm

// The incremental store engine (ROADMAP: persistent, incremental intent
// datastore). storeState lives across reconcile passes, guarded by
// NM.planMu: the merged per-device unions (union.go), each intent's
// contribution refs into them, per-intent sharing views, and the
// observed-state cache (observed.go). A pass only pays for what changed
// — dirty intents recompile, devices whose observation generation moved
// re-observe, and devices with a valid, fully bound cache entry diff in
// O(pending work) or are skipped outright. There is one diff
// (deviceUnion.diff, diff.go): a rematch is the same pass over pending
// work, run from empty. This file is the NM's side: PlanStore, Apply and
// Reconcile, which hold the locks, fetch observations, journal, execute
// and invalidate the cache; and the occupancy records.

import (
	"fmt"
	"slices"
	"sort"

	"conman/internal/core"
	"conman/internal/nm/datastore"
)

// obsEntry is one device's cached observation, tagged with the
// generation it was fetched at. The entry is *valid* while the device's
// observation generation still equals gen (no event since the fetch)
// and *synced* once a rematch has bound the union against it — only
// then can a later pass trust the recorded bindings and diff just the
// pending work. digest is the MA's digest of the showActual body o was
// condensed from, so an invalid entry is re-read conditionally: an
// unchanged answer makes it valid again as it stands. Every write-through
// to o (forgetDeleted, bindCreated) clears it — o then describes a body
// the device never sent, which an out-of-band change could bring the
// device back to.
type obsEntry struct {
	gen    uint64
	o      *observed
	synced bool
	digest string
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
	// pass would defeat O(changed)), so it is copy-on-write: the first
	// viewsCaptured slots are a captured snapshot's, and a mutator that
	// writes one of them clones the slice first — bumpView clones the
	// element too — leaving captured snapshots untouched. Slots past
	// viewsCaptured are written in place, so registering a new intent
	// (its view goes at the end) copies nothing.
	views         seqList[*IntentView]
	viewIdx       map[string]uint64
	viewsCaptured int
	// shared counts distinct components with more than one owner.
	shared int
	// claimSeq numbers owner claims store-wide, in merge and script
	// order, so a component's first claim orders it as a rebuilt union
	// would; bindPending numbers fresh pipes by it.
	claimSeq uint64
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
	ss.viewsCaptured = 0
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
		i, _ := slices.BinarySearch(ss.views.seqs, seq)
		ss.ownViews(i)
		// Clone the element too: a snapshot captured before the last
		// ownViews clone may still point at the old struct.
		v := *ss.views.items[i]
		v.Exclusive += dExclusive
		v.Shared += dShared
		ss.views.items[i] = &v
	}
}

// ownViews makes the views slice writable from slot i on, cloning it if
// a Plan snapshot captured slot i. Inserting or deleting at i writes
// only slots i and later, so a write past the captured prefix needs no
// clone. The clone copies pointers only; elements are cloned
// individually by their mutators.
func (ss *storeState) ownViews(i int) {
	if i >= ss.viewsCaptured {
		return
	}
	ss.views.items = append([]*IntentView(nil), ss.views.items...)
	ss.viewsCaptured = 0
}

// captureViews returns the views for a Plan without copying them
// (O(changed), not O(store)): a mutator clones the slice before it next
// writes a captured slot, and elements are effectively immutable once
// captured. The capacity is cut at the length, so an append to the
// result cannot write into the slots the store still fills in place.
func (ss *storeState) captureViews() []*IntentView {
	ss.viewsCaptured = len(ss.views.items)
	return ss.views.items[:ss.viewsCaptured:ss.viewsCaptured]
}

// setView installs (or replaces) an intent's view under its registration
// number seq with zeroed sharing counts; the subsequent merge
// re-accumulates them.
func (ss *storeState) setView(seq uint64, v IntentView) {
	ss.removeView(v.Intent.Name)
	i, _ := slices.BinarySearch(ss.views.seqs, seq)
	ss.ownViews(i)
	ss.viewIdx[v.Intent.Name] = seq
	ss.views.put(seq, &v)
}

func (ss *storeState) removeView(name string) {
	if seq, ok := ss.viewIdx[name]; ok {
		i, _ := slices.BinarySearch(ss.views.seqs, seq)
		ss.ownViews(i)
		ss.views.remove(seq)
		delete(ss.viewIdx, name)
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
		ss.contribs[name] = &intentContrib{devices: devs}
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
	// classify picks the work on a device whose cached entry is current.
	classify := func(dev core.DeviceID, du *deviceUnion, ce *obsEntry) {
		switch {
		case !ce.synced:
			// Cached observation is current but the union was rebuilt
			// (or restored): rematch against the cache.
			action[dev] = actRematch
		case du.hasWork():
			action[dev] = actDelta
		default:
			plan.InPlace += du.bound
		}
	}
	for _, dev := range ss.order {
		du := ss.unions[dev]
		if du == nil || du.live == 0 {
			continue
		}
		occupied[dev] = true
		ce := ss.cache[dev]
		if ce == nil || ce.o == nil || ce.gen != gens[dev] {
			// An event moved the generation (or we never looked):
			// observe again, conditional on the cached digest.
			required = append(required, dev)
			plan.Stats.CacheMisses++
			continue
		}
		classify(dev, du, ce)
		plan.Stats.CacheHits++
	}

	// Stranded devices — occupied only by withdrawn or rerouted goals,
	// or flagged unreachable-with-stale-state — are always probed:
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

	obs, unreachable, err := n.observeLocked(
		append(append([]core.DeviceID(nil), required...), stranded...),
		strandedSet)
	if err != nil {
		return nil, err
	}
	plan.Unreachable = unreachable
	plan.Stats.Observed = len(obs)
	// refresh makes a device's cache entry current: an unchanged answer
	// keeps the cached observation and its bindings, a full one replaces
	// both.
	refresh := func(dev core.DeviceID, r obsRead) (ce *obsEntry, unchanged bool) {
		if ce = ss.cache[dev]; r.unchanged {
			plan.Stats.Unchanged++
			ce.gen = gens[dev]
			return ce, true
		}
		ce = &obsEntry{gen: gens[dev], o: r.o, digest: r.digest}
		ss.cache[dev] = ce
		return ce, false
	}
	for _, dev := range required {
		if ce, unchanged := refresh(dev, obs[dev]); unchanged {
			classify(dev, ss.unions[dev], ce)
		} else {
			action[dev] = actRematch
		}
	}

	// Prune stranded devices first (their whole observed state is
	// stale); unreachable ones are skipped and remembered.
	for _, dev := range stranded {
		r, ok := obs[dev]
		if !ok {
			continue
		}
		ce, _ := refresh(dev, r)
		ce.synced = false
		plan.pruned = append(plan.pruned, dev)
		(&deviceUnion{dev: dev}).diff(ce.o, plan, true)
		if du := ss.unions[dev]; du != nil {
			du.pendingDelRules, du.pendingDelPipes, du.newItems = nil, nil, nil
		}
	}

	for _, dev := range ss.order {
		if act := action[dev]; act != actSkip {
			ce := ss.cache[dev]
			ss.unions[dev].diff(ce.o, plan, act == actRematch)
			ce.synced = true
			plan.Stats.DiffedDevices++
		}
	}

	plan.Views = ss.captureViews()
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

// obsRead is one device's answer to observe: a fresh observation and
// the digest of the body it was condensed from, or unchanged — the body
// still has the cached entry's digest, so the cached observation stands.
type obsRead struct {
	o         *observed
	digest    string
	unchanged bool
}

// observeLocked fetches showActual for every device on the NM's worker
// pool and condenses it into the diffable view (observedFrom). A device
// with a cached digest is asked conditionally and may answer unchanged.
// Devices in the optional set (stranded: previously touched, off every
// current path) may fail to answer — a killed device must not wedge
// reconciliation of the survivors — and are returned as unreachable with
// no entry in the map. Caller holds planMu.
func (n *NM) observeLocked(devs []core.DeviceID, optional map[core.DeviceID]bool) (map[core.DeviceID]obsRead, []core.DeviceID, error) {
	digests := make([]string, len(devs))
	for i, dev := range devs {
		if ce := n.ss.cache[dev]; ce != nil && ce.o != nil {
			digests[i] = ce.digest
		}
	}
	out := make([]obsRead, len(devs))
	unreach := make([]bool, len(devs))
	err := n.forEach(len(devs), func(i int) error {
		body, err := n.showActualIf(devs[i], digests[i])
		if err != nil {
			if optional[devs[i]] {
				unreach[i] = true
				return nil
			}
			return err
		}
		switch {
		case !body.Unchanged:
			out[i] = obsRead{o: observedFrom(body.Modules), digest: body.Digest}
		case digests[i] == "" || body.Digest != digests[i]:
			return fmt.Errorf("nm: showActual on %s: unchanged against digest %q, asked %q", devs[i], body.Digest, digests[i])
		default:
			out[i] = obsRead{digest: body.Digest, unchanged: true}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	m := make(map[core.DeviceID]obsRead, len(devs))
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

// Apply executes a plan — stale components deleted first, missing ones
// created — then binds the created components to the ids the devices
// reported, writing them through the observation cache so the next pass
// needs no re-observe. On success it commits the plan's occupancy-record
// delta; the apply-begin it journaled first (when persistence is
// attached) is all a restart needs of it. A plan
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
		n.mu.Unlock()
		if jerr != nil {
			return jerr
		}
	}

	if len(plan.Deletes) > 0 {
		if _, err := n.executeCollect(plan.Deletes); err != nil {
			n.invalidateDevices(scriptDeviceSet(plan.Deletes))
			return fmt.Errorf("nm: reconcile (teardown phase): %w", err)
		}
		// Write the deletions through the observation cache and retire
		// the queued work they came from.
		for _, ds := range plan.Deletes {
			if ce := ss.cache[ds.Device]; ce != nil && ce.o != nil {
				ce.o.forgetDeleted(ds.Items)
				ce.digest = ""
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
			return fmt.Errorf("nm: reconcile: %w", err)
		}
		// Bind what each batch created, writing it through the cache; a
		// device whose results cannot be taken at face value is observed
		// fresh next pass.
		for i, ds := range plan.Creates {
			ce, du := ss.cache[ds.Device], ss.unions[ds.Device]
			if ce == nil || ce.o == nil || du == nil {
				n.invalidateDevice(ds.Device)
				continue
			}
			ce.digest = ""
			if du.bindCreated(ce.o, plan, resps[i].Results) {
				n.invalidateDevice(ds.Device)
			}
		}
	}

	// Dependency maintenance (§II-E): watch every provider component a
	// kept or just-installed rule embeds a handle from, so churn fires a
	// Trigger.
	if err := n.installHandleTriggers(plan.handleDeps); err != nil {
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
	j := n.journal
	n.mu.Unlock()
	if j != nil && j.SnapshotDue(autoSnapshotEvery) {
		if err := n.checkpointLocked(); err != nil {
			return fmt.Errorf("nm: apply: checkpoint: %w", err)
		}
	}
	return nil
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

package nm

// Persistence for the intent store: every Submit/Update/Withdraw
// appends to a datastore journal, Apply journals an apply-begin record
// naming the devices before it writes to them, and Checkpoint writes a
// full snapshot (intents, NM knowledge, observation cache). Persist
// restores all of it on restart, so a recovered daemon reaches the same
// Plan without re-observing devices that did not change while it was
// down.

import (
	"encoding/json"
	"fmt"
	"maps"

	"conman/internal/core"
	"conman/internal/msg"
	"conman/internal/nm/datastore"
)

// autoSnapshotEvery is the entry floor of the checkpoint cadence:
// Apply checkpoints once at least this many entries and at least the
// last snapshot's size in bytes were journaled past it (the why is on
// datastore.Log.SnapshotDue); small stores only ever meet the floor.
const autoSnapshotEvery = 128

// journalLocked appends one entry to the attached journal (a no-op
// without persistence). Caller holds n.mu.
func (n *NM) journalLocked(op datastore.Op, name string, data any, to uint64) error {
	if n.journal == nil {
		return nil
	}
	if _, err := n.journal.Append(op, name, data, to); err != nil {
		return fmt.Errorf("nm: journal: %w", err)
	}
	n.journalEntries++
	return nil
}

// snapshotV1 is the on-disk snapshot: the intent store plus everything
// the NM learned over the management channel that a restarted process
// would otherwise have to rediscover, including the observed-state
// cache so recovery costs zero showActual calls for unchanged devices.
// I is datastore.IntentRecord (raw JSON, what journal replay folds) when
// reading and storedIntent when writing, so a checkpoint encodes each
// intent once, in place, instead of marshalling it and re-validating that.
type snapshotV1[I any] struct {
	Version  int               `json:"version"`
	Intents  []I               `json:"intents"`
	Domains  map[string]string `json:"domains,omitempty"`
	Gateways map[string]string `json:"gateways,omitempty"`
	Devices  []deviceSnap      `json:"devices,omitempty"`
	// IntentDevs is the committed occupancy memory (which devices each
	// applied intent touched), and StaleDevs the unreachable-with-stale-
	// state set.
	IntentDevs map[string][]core.DeviceID `json:"intent_devs,omitempty"`
	StaleDevs  []core.DeviceID            `json:"stale_devs,omitempty"`
	// Triggers are the installed dependency-trigger keys, so a restart
	// does not re-install (and re-count) them.
	Triggers []string  `json:"triggers,omitempty"`
	Observed []obsSnap `json:"observed,omitempty"`
}

type storedIntent struct {
	Name string `json:"name"`
	Data Intent `json:"data"`
}

type deviceSnap struct {
	ID       core.DeviceID      `json:"id"`
	Hello    bool               `json:"hello"`
	Topology msg.Topology       `json:"topology"`
	Modules  []core.Abstraction `json:"modules,omitempty"`
}

// obsSnap is one cached observation. Digest is the showActual digest it
// was condensed from (empty after a write-through, and in snapshots
// written before digests existed): a restored entry whose generation the
// journal moved is then re-read conditionally, not in full.
type obsSnap struct {
	Device core.DeviceID `json:"device"`
	Gen    uint64        `json:"gen"`
	Digest string        `json:"digest,omitempty"`
	Pipes  []obsPipeSnap `json:"pipes,omitempty"`
	Rules  []obsRuleSnap `json:"rules,omitempty"`
}

type obsPipeSnap struct {
	ID        core.PipeID    `json:"id"`
	Upper     core.ModuleRef `json:"upper"`
	Lower     core.ModuleRef `json:"lower"`
	UpperPeer core.ModuleRef `json:"upper_peer"`
	LowerPeer core.ModuleRef `json:"lower_peer"`
	Handle    string         `json:"handle,omitempty"`
}

type obsRuleSnap struct {
	ID            string         `json:"id"`
	Module        core.ModuleRef `json:"module"`
	From          core.PipeID    `json:"from"`
	To            core.PipeID    `json:"to"`
	Match         string         `json:"match"`
	Via           string         `json:"via"`
	MatchResolved string         `json:"match_resolved"`
	ViaResolved   string         `json:"via_resolved"`
	Handle        string         `json:"handle,omitempty"`
}

// Persist attaches a datastore backend to the NM and restores whatever
// state it holds: intents are replayed from snapshot + journal into the
// store (all marked dirty, so the next Reconcile re-derives the unions
// against the restored observation cache — zero showActual calls for
// devices that did not change), NM knowledge and occupancy records are
// restored for devices that have not re-announced themselves live, and
// every device named by a post-snapshot apply-begin record is
// invalidated, committed or not — the snapshot's cached observation
// predates those writes, so observe it fresh rather than trust the
// snapshot. Returns the number of intents
// restored into the store. Subsequent store mutations journal through
// the backend.
func (n *NM) Persist(b datastore.Backend) (int, error) {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	log, st, err := datastore.Open(b)
	if err != nil {
		return 0, fmt.Errorf("nm: persist: %w", err)
	}
	var snap snapshotV1[datastore.IntentRecord]
	if st.Snapshot != nil {
		if err := json.Unmarshal(st.Snapshot, &snap); err != nil {
			return 0, fmt.Errorf("nm: persist: corrupt snapshot: %w", err)
		}
	}
	recs, err := datastore.ReplayIntents(snap.Intents, st.Entries, 0)
	if err != nil {
		return 0, fmt.Errorf("nm: persist: %w", err)
	}

	ss := n.ss
	n.mu.Lock()
	defer n.mu.Unlock()
	// Devices already announced live on this channel outrank the
	// snapshot: their state may have changed while we were down.
	live := make(map[core.DeviceID]bool)
	for id, d := range n.devices {
		if d.Hello {
			live[id] = true
		}
	}
	for k, v := range snap.Domains {
		if _, ok := n.domains[k]; !ok {
			n.domains[k] = v
		}
	}
	for k, v := range snap.Gateways {
		if _, ok := n.gateways[k]; !ok {
			n.gateways[k] = v
		}
	}
	for _, dsnap := range snap.Devices {
		if live[dsnap.ID] {
			continue
		}
		d := n.deviceInfoLocked(dsnap.ID)
		d.Hello = dsnap.Hello
		d.Topology = dsnap.Topology
		d.Modules = dsnap.Modules
	}
	restored := 0
	for _, rec := range recs {
		var intent Intent
		if err := json.Unmarshal(rec.Data, &intent); err != nil {
			return restored, fmt.Errorf("nm: persist: intent %q: %w", rec.Name, err)
		}
		if _, ok := n.store[intent.Name]; ok {
			continue // a live submission outranks the journal
		}
		n.storePos[intent.Name] = n.storeOrder.push(intent.Name)
		n.store[intent.Name] = intent
		n.ssDirty[intent.Name] = true
		restored++
	}
	for name, devs := range snap.IntentDevs {
		if _, ok := n.intentDevs[name]; ok {
			continue
		}
		n.recordOccupancyLocked(name, devs)
	}
	for _, dev := range snap.StaleDevs {
		n.staleDevs[dev] = true
	}
	for _, key := range snap.Triggers {
		n.installedTriggers[key] = true
	}
	for _, os := range snap.Observed {
		if live[os.Device] {
			continue // it rebooted or re-announced; observe it fresh
		}
		pipes := make(map[core.PipeID]obsPipe, len(os.Pipes))
		for _, p := range os.Pipes {
			pipes[p.ID] = obsPipe{
				upper: p.Upper, lower: p.Lower,
				upperPeer: p.UpperPeer, lowerPeer: p.LowerPeer,
				handle: p.Handle,
			}
		}
		var rules []obsRule
		for _, r := range os.Rules {
			rules = append(rules, obsRule{
				id: r.ID, module: r.Module, from: r.From, to: r.To,
				match: r.Match, via: r.Via,
				matchResolved: r.MatchResolved, viaResolved: r.ViaResolved,
				handle: r.Handle,
			})
		}
		ss.cache[os.Device] = &obsEntry{gen: os.Gen, o: newObserved(pipes, rules), digest: os.Digest}
		if n.obsGens[os.Device] < os.Gen {
			n.obsGens[os.Device] = os.Gen
		}
	}
	// An apply-begin after the snapshot means device writes may have
	// landed (or half-landed) that the snapshot's cache predates:
	// invalidate those devices so the next pass observes them for real.
	for _, e := range st.Entries {
		if e.Op != datastore.OpApplyBegin || len(e.Data) == 0 {
			continue
		}
		var devs []core.DeviceID
		if json.Unmarshal(e.Data, &devs) == nil {
			for _, dev := range devs {
				n.obsGens[dev]++
			}
		}
	}
	n.journal = log
	return restored, nil
}

// Checkpoint writes a full snapshot through the attached journal,
// resetting its since-snapshot entry count.
func (n *NM) Checkpoint() error {
	n.planMu.Lock()
	defer n.planMu.Unlock()
	return n.checkpointLocked()
}

func (n *NM) checkpointLocked() error {
	ss := n.ss
	n.mu.Lock()
	j := n.journal
	if j == nil {
		n.mu.Unlock()
		return fmt.Errorf("nm: checkpoint: no persistence attached (use Persist)")
	}
	snap := snapshotV1[storedIntent]{
		Version:  1,
		Domains:  maps.Clone(n.domains),
		Gateways: maps.Clone(n.gateways),
	}
	for _, name := range n.storeOrder.items {
		snap.Intents = append(snap.Intents, storedIntent{Name: name, Data: n.store[name]})
	}
	for _, id := range n.order {
		d := n.devices[id]
		snap.Devices = append(snap.Devices, deviceSnap{
			ID: id, Hello: d.Hello, Topology: d.Topology, Modules: d.Modules,
		})
	}
	if len(n.intentDevs) > 0 {
		snap.IntentDevs = make(map[string][]core.DeviceID, len(n.intentDevs))
		for name, devs := range n.intentDevs {
			snap.IntentDevs[name] = sortedKeys(devs)
		}
	}
	snap.StaleDevs = sortedKeys(n.staleDevs)
	snap.Triggers = sortedKeys(n.installedTriggers)
	for _, dev := range sortedKeys(ss.cache) {
		ce := ss.cache[dev]
		if ce.o == nil || ce.gen != n.obsGens[dev] {
			// An entry the live NM has already invalidated (an event or a
			// bind fallback moved the generation) must not be persisted:
			// a restore would trust it and skip the re-observe the live
			// process knew it owed.
			continue
		}
		os := obsSnap{Device: dev, Gen: ce.gen, Digest: ce.digest}
		for _, id := range sortedKeys(ce.o.pipes) {
			p := ce.o.pipes[id]
			os.Pipes = append(os.Pipes, obsPipeSnap{
				ID: id, Upper: p.upper, Lower: p.lower,
				UpperPeer: p.upperPeer, LowerPeer: p.lowerPeer,
				Handle: p.handle,
			})
		}
		for _, r := range ce.o.rules {
			if r.id == "" { // tombstone
				continue
			}
			os.Rules = append(os.Rules, obsRuleSnap{
				ID: r.id, Module: r.module, From: r.from, To: r.to,
				Match: r.match, Via: r.via,
				MatchResolved: r.matchResolved, ViaResolved: r.viaResolved,
				Handle: r.handle,
			})
		}
		snap.Observed = append(snap.Observed, os)
	}
	n.mu.Unlock()

	data, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("nm: checkpoint: %w", err)
	}
	if _, err := j.WriteSnapshot(data); err != nil {
		return fmt.Errorf("nm: checkpoint: %w", err)
	}
	n.mu.Lock()
	n.snapshotsWritten++
	n.mu.Unlock()
	return nil
}

// JournalStats reports the state of the attached persistence.
type JournalStats struct {
	// Enabled reports whether a journal is attached (Persist was called).
	Enabled bool
	// Entries / Snapshots count this process's journal appends and
	// snapshot writes.
	Entries   uint64
	Snapshots uint64
	// LastSeq is the journal's last sequence number. SinceSnapshot[Bytes]
	// measure the journal past the last snapshot (what a restart replays),
	// SnapshotBytes that snapshot; the next auto-checkpoint comes at
	// SinceSnapshot >= autoSnapshotEvery && SinceSnapshotBytes >= SnapshotBytes.
	LastSeq            uint64
	SinceSnapshot      int
	SinceSnapshotBytes int
	SnapshotBytes      int
}

// JournalStatus returns a snapshot of the persistence counters.
func (n *NM) JournalStatus() JournalStats {
	n.mu.Lock()
	j := n.journal
	st := JournalStats{Enabled: j != nil, Entries: n.journalEntries, Snapshots: n.snapshotsWritten}
	n.mu.Unlock()
	if j != nil {
		st.LastSeq, st.SinceSnapshot = j.LastSeq(), j.SinceSnapshot()
		st.SinceSnapshotBytes, st.SnapshotBytes = j.SnapshotBytes()
	}
	return st
}

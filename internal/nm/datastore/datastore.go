// Package datastore is the persistence layer behind the NM's intent
// store: a snapshot plus an append-only journal of store mutations,
// behind a pluggable Backend so file, memory (and later etcd/sqlite)
// storage share one replay semantics.
//
// The journal records *mutations* (submit / update / withdraw /
// apply-begin / rollback), never derived state: the NM's compiled
// unions and bindings are recomputed from the intent set on restart,
// while the expensive observed-state cache rides in the snapshot
// payload, which this package treats as opaque bytes. The full journal
// is retained after a snapshot so `conman store log` shows the history
// and `conman store rollback` can rewind to any recorded sequence
// number. Older journals also hold "commit" entries; replay skips them.
//
// A snapshot rewrites the whole store, so one is due (Log.SnapshotDue)
// only once the journal since the last has grown as large as it: snapshot
// bytes never exceed journal bytes — amortised O(1) per journal byte —
// and a restart replays at most one snapshot's worth of journal.
package datastore

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"
)

// Op is a journal entry kind.
type Op string

// Journal operations.
const (
	// OpSubmit records a new intent entering the store (Data = intent JSON).
	OpSubmit Op = "submit"
	// OpUpdate records an in-place replacement of a registered intent.
	OpUpdate Op = "update"
	// OpWithdraw records an intent leaving the store.
	OpWithdraw Op = "withdraw"
	// OpApplyBegin records the device set a reconcile pass is about to
	// mutate (Data = JSON array of device ids). On restart every device
	// named by a post-snapshot apply-begin is treated as dirty, finished
	// or not: its snapshotted observation can no longer be trusted.
	OpApplyBegin Op = "apply-begin"
	// OpRollback rewinds the intent set to sequence To. Data carries the
	// full replacement intent set ([]IntentRecord) so replay never has
	// to walk backwards.
	OpRollback Op = "rollback"
)

// Entry is one journal record.
type Entry struct {
	Seq      uint64          `json:"seq"`
	TimeUnix int64           `json:"time_unix"`
	Op       Op              `json:"op"`
	Name     string          `json:"name,omitempty"`
	Data     json.RawMessage `json:"data,omitempty"`
	To       uint64          `json:"to,omitempty"`
}

// Backend is pluggable storage for one snapshot and an ordered journal.
// Implementations must persist Append before returning (the NM journals
// a mutation before acknowledging it).
type Backend interface {
	// LoadSnapshot returns the latest snapshot, or (0, nil, nil) when
	// none has been written.
	LoadSnapshot() (seq uint64, data []byte, err error)
	// WriteSnapshot atomically replaces the snapshot.
	WriteSnapshot(seq uint64, data []byte) error
	// Append durably adds one entry to the journal.
	Append(e Entry) error
	// Entries returns the full journal in append order.
	Entries() ([]Entry, error)
	Close() error
}

// State is what Open recovered: the latest snapshot (opaque to this
// package) and every journal entry recorded after it.
type State struct {
	SnapshotSeq uint64
	Snapshot    []byte
	// Entries holds journal records with Seq > SnapshotSeq, in order.
	Entries []Entry
	// LastSeq is the highest sequence number seen anywhere.
	LastSeq uint64
}

// Log is a sequenced writer over a Backend.
type Log struct {
	mu        sync.Mutex
	b         Backend
	seq       uint64 // guarded by mu
	sinceSnap int    // guarded by mu
	// sinceBytes is the journal written since the last snapshot, snapBytes
	// that snapshot's size; Open recomputes both from what it loads.
	sinceBytes int // guarded by mu
	snapBytes  int // guarded by mu
}

// size is the journal space an entry accounts for: its payload plus a
// fixed allowance for the seq/time/op framing around it.
func (e Entry) size() int { return len(e.Name) + len(e.Data) + 64 }

// Open loads the backend's snapshot and journal and returns a Log
// positioned after the last recorded entry.
func Open(b Backend) (*Log, State, error) {
	snapSeq, snap, err := b.LoadSnapshot()
	if err != nil {
		return nil, State{}, fmt.Errorf("datastore: load snapshot: %w", err)
	}
	all, err := b.Entries()
	if err != nil {
		return nil, State{}, fmt.Errorf("datastore: read journal: %w", err)
	}
	st := State{SnapshotSeq: snapSeq, Snapshot: snap, LastSeq: snapSeq}
	l := &Log{b: b, snapBytes: len(snap)}
	for _, e := range all {
		if e.Seq > st.LastSeq {
			st.LastSeq = e.Seq
		}
		if e.Seq > snapSeq {
			st.Entries = append(st.Entries, e)
			l.sinceBytes += e.size()
		}
	}
	l.seq, l.sinceSnap = st.LastSeq, len(st.Entries)
	return l, st, nil
}

// Append durably records one mutation and returns it with its assigned
// sequence number. data may be nil; non-nil values are JSON-encoded.
func (l *Log) Append(op Op, name string, data any, to uint64) (Entry, error) {
	var raw json.RawMessage
	if data != nil {
		b, err := json.Marshal(data)
		if err != nil {
			return Entry{}, fmt.Errorf("datastore: encode %s entry: %w", op, err)
		}
		raw = b
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e := Entry{Seq: l.seq, TimeUnix: time.Now().Unix(), Op: op, Name: name, Data: raw, To: to}
	if err := l.b.Append(e); err != nil {
		// The sequence number is burned, not reused: the backend may have
		// written the entry before failing (e.g. the sync after a
		// successful write), and a reused seq would then appear twice in
		// the journal, confusing show/rollback -to targeting. Replay
		// tolerates gaps.
		return Entry{}, fmt.Errorf("datastore: append: %w", err)
	}
	l.sinceSnap++
	l.sinceBytes += e.size()
	return e, nil
}

// WriteSnapshot records data (valid JSON) as the state at the current
// sequence number and zeroes the since-snapshot counts; the journal is kept.
func (l *Log) WriteSnapshot(data []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.b.WriteSnapshot(l.seq, data); err != nil {
		return 0, fmt.Errorf("datastore: write snapshot: %w", err)
	}
	l.sinceSnap, l.sinceBytes, l.snapBytes = 0, 0, len(data)
	return l.seq, nil
}

// SnapshotDue reports whether a snapshot has paid for itself: at least
// floor entries (so a small store does not snapshot on every entry) and
// at least the last snapshot's size in bytes were journaled since it.
func (l *Log) SnapshotDue(floor int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSnap >= floor && l.sinceBytes >= l.snapBytes
}

// SnapshotBytes returns the journal bytes a restart would replay (those
// since the last snapshot) and that snapshot's size, which they chase.
func (l *Log) SnapshotBytes() (since, snapshot int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceBytes, l.snapBytes
}

// LastSeq returns the sequence number of the most recent entry.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// SinceSnapshot returns how many entries have been appended since the
// last snapshot.
func (l *Log) SinceSnapshot() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceSnap
}

// Close closes the underlying backend.
func (l *Log) Close() error { return l.b.Close() }

// IntentRecord is a named opaque intent payload, the unit the journal
// and the snapshot's intent list share.
type IntentRecord struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// ReplayIntents folds a base intent set (from a snapshot; may be nil)
// and journal entries into the intent set as of sequence upTo
// (0 = all entries). Order is submission order, the order the NM
// registers intents in after a restore.
func ReplayIntents(base []IntentRecord, entries []Entry, upTo uint64) ([]IntentRecord, error) {
	out := append([]IntentRecord(nil), base...)
	idx := make(map[string]int, len(out))
	for i, r := range out {
		idx[r.Name] = i
	}
	remove := func(name string) {
		i, ok := idx[name]
		if !ok {
			return
		}
		out = append(out[:i], out[i+1:]...)
		delete(idx, name)
		for j := i; j < len(out); j++ {
			idx[out[j].Name] = j
		}
	}
	for _, e := range entries {
		if upTo != 0 && e.Seq > upTo {
			break
		}
		switch e.Op {
		case OpSubmit, OpUpdate:
			if i, ok := idx[e.Name]; ok {
				out[i].Data = e.Data
			} else {
				idx[e.Name] = len(out)
				out = append(out, IntentRecord{Name: e.Name, Data: e.Data})
			}
		case OpWithdraw:
			remove(e.Name)
		case OpRollback:
			var set []IntentRecord
			if err := json.Unmarshal(e.Data, &set); err != nil {
				return nil, fmt.Errorf("datastore: rollback entry %d: %w", e.Seq, err)
			}
			out = append(out[:0:0], set...)
			idx = make(map[string]int, len(out))
			for i, r := range out {
				idx[r.Name] = i
			}
		} // anything else leaves the intent set as it is
	}
	return out, nil
}

// SnapshotIntents extracts the intent list from a snapshot payload by
// convention: any snapshot format used with this package exposes a
// top-level "intents" array of IntentRecord, so offline tools (store
// log / rollback) can replay without importing the NM.
func SnapshotIntents(snapshot []byte) ([]IntentRecord, error) {
	if len(snapshot) == 0 {
		return nil, nil
	}
	var probe struct {
		Intents []IntentRecord `json:"intents"`
	}
	if err := json.Unmarshal(snapshot, &probe); err != nil {
		return nil, fmt.Errorf("datastore: decode snapshot intents: %w", err)
	}
	return probe.Intents, nil
}

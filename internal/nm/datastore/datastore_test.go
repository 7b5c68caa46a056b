package datastore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func mustAppend(t *testing.T, l *Log, op Op, name string, data any, to uint64) Entry {
	t.Helper()
	e, err := l.Append(op, name, data, to)
	if err != nil {
		t.Fatalf("append %s/%s: %v", op, name, err)
	}
	return e
}

func TestLogSequencingAndReopen(t *testing.T) {
	b, err := NewFileBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, st, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastSeq != 0 || st.Snapshot != nil || len(st.Entries) != 0 {
		t.Fatalf("fresh state not empty: %+v", st)
	}
	mustAppend(t, l, OpSubmit, "a", json.RawMessage(`{"name":"a"}`), 0)
	mustAppend(t, l, OpSubmit, "b", json.RawMessage(`{"name":"b"}`), 0)
	if seq, err := l.WriteSnapshot([]byte(`{"intents":[{"name":"a","data":{}},{"name":"b","data":{}}]}`)); err != nil || seq != 2 {
		t.Fatalf("snapshot: seq=%d err=%v", seq, err)
	}
	mustAppend(t, l, OpWithdraw, "a", nil, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	b2, err := NewFileBackend(b.Dir())
	if err != nil {
		t.Fatal(err)
	}
	l2, st2, err := Open(b2)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st2.SnapshotSeq != 2 || st2.LastSeq != 3 {
		t.Fatalf("reopened seqs: snap=%d last=%d", st2.SnapshotSeq, st2.LastSeq)
	}
	if len(st2.Entries) != 1 || st2.Entries[0].Op != OpWithdraw || st2.Entries[0].Name != "a" {
		t.Fatalf("post-snapshot entries: %+v", st2.Entries)
	}
	// New appends continue the sequence.
	if e := mustAppend(t, l2, OpSubmit, "c", json.RawMessage(`{}`), 0); e.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", e.Seq)
	}
}

func TestReplayIntents(t *testing.T) {
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	base := []IntentRecord{{Name: "a", Data: raw(`1`)}, {Name: "b", Data: raw(`2`)}}
	entries := []Entry{
		{Seq: 3, Op: OpUpdate, Name: "a", Data: raw(`10`)},
		{Seq: 4, Op: OpSubmit, Name: "c", Data: raw(`3`)},
		{Seq: 5, Op: OpApplyBegin, Data: raw(`["A","C"]`)},
		{Seq: 6, Op: "commit"}, // written by older journals; replay skips it
		{Seq: 7, Op: OpWithdraw, Name: "b"},
	}
	got, err := ReplayIntents(base, entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []IntentRecord{{Name: "a", Data: raw(`10`)}, {Name: "c", Data: raw(`3`)}}
	if len(got) != len(want) {
		t.Fatalf("replay = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Name != want[i].Name || string(got[i].Data) != string(want[i].Data) {
			t.Fatalf("replay[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	// upTo stops before the withdraw.
	got, err = ReplayIntents(base, entries, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Name != "b" {
		t.Fatalf("replay upTo=4 = %+v", got)
	}

	// Rollback replaces the whole set.
	rb := append(entries, Entry{Seq: 8, Op: OpRollback, To: 4,
		Data: raw(`[{"name":"a","data":10},{"name":"b","data":2},{"name":"c","data":3}]`)})
	got, err = ReplayIntents(base, rb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[1].Name != "b" {
		t.Fatalf("replay after rollback = %+v", got)
	}
}

func TestFileBackendToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, OpSubmit, "a", json.RawMessage(`{}`), 0)
	mustAppend(t, l, OpSubmit, "b", json.RawMessage(`{}`), 0)
	l.Close()

	// Simulate a crash mid-append: a truncated final line.
	f, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"op":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := Open(b2)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer b2.Close()
	if len(st.Entries) != 2 || st.LastSeq != 2 {
		t.Fatalf("torn tail not dropped: %d entries, last=%d", len(st.Entries), st.LastSeq)
	}
}

// TestTornTailTruncatedBeforeAppend is the second-restart-after-a-crash
// regression: the torn line must be physically truncated on reopen, or
// the next O_APPEND write concatenates onto it and the journal grows a
// corrupt line in its middle that the following Open hard-fails on.
func TestTornTailTruncatedBeforeAppend(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, OpSubmit, "a", json.RawMessage(`{}`), 0)
	mustAppend(t, l, OpSubmit, "b", json.RawMessage(`{}`), 0)
	l.Close()

	path := filepath.Join(dir, "journal.jsonl")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":3,"op":"sub`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// First restart after the crash: the torn tail is gone from disk.
	b2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("torn tail not truncated, journal ends %q", raw[len(raw)-10:])
	}
	l2, st2, err := Open(b2)
	if err != nil {
		t.Fatal(err)
	}
	if st2.LastSeq != 2 {
		t.Fatalf("after truncation last seq = %d, want 2", st2.LastSeq)
	}
	mustAppend(t, l2, OpSubmit, "c", json.RawMessage(`{}`), 0)
	l2.Close()

	// Second restart: every line must parse.
	b3, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b3.Close()
	_, st3, err := Open(b3)
	if err != nil {
		t.Fatalf("second restart after crash: %v", err)
	}
	if len(st3.Entries) != 3 || st3.LastSeq != 3 {
		t.Fatalf("second restart: %d entries, last=%d, want 3/3", len(st3.Entries), st3.LastSeq)
	}
}

// TestCorruptSnapshotFallsBackToJournal: an unreadable snapshot.json
// must not brick the boot — the journal is retained in full, so the
// intent set replays from empty.
func TestCorruptSnapshotFallsBackToJournal(t *testing.T) {
	dir := t.TempDir()
	b, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := Open(b)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, OpSubmit, "a", json.RawMessage(`{"name":"a"}`), 0)
	mustAppend(t, l, OpSubmit, "b", json.RawMessage(`{"name":"b"}`), 0)
	if _, err := l.WriteSnapshot([]byte(`{"intents":[{"name":"a","data":{}},{"name":"b","data":{}}]}`)); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, OpWithdraw, "a", nil, 0)
	l.Close()

	// Simulate a half-written snapshot (power loss made the rename
	// durable but not the data).
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), []byte(`{"seq":2,"da`), 0o644); err != nil {
		t.Fatal(err)
	}

	b2, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	_, st, err := Open(b2)
	if err != nil {
		t.Fatalf("open with corrupt snapshot: %v", err)
	}
	if st.SnapshotSeq != 0 || st.Snapshot != nil {
		t.Fatalf("corrupt snapshot not discarded: seq=%d", st.SnapshotSeq)
	}
	recs, err := ReplayIntents(nil, st.Entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "b" {
		t.Fatalf("journal-only replay = %+v, want just b", recs)
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json.corrupt")); err != nil {
		t.Errorf("corrupt snapshot not preserved aside: %v", err)
	}
}

// flakyBackend fails an Append after the underlying write succeeded —
// the sync-failed-after-write case a torn power loss produces.
type flakyBackend struct {
	*MemBackend
	failNext bool
}

func (f *flakyBackend) Append(e Entry) error {
	if err := f.MemBackend.Append(e); err != nil {
		return err
	}
	if f.failNext {
		f.failNext = false
		return os.ErrDeadlineExceeded
	}
	return nil
}

func TestFailedAppendBurnsSeq(t *testing.T) {
	fb := &flakyBackend{MemBackend: NewMemBackend()}
	l, _, err := Open(fb)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, OpSubmit, "a", json.RawMessage(`{}`), 0)
	fb.failNext = true
	if _, err := l.Append(OpSubmit, "ghost", json.RawMessage(`{}`), 0); err == nil {
		t.Fatal("armed append did not fail")
	}
	e := mustAppend(t, l, OpSubmit, "c", json.RawMessage(`{}`), 0)
	if e.Seq != 3 {
		t.Fatalf("seq after failed append = %d, want 3 (seq 2 burned)", e.Seq)
	}
	entries, err := fb.Entries()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]int{}
	for _, got := range entries {
		seen[got.Seq]++
	}
	for seq, n := range seen {
		if n > 1 {
			t.Fatalf("seq %d appears %d times in the journal", seq, n)
		}
	}
}

func TestSnapshotIntents(t *testing.T) {
	got, err := SnapshotIntents([]byte(`{"version":1,"intents":[{"name":"x","data":{"goal":1}}],"extra":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "x" {
		t.Fatalf("SnapshotIntents = %+v", got)
	}
	if got, err := SnapshotIntents(nil); err != nil || got != nil {
		t.Fatalf("empty snapshot: %v %v", got, err)
	}
}

func TestMemBackendRoundTrip(t *testing.T) {
	m := NewMemBackend()
	l, _, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, OpSubmit, "a", json.RawMessage(`{}`), 0)
	if _, err := l.WriteSnapshot([]byte(`{"intents":[]}`)); err != nil {
		t.Fatal(err)
	}
	if l.SinceSnapshot() != 0 {
		t.Fatalf("sinceSnap after snapshot = %d", l.SinceSnapshot())
	}
	mustAppend(t, l, OpWithdraw, "a", nil, 0)
	_, st, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	if st.SnapshotSeq != 1 || len(st.Entries) != 1 {
		t.Fatalf("mem reopen: %+v", st)
	}
}

package datastore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSnapshotDueNeedsFloorAndBytes pins the checkpoint cadence: a
// snapshot is due only once at least floor entries AND at least the last
// snapshot's size in bytes were journaled since it, the two counters are
// recomputed by Open from what the backend holds, and an append the
// backend refused counts towards neither.
func TestSnapshotDueNeedsFloorAndBytes(t *testing.T) {
	const floor = 4
	dir := t.TempDir()
	open := func() (*Log, *FileBackend) {
		fb, err := NewFileBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := Open(fb)
		if err != nil {
			t.Fatal(err)
		}
		return l, fb
	}
	l, fb := open()
	small := json.RawMessage(`{}`)

	// No snapshot yet: the byte rule is met by anything, the floor decides.
	for i := 0; i < floor-1; i++ {
		mustAppend(t, l, OpSubmit, "a", small, 0)
	}
	if l.SnapshotDue(floor) {
		t.Fatalf("due after %d entries, floor is %d", floor-1, floor)
	}
	mustAppend(t, l, OpSubmit, "a", small, 0)
	if !l.SnapshotDue(floor) {
		t.Fatal("not due at the floor with no snapshot to outweigh")
	}

	// A snapshot far larger than floor small entries: the floor is met
	// long before the bytes are.
	snap := []byte(`{"intents":[],"pad":"` + strings.Repeat("x", 4096) + `"}`)
	if _, err := l.WriteSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if since, size := l.SnapshotBytes(); since != 0 || size != len(snap) {
		t.Fatalf("after a snapshot: %d bytes since, snapshot %d; want 0 and %d", since, size, len(snap))
	}
	for i := 0; i < 3*floor; i++ {
		mustAppend(t, l, OpApplyBegin, "", nil, 0)
	}
	if l.SnapshotDue(floor) {
		since, size := l.SnapshotBytes()
		t.Fatalf("due at %d entries with %d journal bytes against a %d-byte snapshot", l.SinceSnapshot(), since, size)
	}
	// One entry heavier than the snapshot: bytes met, and so is the floor.
	big := json.RawMessage(`{"pad":"` + strings.Repeat("y", len(snap)) + `"}`)
	mustAppend(t, l, OpSubmit, "b", big, 0)
	if !l.SnapshotDue(floor) {
		t.Fatal("not due although the journal outgrew the snapshot")
	}
	// ...but bytes alone do not make one due below the floor.
	if l.SnapshotDue(l.SinceSnapshot() + 1) {
		t.Fatal("due below the entry floor")
	}

	// Both counters survive close and reopen.
	wantEntries := l.SinceSnapshot()
	wantSince, wantSize := l.SnapshotBytes()
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	l, fb = open()
	defer fb.Close()
	if got := l.SinceSnapshot(); got != wantEntries {
		t.Errorf("reopened log counts %d entries since the snapshot, want %d", got, wantEntries)
	}
	if since, size := l.SnapshotBytes(); since != wantSince || size != wantSize {
		t.Errorf("reopened log counts %d bytes since a %d-byte snapshot, want %d and %d", since, size, wantSince, wantSize)
	}
	if !l.SnapshotDue(floor) {
		t.Error("reopened log forgot that a snapshot is due")
	}
}

func TestFailedAppendCountsNothing(t *testing.T) {
	fb := &flakyBackend{MemBackend: NewMemBackend()}
	l, _, err := Open(fb)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, OpSubmit, "a", json.RawMessage(`{}`), 0)
	entries := l.SinceSnapshot()
	since, _ := l.SnapshotBytes()
	fb.failNext = true
	if _, err := l.Append(OpSubmit, "ghost", json.RawMessage(`{"pad":"zzzzzzzzzzzzzzzz"}`), 0); err == nil {
		t.Fatal("armed append did not fail")
	}
	if got := l.SinceSnapshot(); got != entries {
		t.Errorf("failed append moved the entry count %d -> %d", entries, got)
	}
	if got, _ := l.SnapshotBytes(); got != since {
		t.Errorf("failed append moved the byte count %d -> %d", since, got)
	}
}

// TestSnapshotFileFraming: the snapshot is framed around the caller's
// encoded bytes without re-encoding them, and the file is byte for byte
// what marshalling the frame produced before, so any reader loads it.
func TestSnapshotFileFraming(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	for _, data := range [][]byte{[]byte(`{"intents":[{"name":"a","data":{"prefer":"VLAN tunnel"}}]}`), nil} {
		if err := fb.WriteSnapshot(7, data); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(fileSnapshot{Seq: 7, Data: data})
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("snapshot file holds %q, want %q", got, want)
		}
		if seq, loaded, err := fb.LoadSnapshot(); err != nil || seq != 7 || (data != nil && string(loaded) != string(data)) {
			t.Errorf("LoadSnapshot = seq %d, %q, err %v; want seq 7 and the bytes written %q", seq, loaded, err, data)
		}
	}
}

package nm_test

import (
	"math/rand"
	"testing"

	"conman/internal/experiments"
	"conman/internal/nm/datastore"
)

// TestCheckpointsPayForThemselves churns a 500-intent store 2 000 times
// and holds the cadence to its two promises: the snapshots written are
// bounded by the journal written (one per snapshot's worth of journal —
// a fixed every-128-entries cadence writes ~47 here), and after every
// pass the journal a restart would replay is shorter than the entry
// floor or lighter than the snapshot it follows.
func TestCheckpointsPayForThemselves(t *testing.T) {
	const resident, spare, ops, floor = 500, 100, 2000, 128
	tb, err := experiments.BuildDiamondLite(resident + spare)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	mem := datastore.NewMemBackend()
	if _, err := tb.NM.Persist(mem); err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{}
	for j := 1; j <= resident; j++ {
		live[j] = true
		if err := tb.NM.Submit(experiments.LiteIntent(j)); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i <= ops; i++ {
		if i > 0 { // pass 0 converges the resident set
			j := 1 + rng.Intn(resident+spare)
			if live[j] = !live[j]; live[j] {
				err = tb.NM.Submit(experiments.LiteIntent(j))
			} else {
				err = tb.NM.Withdraw(experiments.LiteIntent(j).Name)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tb.NM.Reconcile(); err != nil {
			t.Fatal(err)
		}
		if js := tb.NM.JournalStatus(); js.SinceSnapshot >= floor && js.SinceSnapshotBytes >= js.SnapshotBytes {
			t.Fatalf("after pass %d a restart would replay %d entries / %d bytes past a %d-byte snapshot: a checkpoint was due and not taken",
				i, js.SinceSnapshot, js.SinceSnapshotBytes, js.SnapshotBytes)
		}
	}
	entries, err := mem.Entries()
	if err != nil {
		t.Fatal(err)
	}
	journal := 0
	for _, e := range entries {
		journal += len(e.Name) + len(e.Data) + 64 // the Log's accounting: payload plus framing
	}
	js := tb.NM.JournalStatus()
	if js.Snapshots == 0 || js.SnapshotBytes == 0 {
		t.Fatalf("no checkpoint in %d entries", len(entries))
	}
	if bound := (journal+js.SnapshotBytes-1)/js.SnapshotBytes + 1; int(js.Snapshots) > bound {
		t.Errorf("%d snapshots for %d journal bytes and a %d-byte final snapshot, want at most %d",
			js.Snapshots, journal, js.SnapshotBytes, bound)
	}
	t.Logf("%d entries, %d journal bytes, %d snapshots, final snapshot %d bytes", len(entries), journal, js.Snapshots, js.SnapshotBytes)
}

package experiments

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
)

// TestLongJournalTailRestoresFromOldSnapshot is the state only the
// pays-for-itself checkpoint cadence creates: a snapshot followed by a
// journal tail many times the entry floor long yet smaller than the
// snapshot, so no checkpoint was due. A restart must replay that tail
// onto the old snapshot to the same store, trusting the snapshot's
// observations for every device no post-snapshot apply-begin names.
func TestLongJournalTailRestoresFromOldSnapshot(t *testing.T) {
	const resident, spare, churn = 200, 40, 270
	tb, err := BuildDiamondLite(resident + spare)
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	mem := datastore.NewMemBackend()
	if _, err := tb.NM.Persist(mem); err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= resident; j++ {
		if err := tb.NM.Submit(LiteIntent(j)); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, tb)
	if err := tb.NM.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	base := tb.NM.JournalStatus()

	rng := rand.New(rand.NewSource(5))
	live := map[int]bool{}
	for i := 0; i < churn; i++ {
		j := resident + 1 + rng.Intn(spare)
		if live[j] = !live[j]; live[j] {
			err = tb.NM.Submit(LiteIntent(j))
		} else {
			err = tb.NM.Withdraw(LiteIntent(j).Name)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.NM.Reconcile(); err != nil {
			t.Fatal(err)
		}
	}
	settle(t, tb)
	js := tb.NM.JournalStatus()
	if js.Snapshots != base.Snapshots {
		t.Fatalf("%d checkpoints were taken over a journal tail of %d bytes past a %d-byte snapshot, want none",
			js.Snapshots-base.Snapshots, js.SinceSnapshotBytes, js.SnapshotBytes)
	}
	if js.SinceSnapshot < 4*128 || js.SinceSnapshotBytes >= js.SnapshotBytes {
		t.Fatalf("journal tail is %d entries / %d bytes past a %d-byte snapshot: not the long-but-light tail this test is about",
			js.SinceSnapshot, js.SinceSnapshotBytes, js.SnapshotBytes)
	}
	wantRegistered := tb.NM.Registered()
	want, err := tb.NM.PlanStore()
	if err != nil {
		t.Fatal(err)
	}

	// The devices a restart may not trust the snapshot for.
	entries, err := mem.Entries()
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{}
	for _, e := range entries {
		if e.Op == datastore.OpApplyBegin && e.Seq > js.LastSeq-uint64(js.SinceSnapshot) {
			var devs []string
			if err := json.Unmarshal(e.Data, &devs); err != nil {
				t.Fatal(err)
			}
			for _, dev := range devs {
				named[dev] = true
			}
		}
	}
	if len(named) == 0 || len(named) >= len(tb.Devices) {
		t.Fatalf("post-snapshot apply-begin entries name %d of %d devices: want some but not all", len(named), len(tb.Devices))
	}

	tb.Hub.Detach(msg.NMName)
	restored := nm.New()
	restored.AttachChannel(tb.Hub.Endpoint(msg.NMName))
	if n, err := restored.Persist(mem); err != nil || n != len(wantRegistered) {
		t.Fatalf("restart restored %d intents, err %v; want %d", n, err, len(wantRegistered))
	}
	first, err := restored.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Empty() {
		t.Errorf("restart sent commands to a converged network:\n%s", first.Render())
	}
	if first.Stats.Observed != len(named) {
		t.Errorf("restart observed %d devices, want the %d the journal tail names (%v)", first.Stats.Observed, len(named), named)
	}
	if got := restored.Registered(); !reflect.DeepEqual(got, wantRegistered) {
		t.Errorf("restart registers %d intents in a different order or form than the live store's %d", len(got), len(wantRegistered))
	}
	got, err := restored.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	if got.Render() != want.Render() {
		t.Errorf("restored store plans\n%s\nwant\n%s", got.Render(), want.Render())
	}
}

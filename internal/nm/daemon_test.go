package nm

import (
	"fmt"
	"strings"
	"testing"

	"conman/internal/nm/datastore"
)

// TestDaemonReadsJournalMetricsLive: the journal series are the NM's own
// numbers read at scrape time, so a submit shows at once — the daemon
// need not run, let alone finish a reconcile epoch.
func TestDaemonReadsJournalMetricsLive(t *testing.T) {
	n := New()
	if _, err := n.Persist(datastore.NewMemBackend()); err != nil {
		t.Fatal(err)
	}
	d := NewDaemon(n, DaemonConfig{})
	if err := n.Submit(Intent{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	expect := func(name string, want uint64) {
		t.Helper()
		if got := d.Metrics().Snapshot()[name]; got != want {
			t.Errorf("snapshot %s = %v, want %d", name, got, want)
		}
		if out := d.Metrics().RenderPrometheus(); !strings.Contains(out, fmt.Sprintf("\n%s %d\n", name, want)) {
			t.Errorf("render lacks %s %d:\n%s", name, want, out)
		}
	}
	expect("conman_journal_entries_total", 1)
	expect("conman_snapshot_writes_total", 0)

	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	expect("conman_snapshot_writes_total", 1)
	expect("conman_journal_bytes_since_snapshot", 0)
	js := n.JournalStatus()
	if js.SnapshotBytes == 0 {
		t.Fatal("checkpoint wrote an empty snapshot")
	}
	expect("conman_snapshot_bytes", uint64(js.SnapshotBytes))
	if st := d.Status(); st.Metrics["conman_journal_entries_total"] != uint64(1) {
		t.Errorf("/status metrics journal entries = %v, want 1", st.Metrics["conman_journal_entries_total"])
	}
}

package nm_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"conman/internal/experiments"
	"conman/internal/nm/datastore"
)

// failingBackend is a MemBackend whose journal appends fail while fail
// is set.
type failingBackend struct {
	*datastore.MemBackend
	fail atomic.Bool
}

func (b *failingBackend) Append(e datastore.Entry) error {
	if b.fail.Load() {
		return errors.New("disk full")
	}
	return b.MemBackend.Append(e)
}

// TestFailedJournalAppendLeavesStoreUnchanged holds Submit, Update and
// Withdraw to journal-then-apply: when the append fails, the call
// reports it and the store is as before — the intents registered, and
// a PlanStore with nothing to do. A Submit reported as failed can be
// retried.
func TestFailedJournalAppendLeavesStoreUnchanged(t *testing.T) {
	tb, err := experiments.BuildFig4()
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	backend := &failingBackend{MemBackend: datastore.NewMemBackend()}
	if _, err := tb.NM.Persist(backend); err != nil {
		t.Fatal(err)
	}
	gre := experiments.VPNIntent(experiments.Fig4Goal(), "GRE-IP tunnel")
	if err := tb.NM.Submit(gre); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}

	backend.fail.Store(true)
	mpls := experiments.VPNIntent(experiments.Fig4Goal(), "MPLS")
	if err := tb.NM.Submit(mpls); err == nil {
		t.Error("submit succeeded with a failing journal")
	}
	moved := gre
	moved.Prefer = "MPLS"
	if err := tb.NM.Update(moved); err == nil {
		t.Error("update succeeded with a failing journal")
	}
	if err := tb.NM.Withdraw(gre.Name); err == nil {
		t.Error("withdraw succeeded with a failing journal")
	}
	backend.fail.Store(false)

	if got := tb.NM.Registered(); len(got) != 1 || got[0].Name != gre.Name || got[0].Prefer != gre.Prefer {
		t.Errorf("registered = %+v, want only %+v", got, gre)
	}
	plan, err := tb.NM.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Empty() {
		t.Errorf("plan after the failed calls is not empty:\n%s", plan.Render())
	}
	if err := tb.NM.Submit(mpls); err != nil {
		t.Errorf("retried submit: %v", err)
	}
}

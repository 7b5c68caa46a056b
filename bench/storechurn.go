package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"time"

	"conman/internal/experiments"
	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
)

// store-churn keeps k intents resident in the NM's store, journalled to
// a file backend with fsync on, and churns it: submit + reconcile,
// withdraw + reconcile and (traced) read-only passes side by side, so a
// gain for creates that costs deletes or reads shows.

// churnStore is a loaded, converged store and the customers around it.
type churnStore struct {
	tb       *experiments.Testbed
	dir      string
	backend  *tracedBackend // nil when untraced
	resident []int          // customers whose intent is registered
	free     []int          // customers with a port but no intent
}

func (cs *churnStore) close() {
	cs.tb.Close()
	_ = os.RemoveAll(cs.dir) // scratch journal; a leftover directory is harmless
}

// setupStoreChurn builds the diamond with a port for every customer,
// attaches the file journal and loads and converges the first k
// customers of the seeded order.
func setupStoreChurn(cfg config, rec *recorder) (*churnStore, error) {
	sz := cfg.Sizes
	total := sz.StoreK + sz.StoreSpare
	order := rand.New(rand.NewSource(cfg.Seed)).Perm(total)
	for i := range order {
		order[i]++ // customers are numbered from 1
	}
	tb, err := experiments.BuildDiamondLite(total)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.TmpDir, "store-churn-")
	if err != nil {
		tb.Close()
		return nil, err
	}
	cs := &churnStore{tb: tb, dir: dir, resident: order[:sz.StoreK:sz.StoreK], free: order[sz.StoreK:]}
	fb, err := datastore.NewFileBackend(dir)
	if err != nil {
		cs.close()
		return nil, err
	}
	var backend datastore.Backend = fb
	if rec != nil {
		cs.backend = &tracedBackend{Backend: fb}
		backend = cs.backend
	}
	if _, err := tb.NM.Persist(backend); err != nil {
		cs.close()
		return nil, err
	}
	for _, j := range cs.resident {
		if err := tb.NM.Submit(experiments.LiteIntent(j)); err != nil {
			cs.close()
			return nil, err
		}
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		cs.close()
		return nil, err
	}
	plan, err := tb.NM.Reconcile()
	if err != nil {
		cs.close()
		return nil, err
	}
	if !plan.Empty() {
		cs.close()
		return nil, fmt.Errorf("store of %d intents did not converge in one reconcile", sz.StoreK)
	}
	return cs, nil
}

// churnSamples gathers what the store operations measured.
type churnSamples struct {
	submitOp, withdrawOp       []float64 // Submit/Withdraw + Reconcile
	submitCall, reconcileCall  []float64
	planStore, noopReconcile   []float64
	recompiled, observed       int
	cacheHits, cacheMisses     int
	diffedDevices, fullRebuild int
	ops                        int
}

func (s *churnSamples) note(st nm.StoreStats) {
	s.ops++
	s.recompiled += st.Recompiled
	s.observed += st.Observed
	s.cacheHits += st.CacheHits
	s.cacheMisses += st.CacheMisses
	s.diffedDevices += st.DiffedDevices
	if st.FullRebuild {
		s.fullRebuild++
	}
}

func runStoreChurn(cfg config) *result {
	res := newResult("store-churn", cfg.Trace)
	var rec *recorder
	if cfg.Trace {
		rec = newRecorder(true) // every store call runs on the client goroutine
	}
	var setups []float64
	var cs *churnStore
	for i := 0; i < cfg.Sizes.Setups; i++ {
		if cs != nil {
			cs.close()
		}
		t := time.Now()
		var err error
		if cs, err = setupStoreChurn(cfg, rec); err != nil {
			res.Attempted++
			res.fail("set-up: %v", err)
			return res
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer cs.close()
	res.Inputs = append(res.Inputs, fmt.Sprintf("customer order %x", sha256.Sum256([]byte(fmt.Sprint(cs.resident, cs.free)))))
	if rec != nil {
		rec.take()
		cs.backend.reset()
	}
	n := cs.tb.NM
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	var sm churnSamples
	var tracedOps, bareOps []float64

	// op runs one store mutation followed by a reconcile, as one timed,
	// checked operation.
	op := func(kind string, customer int, traced bool, mutate func() error) (float64, bool) {
		res.Attempted++
		r := rec
		if !traced {
			r = nil
		}
		root := -1
		if r != nil {
			root = r.beginRoot("op", fmt.Sprintf("%s-c%d", kind, customer))
		}
		var err error
		var plan *nm.StorePlan
		t := time.Now()
		r.within("nm."+kind, msg.NMName, func() { err = mutate() })
		mid := time.Now()
		if err == nil {
			r.within("nm.reconcile", msg.NMName, func() { plan, err = n.Reconcile() })
		}
		end := time.Now()
		if r != nil {
			r.endRoot(root)
		}
		if err != nil {
			res.fail("%s customer %d: %v", kind, customer, err)
			return 0, false
		}
		if plan.Empty() {
			res.fail("%s customer %d: reconcile had nothing to do", kind, customer)
			return 0, false
		}
		sm.note(plan.Stats)
		if kind == "submit" {
			sm.submitCall = append(sm.submitCall, mid.Sub(t).Seconds())
		}
		sm.reconcileCall = append(sm.reconcileCall, end.Sub(mid).Seconds())
		return end.Sub(t).Seconds(), true
	}
	// settled checks that a second reconcile after a phase sends nothing.
	settled := func(phase string) {
		res.Attempted++
		plan, err := n.Reconcile()
		if err != nil {
			res.fail("reconcile after %s phase: %v", phase, err)
		} else if !plan.Empty() {
			res.fail("second reconcile after %s phase still sends commands:\n%s", phase, plan.Render())
		}
	}

	batch := cfg.Sizes.StoreBatch
	start := time.Now()
	for round := 0; round < cfg.Sizes.MinReps || time.Since(start).Seconds() < cfg.Seconds; round++ {
		traced := cfg.Trace && round%2 == 1
		if cs.backend != nil {
			cs.backend.rec = nil
			if traced {
				cs.backend.rec = rec
			}
		}
		keep := func(d float64) {
			if traced {
				tracedOps = append(tracedOps, d)
			} else {
				bareOps = append(bareOps, d)
			}
		}
		for i := 0; i < batch && len(cs.free) > 0; i++ {
			k := rng.Intn(len(cs.free))
			c := cs.free[k]
			cs.free[k] = cs.free[len(cs.free)-1]
			cs.free = cs.free[:len(cs.free)-1]
			if d, ok := op("submit", c, traced, func() error { return n.Submit(experiments.LiteIntent(c)) }); ok {
				sm.submitOp = append(sm.submitOp, d)
				keep(d)
			}
			cs.resident = append(cs.resident, c)
		}
		settled("submit")
		for i := 0; i < batch && len(cs.resident) > 1; i++ {
			k := rng.Intn(len(cs.resident))
			c := cs.resident[k]
			cs.resident[k] = cs.resident[len(cs.resident)-1]
			cs.resident = cs.resident[:len(cs.resident)-1]
			if d, ok := op("withdraw", c, traced, func() error { return n.Withdraw(experiments.LiteIntent(c).Name) }); ok {
				sm.withdrawOp = append(sm.withdrawOp, d)
			}
			cs.free = append(cs.free, c)
		}
		settled("withdraw")
		if !cfg.Trace {
			continue
		}
		// Reads: a dry run and a reconcile with nothing to do.
		for i := 0; i < batch/5; i++ {
			res.Attempted++
			t := time.Now()
			plan, err := n.PlanStore()
			if err != nil || !plan.Empty() {
				res.fail("PlanStore dry run on a converged store: err %v", err)
				continue
			}
			sm.planStore = append(sm.planStore, time.Since(t).Seconds())
			res.Attempted++
			t = time.Now()
			plan, err = n.Reconcile()
			if err != nil || !plan.Empty() {
				res.fail("no-op reconcile on a converged store: err %v", err)
				continue
			}
			sm.noopReconcile = append(sm.noopReconcile, time.Since(t).Seconds())
		}
	}
	elapsed := time.Since(start).Seconds()

	if !cfg.Trace {
		res.set("setup_s", median(setups), len(setups))
		res.set("op_p50_s", median(sm.submitOp), len(sm.submitOp))
		res.set("op2_p50_s", median(sm.withdrawOp), len(sm.withdrawOp))
		res.set("ops_per_s", ratio(float64(len(sm.submitOp)), sum(sm.submitOp)), len(sm.submitOp))
		return res
	}

	ops := float64(sm.ops)
	res.set("trace.overhead_ratio", ratio(median(tracedOps), median(bareOps)), len(tracedOps)+len(bareOps))
	res.set("nm.store.submit_s", median(sm.submitCall), len(sm.submitCall))
	res.set("nm.store.reconcile_s", median(sm.reconcileCall), len(sm.reconcileCall))
	res.set("nm.store.recompiled_per_op", ratio(float64(sm.recompiled), ops), sm.ops)
	res.Exact["nm.store.recompiled_per_op"] = ratio(float64(sm.recompiled), ops)
	res.set("nm.store.observed_per_op", ratio(float64(sm.observed), ops), sm.ops)
	res.set("nm.store.cache_hit_ratio", ratio(float64(sm.cacheHits), float64(sm.cacheHits+sm.cacheMisses)), sm.cacheHits+sm.cacheMisses)
	res.set("nm.store.diffed_devices_per_op", ratio(float64(sm.diffedDevices), ops), sm.ops)
	res.set("nm.store.full_rebuilds", float64(sm.fullRebuild), sm.ops)
	res.set("nm.store.planstore_p50_s", median(sm.planStore), len(sm.planStore))
	res.set("nm.store.noop_reconcile_p50_s", median(sm.noopReconcile), len(sm.noopReconcile))
	res.set("nm.store.submit_reconcile_p99_s", tail(sm.submitOp, 0.99), len(sm.submitOp))

	b := cs.backend
	res.set("datastore.appends_per_op", ratio(float64(len(b.appends)), ops), sm.ops)
	res.set("datastore.append_p50_s", median(b.appends), len(b.appends))
	res.set("datastore.snapshots", float64(len(b.snapshots)), sm.ops)
	res.set("datastore.snapshot_p50_s", median(b.snapshots), len(b.snapshots))
	res.set("datastore.snapshot_bytes", median(b.snapshotBytes), len(b.snapshotBytes))
	res.set("datastore.busy_share", ratio(sum(b.appends)+sum(b.snapshots), elapsed), len(b.appends)+len(b.snapshots))

	finishTrace(res, cfg, rec.take())
	return res
}

package experiments

// Tests for the persistent, incremental intent datastore (ROADMAP item:
// reconcile in O(changed), survive restarts). The diamond-lite topology
// keeps the device count constant while the intent count scales, so the
// StoreStats assertions here pin the incremental cost model: a converged
// store reconciles with zero observes and zero diffs, one changed intent
// recompiles exactly one goal, and a restarted NM replays its snapshot +
// journal back to the same converged state without re-observing devices
// that did not change.

import (
	"context"
	"sync"
	"testing"
	"time"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/nm/datastore"
)

// TestDiamondLiteIncrementalStats pins the O(changed) cost model on the
// lite diamond: after convergence a Reconcile does no observation RPCs
// and no diffs, and submitting one intent among many recompiles exactly
// that intent and touches only the devices its components land on.
func TestDiamondLiteIncrementalStats(t *testing.T) {
	tb, err := BuildDiamondLite(4)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 3; j++ {
		if err := tb.NM.Submit(LiteIntent(j)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Stats.FullRebuild {
		t.Error("first pass did not report a full rebuild")
	}
	if first.Stats.Recompiled != 3 {
		t.Errorf("first pass recompiled %d intents, want 3", first.Stats.Recompiled)
	}
	if first.Stats.Observed == 0 {
		t.Error("first pass observed no devices")
	}

	// Settling pass: a device whose creates answered Pending (the VLAN
	// pipe handshake) was invalidated by the bind fallback; one observe
	// confirms its state without any further commands.
	settle, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !settle.Empty() {
		t.Errorf("settling reconcile not empty:\n%s", settle.Render())
	}

	// Converged store: the pass must be free — no RPCs, no diffs.
	before := tb.NM.Counters()
	idle, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !idle.Empty() {
		t.Errorf("converged reconcile not empty:\n%s", idle.Render())
	}
	if s := idle.Stats; s.Recompiled != 0 || s.Observed != 0 || s.DiffedDevices != 0 || s.CacheMisses != 0 || s.FullRebuild {
		t.Errorf("converged reconcile did work: %+v", s)
	}
	if after := tb.NM.Counters(); before != after {
		t.Errorf("converged reconcile sent traffic: %+v -> %+v", before, after)
	}

	// One new intent among three resident: exactly one recompile, zero
	// observes (write-through cache), creates only on the edge switches
	// that carry its per-port classification.
	if err := tb.NM.Submit(LiteIntent(4)); err != nil {
		t.Fatal(err)
	}
	one, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if s := one.Stats; s.Recompiled != 1 || s.Observed != 0 || s.CacheMisses != 0 || s.FullRebuild {
		t.Errorf("1-dirty reconcile not incremental: %+v", s)
	}
	if len(one.Deletes) != 0 || len(one.Creates) == 0 {
		t.Fatalf("1-dirty reconcile wrong shape:\n%s", one.Render())
	}
	for _, ds := range one.Creates {
		if ds.Device != "A" && ds.Device != "C" {
			t.Errorf("1-dirty reconcile touched transit device %s:\n%s", ds.Device, ds.Script())
		}
	}

	// The write-through bind left the cache accurate: converging again
	// still needs no observation.
	again, err := tb.NM.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !again.Empty() || again.Stats.Observed != 0 {
		t.Errorf("post-apply reconcile observed %d devices, plan empty=%v",
			again.Stats.Observed, again.Empty())
	}
}

// lossyNM wraps the NM's management endpoint and, when armed, swallows
// command-batch responses. With the synchronous in-process hub this is
// the crash-mid-apply shape: the NM's batches reach the devices and are
// executed, but the NM never hears back — exactly what a process killed
// between its apply-begin journal record and its commit leaves behind.
type lossyNM struct {
	channel.Endpoint
	mu   sync.Mutex
	drop bool
}

func (l *lossyNM) arm() {
	l.mu.Lock()
	l.drop = true
	l.mu.Unlock()
}

func (l *lossyNM) SetHandler(h channel.Handler) {
	l.Endpoint.SetHandler(func(env msg.Envelope) {
		l.mu.Lock()
		drop := l.drop && env.Type == msg.TypeCommandBatchResp
		l.mu.Unlock()
		if drop {
			return
		}
		h(env)
	})
}

// TestDiamondLiteCrashRecovery kills the NM mid-apply — the apply-begin
// journal bracket is written, the device batches are in flight, the
// commit never lands — and restarts from snapshot + journal. The
// replacement NM must replay to the same registered intents, re-observe
// only the devices named in the dangling apply bracket, adopt the
// components the crashed apply actually created, and converge without a
// single spurious command. A clean restart afterwards converges with
// zero observation RPCs at all.
func TestDiamondLiteCrashRecovery(t *testing.T) {
	tb, err := BuildDiamondLite(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	backend, err := datastore.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := tb.NM.Persist(backend); err != nil || restored != 0 {
		t.Fatalf("fresh Persist restored %d intents, err %v", restored, err)
	}
	// Re-home the NM onto a wrappable endpoint so the crash can be armed
	// later; until then it forwards everything.
	lossy := &lossyNM{Endpoint: tb.Hub.Endpoint(msg.NMName)}
	tb.NM.AttachChannel(lossy)

	for j := 1; j <= 2; j++ {
		if err := tb.NM.Submit(LiteIntent(j)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	// Settle any bind fallback, then snapshot the converged state.
	if _, err := tb.NM.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if err := tb.NM.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Third intent: plan it, then crash mid-apply. The armed endpoint
	// swallows the batch acknowledgements, so Apply journals its
	// apply-begin bracket, the devices execute the creates, and the NM
	// times out before any response — then "dies".
	if err := tb.NM.Submit(LiteIntent(3)); err != nil {
		t.Fatal(err)
	}
	plan, err := tb.NM.PlanStore()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Creates) == 0 {
		t.Fatalf("third intent plans no creates:\n%s", plan.Render())
	}
	lossy.arm()
	tb.NM.CallTimeout = 100 * time.Millisecond
	if err := tb.NM.Apply(plan); err == nil {
		t.Fatal("mid-apply crash simulation: Apply unexpectedly succeeded")
	}

	// Restart: a fresh NM on the same channel and state directory.
	tb.Hub.Detach(msg.NMName)
	n2 := nm.New()
	n2.AttachChannel(tb.Hub.Endpoint(msg.NMName))
	backend2, err := datastore.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := n2.Persist(backend2)
	if err != nil {
		t.Fatal(err)
	}
	if restored != 3 {
		t.Fatalf("restart restored %d intents, want 3", restored)
	}
	names := make(map[string]bool)
	for _, it := range n2.Registered() {
		names[it.Name] = true
	}
	for _, want := range []string{"vpn-c1", "vpn-c2", "vpn-c3"} {
		if !names[want] {
			t.Errorf("restart lost intent %q (have %v)", want, names)
		}
	}

	// Recovery pass: only the apply bracket's devices (A and C carry the
	// third intent's edge rules) are re-observed; the rules the crashed
	// apply created are adopted, so nothing is sent.
	rec, err := n2.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Errorf("recovery reconcile sent spurious commands:\n%s", rec.Render())
	}
	if rec.Stats.Observed != 2 {
		t.Errorf("recovery observed %d devices, want 2 (the apply bracket's)", rec.Stats.Observed)
	}
	if got := n2.Counters().CmdSent; got != 0 {
		t.Errorf("recovery sent %d command batches, want 0", got)
	}
	idle, err := n2.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !idle.Empty() || idle.Stats.Observed != 0 {
		t.Errorf("post-recovery reconcile: empty=%v observed=%d", idle.Empty(), idle.Stats.Observed)
	}

	// Clean restart under the daemon: snapshot current state, start a
	// third NM from disk, and let the daemon converge. No device changed,
	// so convergence must need zero observation RPCs (the acceptance
	// event-counter assertion).
	if err := n2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	tb.Hub.Detach(msg.NMName)
	n3 := nm.New()
	n3.AttachChannel(tb.Hub.Endpoint(msg.NMName))
	backend3, err := datastore.NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := n3.Persist(backend3); err != nil || restored != 3 {
		t.Fatalf("clean restart restored %d intents, err %v", restored, err)
	}
	d := nm.NewDaemon(n3, nm.DaemonConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = d.Run(ctx) }()
	defer func() { cancel(); <-done }()
	if err := d.WaitConverged(0, daemonWait); err != nil {
		t.Fatalf("clean restart convergence: %v", err)
	}
	if got := counterValue(t, d.Metrics(), "conman_observes_total"); got != 0 {
		t.Errorf("clean restart re-observed %d devices, want 0", got)
	}
	if got := counterValue(t, d.Metrics(), "conman_observe_cache_hits_total"); got == 0 {
		t.Error("clean restart served no observations from cache")
	}
}

// TestDaemonPushVsPollRepair measures each heal path of the daemon on
// the fault it exists for. Push: a tunnel pipe deleted out from under
// the applied GRE VPN, which the MA reports with a pipe-deleted notify.
// Poll: the GRE module's switch rule deleted instead, which darkens the
// tunnel but raises no event, so only the poll tick's audit finds it.
// Push must repair in well under one poll interval; poll still heals,
// only later. The measured pair backs the DaemonConfig.Poll guidance in
// docs/daemon.md.
func TestDaemonPushVsPollRepair(t *testing.T) {
	const pollEvery = 300 * time.Millisecond

	// run returns the heal time and the events the NM published from
	// the fault until the heal.
	run := func(cfg nm.DaemonConfig, fault core.DeleteRequest, token uint32) (time.Duration, []nm.Event) {
		t.Helper()
		tb, err := BuildFig4()
		if err != nil {
			t.Fatal(err)
		}
		intent := VPNIntent(Fig4Goal(), "GRE-IP tunnel")
		if err := tb.NM.Submit(intent); err != nil {
			t.Fatal(err)
		}
		d, stop := tb.StartDaemon(cfg)
		defer stop()
		if err := d.WaitConverged(0, daemonWait); err != nil {
			t.Fatalf("initial convergence: %v", err)
		}
		if err := tb.VerifyConnectivity(token); err != nil {
			t.Fatalf("before fault: %v", err)
		}
		events, cancel := tb.NM.Subscribe(64)
		defer cancel()
		start := time.Now()
		if err := tb.Devices["A"].MA.Delete(fault); err != nil {
			t.Fatal(err)
		}
		// Heal time is measured at the transport: first probe that
		// delivers again.
		deadline := time.Now().Add(daemonWait)
		for i := uint32(1); ; i++ {
			if time.Now().After(deadline) {
				t.Fatalf("fault %s not healed within %v (mode %+v)", fault.ID, daemonWait, cfg)
			}
			if err := tb.VerifyConnectivity(token + 10*i); err == nil {
				return time.Since(start), drain(events)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	gre := core.Ref(core.NameGRE, "A", "l")
	push, pushed := run(nm.DaemonConfig{},
		core.DeleteRequest{Kind: core.ComponentPipe, Module: gre, ID: "P1"}, 91000)
	poll, polled := run(nm.DaemonConfig{Poll: pollEvery},
		core.DeleteRequest{Kind: core.ComponentSwitchRule, Module: gre, ID: "A-sw3"}, 92000)
	t.Logf("push repair: %v, poll repair (interval %v): %v", push, pollEvery, poll)
	if len(pushed) == 0 {
		t.Error("the pipe delete published no event; push had nothing to react to")
	}
	if len(polled) != 0 {
		t.Errorf("the rule delete published %+v; the poll half must heal drift that raises no event", polled)
	}
	if push >= pollEvery {
		t.Errorf("push repair took %v, not faster than the %v poll interval", push, pollEvery)
	}
}

package nm

// The autonomous reconciliation daemon: a control loop that subscribes to the NM's event feed — module notifications,
// dependency triggers (§II-E), topology re-reports — collects them
// into a dirty set, and drives Reconcile with retry/backoff until the
// network converges on the registered intents. A cut wire, killed
// pipe or killed device heals with no caller: the failure surfaces as
// events, the daemon reconciles. The first event wakes a pass at once;
// events that arrive while an epoch runs join it before its next pass.
// The loop is level-triggered — events only say *that* something
// changed; every pass re-derives the diff from observed state — so
// lost or coalesced events cost at most an extra pass (or one poll
// interval), never correctness.

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"time"

	"conman/internal/core"
	"conman/internal/obs"
)

const (
	// backoff is the initial retry delay after a failed reconcile; it
	// doubles per consecutive failure up to maxBackoff.
	backoff    = 50 * time.Millisecond
	maxBackoff = 2 * time.Second
)

// DaemonConfig tunes the control loop. Zero values select defaults.
type DaemonConfig struct {
	// Poll, when positive, adds a periodic audit pass so drift that
	// produced no event is still caught (the pull side of push-vs-poll;
	// the event path is the push side). Default 0: pure push. Each poll
	// tick invalidates the NM's observation cache — a poll that trusted
	// the cache would only catch drift that also produced an event,
	// which is exactly what polling must not rely on.
	Poll time.Duration
	// Buffer sizes the event subscription channel.
	Buffer int
	// Logger receives structured reconcile logs with per-reconcile
	// trace IDs; nil discards them.
	Logger *slog.Logger
}

// IntentHealth is one intent's slice of the daemon's status snapshot.
type IntentHealth struct {
	Name      string          `json:"name"`
	Path      string          `json:"path,omitempty"`
	Devices   []core.DeviceID `json:"devices"`
	Exclusive int             `json:"exclusive"`
	Shared    int             `json:"shared"`
}

// DaemonStatus is the daemon's /status document.
type DaemonStatus struct {
	Running       bool            `json:"running"`
	Converged     bool            `json:"converged"`
	ConvergeGen   uint64          `json:"converge_gen"`
	Dirty         []string        `json:"dirty,omitempty"`
	PendingEvents int             `json:"pending_events"`
	LastError     string          `json:"last_error,omitempty"`
	Unreachable   []core.DeviceID `json:"unreachable,omitempty"`
	Intents       []IntentHealth  `json:"intents"`
	Metrics       map[string]any  `json:"metrics"`
}

// Healthy reports whether every intent is reconciled and reachable.
func (s DaemonStatus) Healthy() bool {
	return s.Running && s.Converged && s.LastError == "" && len(s.Dirty) == 0
}

// Daemon is the autonomous reconciliation loop over one NM.
type Daemon struct {
	nm      *NM
	cfg     DaemonConfig
	log     *slog.Logger
	metrics *obs.Metrics

	mReconcile    *obs.Histogram
	mTrigConverge *obs.Histogram
	cRuns         *obs.Counter
	cErrors       *obs.Counter
	cInstalled    *obs.Counter
	cWithdrawn    *obs.Counter
	cNotify       *obs.Counter
	cTrigger      *obs.Counter
	cTopology     *obs.Counter
	cPoll         *obs.Counter
	cCacheHits    *obs.Counter
	cCacheMisses  *obs.Counter
	cUnchanged    *obs.Counter
	cRecompiles   *obs.Counter
	cObserves     *obs.Counter

	mu          sync.Mutex
	running     bool
	events      <-chan Event
	dirty       map[string]bool
	dirtySince  time.Time
	reconciling bool
	// changed is closed, and cleared, when the daemon converges or
	// falls out of convergence; WaitConverged sleeps on it.
	changed     chan struct{}
	converged   bool
	convergeGen uint64
	lastErr     error
	lastViews   []*IntentView
	unreachable []core.DeviceID
	traceSeq    uint64
}

// NewDaemon builds a daemon over the NM. Call Run to start it.
func NewDaemon(n *NM, cfg DaemonConfig) *Daemon {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	m := obs.NewMetrics()
	d := &Daemon{nm: n, cfg: cfg, log: log, metrics: m, dirty: make(map[string]bool)}
	d.mReconcile = m.Histogram("conman_reconcile_latency_seconds",
		"Wall-clock latency of one Reconcile pass")
	d.mTrigConverge = m.Histogram("conman_trigger_to_converged_seconds",
		"Time from the first event of a dirty epoch to convergence")
	d.cRuns = m.Counter("conman_reconcile_runs_total", "Reconcile passes executed")
	d.cErrors = m.Counter("conman_reconcile_errors_total", "Reconcile passes that failed")
	d.cInstalled = m.Counter("conman_components_installed_total",
		"Components (pipes, routes/switch rules) created by the daemon")
	d.cWithdrawn = m.Counter("conman_components_withdrawn_total",
		"Components deleted by the daemon")
	d.cNotify = m.Counter("conman_events_notify_total", "Module notifications processed (push)")
	d.cTrigger = m.Counter("conman_events_trigger_total", "Dependency triggers processed (push)")
	d.cTopology = m.Counter("conman_events_topology_total", "Topology changes processed (push)")
	d.cPoll = m.Counter("conman_events_poll_total", "Periodic audit passes (pull)")
	// The NM keeps the event-drop and journal numbers; a scrape reads
	// them there.
	m.CounterFunc("conman_events_dropped_total", "Events dropped on a full subscriber buffer", n.EventsDropped)
	d.cCacheHits = m.Counter("conman_observe_cache_hits_total",
		"Occupied devices served from the observation cache")
	d.cCacheMisses = m.Counter("conman_observe_cache_misses_total",
		"Occupied devices re-observed because their generation moved")
	d.cUnchanged = m.Counter("conman_observe_unchanged_total",
		"Conditional showActual reads answered unchanged (digest matched, no state sent)")
	d.cRecompiles = m.Counter("conman_store_recompiles_total",
		"Intents recompiled by reconcile passes (dirty ones only)")
	d.cObserves = m.Counter("conman_observes_total",
		"Devices fetched fresh via showActual by reconcile passes")
	m.CounterFunc("conman_journal_entries_total", "Journal entries appended",
		func() uint64 { return n.JournalStatus().Entries })
	m.CounterFunc("conman_snapshot_writes_total", "Datastore snapshots written",
		func() uint64 { return n.JournalStatus().Snapshots })
	m.GaugeFunc("conman_journal_bytes_since_snapshot", "Journal a restart would replay",
		func() uint64 { return uint64(n.JournalStatus().SinceSnapshotBytes) })
	m.GaugeFunc("conman_snapshot_bytes", "Last snapshot; the journal size that triggers the next",
		func() uint64 { return uint64(n.JournalStatus().SnapshotBytes) })
	return d
}

// Metrics returns the daemon's registry. The event-drop and journal
// series are read from the NM when it is snapshotted or rendered.
func (d *Daemon) Metrics() *obs.Metrics { return d.metrics }

// Run executes the control loop until ctx is cancelled. It performs
// one initial reconcile (establishing convergence on the current
// store), then reacts to events.
func (d *Daemon) Run(ctx context.Context) error {
	events, cancel := d.nm.Subscribe(d.cfg.Buffer)
	defer cancel()
	d.mu.Lock()
	d.events = events
	d.running = true
	d.mu.Unlock()
	defer func() {
		d.mu.Lock()
		d.running = false
		d.mu.Unlock()
	}()

	var pollC <-chan time.Time
	if d.cfg.Poll > 0 {
		t := time.NewTicker(d.cfg.Poll)
		defer t.Stop()
		pollC = t.C
	}
	// A failed epoch arms the backoff wait; an event ends it early,
	// since it may be what the failed pass was missing.
	var retryC <-chan time.Time
	retry := backoff
	// The initial pass runs at once.
	pending := true
	for {
		if pending {
			pending, retryC = false, nil
			if d.reconcileEpoch(events) {
				retry = backoff
			} else {
				d.log.Info("retry scheduled", "backoff", retry)
				retryC = time.After(retry)
				retry = min(2*retry, maxBackoff)
			}
		}
		select {
		case <-ctx.Done():
			return nil
		case ev := <-events:
			d.noteEvent(ev)
			pending = true
		case <-pollC:
			d.cPoll.Inc()
			d.nm.InvalidateObservations()
			d.markDirty("*")
			pending = true
		case <-retryC:
			pending = true
		}
	}
}

// noteEvent counts an event and marks the dirty set.
func (d *Daemon) noteEvent(ev Event) {
	switch ev.Kind {
	case EventNotify:
		d.cNotify.Inc()
	case EventTrigger:
		d.cTrigger.Inc()
	case EventTopology:
		d.cTopology.Inc()
	}
	switch ev.Kind {
	case EventTopology:
		// A changed physical view can re-route any intent.
		d.markDirty("*")
	default:
		// Notifies and triggers implicate the intents whose applied
		// configuration touches the reporting device (the §II-E
		// dependents); none known means the event predates our records
		// — dirty everything.
		names := d.nm.IntentsOn(ev.Device)
		if len(names) == 0 {
			d.markDirty("*")
			return
		}
		for _, name := range names {
			d.markDirty(name)
		}
	}
}

func (d *Daemon) markDirty(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.dirtySince.IsZero() {
		d.dirtySince = time.Now()
	}
	d.dirty[name] = true
	d.converged = false
	d.signalLocked()
}

// signalLocked wakes every WaitConverged.
func (d *Daemon) signalLocked() {
	if d.changed != nil {
		close(d.changed)
		d.changed = nil
	}
}

// reconcileEpoch runs Reconcile until the plan is empty (bounded),
// reporting false when the epoch must be retried with backoff. Before
// each pass it takes in the events already waiting, so the rest of a
// burst (a cut wire's second re-report) joins the epoch its first
// event started instead of opening another.
func (d *Daemon) reconcileEpoch(events <-chan Event) bool {
	dirty := make(map[string]bool)
	var since time.Time
	take := func() {
		for n := len(events); n > 0; n-- {
			d.noteEvent(<-events)
		}
		d.mu.Lock()
		for k := range d.dirty {
			dirty[k] = true
		}
		clear(d.dirty)
		if since.IsZero() {
			since = d.dirtySince
		}
		d.dirtySince = time.Time{}
		d.mu.Unlock()
	}
	d.mu.Lock()
	d.reconciling = true
	d.traceSeq++
	trace := fmt.Sprintf("r-%06d", d.traceSeq)
	d.mu.Unlock()

	log := d.log.With("trace", trace)

	fail := func(err error) bool {
		d.cErrors.Inc()
		log.Warn("reconcile failed", "err", err)
		d.mu.Lock()
		d.lastErr = err
		for k := range dirty {
			d.dirty[k] = true
		}
		if d.dirtySince.IsZero() {
			d.dirtySince = since
		}
		d.reconciling = false
		d.mu.Unlock()
		return false
	}

	for iter := 0; ; iter++ {
		take()
		log.Debug("reconcile pass", "dirty", sortedKeys(dirty), "iteration", iter+1)
		t0 := time.Now()
		plan, err := d.nm.Reconcile()
		d.cRuns.Inc()
		d.mReconcile.Observe(time.Since(t0).Seconds())
		if err != nil {
			return fail(err)
		}
		d.cCacheHits.Add(uint64(plan.Stats.CacheHits))
		d.cCacheMisses.Add(uint64(plan.Stats.CacheMisses))
		d.cUnchanged.Add(uint64(plan.Stats.Unchanged))
		d.cRecompiles.Add(uint64(plan.Stats.Recompiled))
		d.cObserves.Add(uint64(plan.Stats.Observed))
		creates, deletes := batchCounts(plan.Creates, plan.Deletes)
		d.cInstalled.Add(uint64(creates))
		d.cWithdrawn.Add(uint64(deletes))
		d.mu.Lock()
		d.lastViews = plan.Views
		d.unreachable = plan.Unreachable
		d.mu.Unlock()
		if plan.Empty() {
			if !since.IsZero() {
				d.mTrigConverge.Observe(time.Since(since).Seconds())
			}
			log.Info("converged", "iterations", iter+1, "unreachable", len(plan.Unreachable))
			d.mu.Lock()
			d.lastErr = nil
			d.converged = true
			d.convergeGen++
			d.reconciling = false
			d.signalLocked()
			d.mu.Unlock()
			return true
		}
		log.Info("reconciled", "creates", creates, "deletes", deletes, "iteration", iter+1)
		if iter >= 7 {
			return fail(fmt.Errorf("nm: daemon: no convergence after %d passes", iter+1))
		}
	}
}

// Status snapshots the daemon for /status and conman doctor.
func (d *Daemon) Status() DaemonStatus {
	// The snapshot reads the NM, so it is taken before d.mu.
	metrics := d.metrics.Snapshot()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := DaemonStatus{
		Running:     d.running,
		Converged:   d.converged,
		ConvergeGen: d.convergeGen,
		Dirty:       sortedKeys(d.dirty),
		Unreachable: append([]core.DeviceID(nil), d.unreachable...),
		Metrics:     metrics,
	}
	if d.events != nil {
		s.PendingEvents = len(d.events)
	}
	if d.lastErr != nil {
		s.LastError = d.lastErr.Error()
	}
	for _, v := range d.lastViews {
		h := IntentHealth{
			Name:      v.Intent.Name,
			Devices:   append([]core.DeviceID(nil), v.Devices...),
			Exclusive: v.Exclusive,
			Shared:    v.Shared,
		}
		if v.Path != nil {
			h.Path = v.Path.Describe()
		}
		s.Intents = append(s.Intents, h)
	}
	return s
}

// ConvergeGen returns the current convergence generation; it bumps on
// every convergence, so callers can wait for one *after* an injected
// fault.
func (d *Daemon) ConvergeGen() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.convergeGen
}

// WaitConverged blocks until the daemon is idle — converged with
// generation > after, nothing dirty, no buffered events — or the
// timeout expires.
func (d *Daemon) WaitConverged(after uint64, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		d.mu.Lock()
		idle := d.converged && d.convergeGen > after && !d.reconciling &&
			len(d.dirty) == 0 && (d.events == nil || len(d.events) == 0)
		if idle {
			d.mu.Unlock()
			return nil
		}
		gen := d.convergeGen
		errLast := d.lastErr
		if d.changed == nil {
			d.changed = make(chan struct{})
		}
		changed := d.changed
		d.mu.Unlock()
		select {
		case <-changed:
		case <-deadline.C:
			return fmt.Errorf("nm: daemon: not converged after %v (gen %d > %d wanted, last error: %v)",
				timeout, gen, after, errLast)
		}
	}
}

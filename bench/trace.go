package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"conman/internal/channel"
	"conman/internal/msg"
	"conman/internal/nm/datastore"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark's own decorators around calls into the program.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
	// Track names the endpoint (or goroutine role) the span ran on.
	Track string
	// Env is the envelope a channel.send / *.handle span carried; its
	// encoded size is computed after the run, off the clock.
	Env *msg.Envelope
	// Bytes is the payload size of a datastore span.
	Bytes int
}

func (s *span) dur() time.Duration { return s.End - s.Start }

// envKey matches a received envelope to the send that carried it.
type envKey struct {
	from, to string
	typ      msg.Type
	id       uint64
}

// recorder keeps spans in memory; they are written out when the run
// ends. In nested mode every span runs on one goroutine (the in-process
// hub with a sequential NM), so a span begun while another is open is
// its child and self time is exact. Otherwise (UDP, the daemon) only the
// send→handle edge is known: handlers are children of the send that
// carried their envelope, everything else hangs off the root.
type recorder struct {
	nested bool
	epoch  time.Time

	mu      sync.Mutex
	spans   []span
	stack   []int            // nested mode: open spans, innermost last
	root    int              // the open rep/episode/op span, -1 when none
	pending map[envKey][]int // sends whose handler has not run yet
}

func newRecorder(nested bool) *recorder {
	return &recorder{nested: nested, epoch: time.Now(), root: -1, pending: make(map[envKey][]int)}
}

// begin opens a span. parent < 0 selects the default: the innermost
// open span in nested mode, the root otherwise.
func (r *recorder) begin(name, track string, parent int, env *msg.Envelope) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	id := len(r.spans)
	if parent < 0 {
		parent = r.root
		if r.nested && len(r.stack) > 0 {
			parent = r.stack[len(r.stack)-1]
		}
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, Track: track, Env: env})
	if r.nested {
		r.stack = append(r.stack, id)
	}
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].End = now
	if r.nested && len(r.stack) > 0 {
		r.stack = r.stack[:len(r.stack)-1]
	}
	r.mu.Unlock()
}

func (r *recorder) setBytes(id, n int) {
	r.mu.Lock()
	r.spans[id].Bytes = n
	r.mu.Unlock()
}

// beginRoot opens the rep/episode/op span every other span of the
// operation descends from; corr is the operation's correlation id.
func (r *recorder) beginRoot(name, corr string) int {
	id := r.begin(name, corr, -1, nil)
	r.mu.Lock()
	r.root = id
	r.mu.Unlock()
	return id
}

func (r *recorder) endRoot(id int) {
	r.end(id)
	r.mu.Lock()
	r.root = -1
	r.mu.Unlock()
}

// within runs fn inside a span; a nil recorder (untraced run) just runs fn.
func (r *recorder) within(name, track string, fn func()) {
	if r == nil {
		fn()
		return
	}
	id := r.begin(name, track, -1, nil)
	fn()
	r.end(id)
}

// take returns the recorded spans and resets the recorder for the next
// operation.
func (r *recorder) take() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.spans
	r.spans, r.stack, r.root = nil, nil, -1
	r.pending = make(map[envKey][]int)
	return out
}

// tracedEndpoint decorates a management-channel endpoint: one
// channel.send span per envelope sent, one handler span per envelope
// delivered (nm.handle on the NM's endpoint, device.handle elsewhere).
type tracedEndpoint struct {
	channel.Endpoint
	rec *recorder
}

func (e *tracedEndpoint) Send(env msg.Envelope) error {
	r := e.rec
	id := r.begin("channel.send", e.Name(), -1, &env)
	if !r.nested {
		k := envKey{env.From, env.To, env.Type, env.ID}
		r.mu.Lock()
		r.pending[k] = append(r.pending[k], id)
		r.mu.Unlock()
	}
	err := e.Endpoint.Send(env)
	r.end(id)
	return err
}

func (e *tracedEndpoint) SetHandler(h channel.Handler) {
	name := "device.handle"
	if e.Name() == msg.NMName {
		name = "nm.handle"
	}
	r := e.rec
	e.Endpoint.SetHandler(func(env msg.Envelope) {
		parent := -1
		if !r.nested {
			k := envKey{env.From, env.To, env.Type, env.ID}
			r.mu.Lock()
			if q := r.pending[k]; len(q) > 0 {
				parent = q[0]
				r.pending[k] = q[1:]
			}
			r.mu.Unlock()
		}
		id := r.begin(name, e.Name(), parent, &env)
		h(env)
		r.end(id)
	})
}

// tracedBackend decorates the journal's storage: one duration sample per
// append and per snapshot, and a span for each while rec is set. The NM
// journals on the goroutine that mutates the store, so one client
// goroutine means no locking here.
type tracedBackend struct {
	datastore.Backend
	rec *recorder // nil between traced rounds

	appends       []float64
	snapshots     []float64
	snapshotBytes []float64
}

func (b *tracedBackend) timed(name string, bytes int, call func() error) (float64, error) {
	id := -1
	if b.rec != nil {
		id = b.rec.begin(name, msg.NMName, -1, nil)
	}
	t0 := time.Now()
	err := call()
	d := time.Since(t0).Seconds()
	if id >= 0 {
		b.rec.end(id)
		b.rec.setBytes(id, bytes)
	}
	return d, err
}

func (b *tracedBackend) Append(e datastore.Entry) error {
	d, err := b.timed("datastore.append", len(e.Data), func() error { return b.Backend.Append(e) })
	b.appends = append(b.appends, d)
	return err
}

func (b *tracedBackend) WriteSnapshot(seq uint64, data []byte) error {
	d, err := b.timed("datastore.snapshot", len(data), func() error { return b.Backend.WriteSnapshot(seq, data) })
	b.snapshots = append(b.snapshots, d)
	b.snapshotBytes = append(b.snapshotBytes, float64(len(data)))
	return err
}

// reset drops the samples gathered so far (set-up traffic).
func (b *tracedBackend) reset() {
	b.appends, b.snapshots, b.snapshotBytes = nil, nil, nil
}

// layerOf names the package a span's self time is charged to.
func layerOf(s *span) string {
	switch s.Name {
	case "rep", "episode", "op":
		return "wait" // the client polling or sleeping, no layer at work
	case "channel.send":
		return "channel"
	case "device.handle":
		if s.Env != nil && s.Env.Type == msg.TypeConvey {
			return "modules"
		}
		return "device"
	case "datastore.append", "datastore.snapshot":
		return "datastore"
	case "probe.verify":
		return "netsim"
	}
	return "nm" // nm.plan, nm.apply, nm.reconcile, nm.submit, nm.handle
}

// selfTimes returns each span's duration minus the part of it its
// direct children cover (children may overlap each other off the hub).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i := range spans {
		if p := spans[i].Parent; p >= 0 {
			kids[p] = append(kids[p], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// traceEvent is one Chrome trace-event record ("X" = complete span,
// "M" = metadata); the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// writeTrace writes spans as Chrome trace-event JSON. Spans of one
// track that overlap in time (concurrent handlers of one endpoint) are
// spread over lanes so every thread's slices nest properly.
func writeTrace(path string, spans []span) error {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })

	type lane struct {
		tid  int
		open []time.Duration // end times of the slices currently nested on this lane
	}
	lanes := make(map[string][]*lane)
	var events []traceEvent
	nextTid := 1
	for _, i := range order {
		s := &spans[i]
		var chosen *lane
		for _, l := range lanes[s.Track] {
			for len(l.open) > 0 && l.open[len(l.open)-1] <= s.Start {
				l.open = l.open[:len(l.open)-1]
			}
			if len(l.open) == 0 || l.open[len(l.open)-1] >= s.End {
				chosen = l
				break
			}
		}
		if chosen == nil {
			chosen = &lane{tid: nextTid}
			nextTid++
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: chosen.tid,
				Args: map[string]any{"name": fmt.Sprintf("%s/%d", s.Track, len(lanes[s.Track]))}})
			lanes[s.Track] = append(lanes[s.Track], chosen)
		}
		chosen.open = append(chosen.open, s.End)
		args := map[string]any{"id": s.ID, "parent": s.Parent, "layer": layerOf(s)}
		if s.Env != nil {
			args["type"], args["from"], args["to"], args["env_id"] = string(s.Env.Type), s.Env.From, s.Env.To, s.Env.ID
			if data, err := s.Env.Marshal(); err == nil {
				args["bytes"] = len(data)
			}
		}
		if s.Bytes > 0 {
			args["bytes"] = s.Bytes
		}
		events = append(events, traceEvent{
			Name: s.Name, Cat: layerOf(s), Ph: "X", Pid: 1, Tid: chosen.tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Args: args,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(traceFile{TraceEvents: events, DisplayTimeUnit: "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

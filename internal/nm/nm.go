// Package nm implements the CONMan Network Manager (paper §II-D): it
// learns the network's physical topology and module abstractions over the
// management channel, builds the potential-connectivity graph (Fig 5),
// finds protocol-sane module-level paths between endpoints (Fig 6,
// §III-C.1), compiles a chosen path into protocol-agnostic CONMan
// primitives (Figs 7b/8b/9b) and executes them, relaying module-to-module
// messages (conveyMessage / listFieldsAndValues) since modules can only
// talk to the NM.
//
// Control modules (§II-F) are matched by token equality: a data
// module's declared state dependency (IPSec's keying material, the IP
// module's transit routes) is satisfied by a co-located control module
// advertising ProvidesState with the same token, and the compiler
// emits the pipes that introduce provider peers to each other (one
// pipe per IGP adjacency along a transit IPv4 group) without ever
// understanding the state itself.
//
// Path selection is goal-directed: Graph.FindBest runs a best-first
// search over partial paths scored by the paper's selection metric
// (pipes instantiated, forwarding speed, hop count) with a
// flavour-aware dominance table, returning the best — or best
// preferred-flavour — path without materialising the variant space.
// Graph.FindPaths remains the exhaustive enumerator (the Fig 6
// path-counting experiments, and the Exhaustive A/B knob).
//
// # The intent store
//
// The NM's public surface is declarative, with one configuration
// lifecycle: the intent store, the paper's "NM holds all the goals"
// model (§III). Submit, Update and Withdraw register, replace and remove
// goals (named connectivity Goals); PlanStore compiles the union of
// every registered intent, deduplicates the desired pipes and switch
// rules by content with per-intent ownership (refcounting), diffs that
// union against observed device state in one merge (storeState.merge)
// and one diff (deviceUnion.diff, whose full rematch is its pending-work
// pass run from empty), and Apply sends create/delete batches that only
// remove components no registered intent wants. Reconcile is PlanStore
// plus Apply under one lock. Goals whose paths cross the same transit
// devices therefore coexist — their shared components are configured
// once and survive until the last owner is withdrawn — and withdrawing
// one goal removes exactly its unshared components. Plan(intent) is the
// one-intent way in: it sends no commands, registers or replaces the
// intent, recompiles it and re-reads every occupied device (by digest:
// an unchanged device sends no state) before returning PlanStore's diff.
// Pipe identity is structural (endpoint modules, remote peers,
// dependency choices), so reconciliation adopts the wire ids of matching
// installed pipes instead of churning them.
//
// The store is incremental and persistent. Reconcile recompiles only
// intents dirtied since the last pass (cached compilations are reused,
// and the potential graph is memoised on the compile generation), and
// answers unchanged devices from a per-device observation cache keyed
// on device generations — so the cost of a pass scales with what
// changed, not with what is registered. With NM.Persist the store
// journals every Submit/Withdraw/commit to an append-only log
// (internal/nm/datastore) with periodic snapshots; a restarted NM
// restores its goals and observation cache and converges without
// re-observing devices whose state nothing questions.
package nm

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/msg"
	"conman/internal/nm/datastore"
)

// DefaultWorkers bounds the NM's concurrent device fan-out. Per-device
// management work is dominated by channel round trips, so a pool larger
// than GOMAXPROCS still pays off.
const DefaultWorkers = 16

// Counters tracks the NM's management-channel traffic in the categories
// of the paper's Table VI: configuration commands sent (one batch per
// device), module-message relays (each relayed message counts once
// received from the source and once sent to the destination), and
// unsolicited notifications received. Transport-level acknowledgements
// (batch responses) are tracked separately and not part of the Table VI
// numbers, matching the paper's accounting of n command sends with no
// per-command receive.
type Counters struct {
	CmdSent     int // command batches sent
	RelayIn     int // convey/listFields messages received for relay
	RelayOut    int // convey/listFields messages relayed out
	NotifyRecv  int // unsolicited notifications received
	AckRecv     int // batch responses (transport-level, not in Table VI)
	TriggerRecv int
}

// Sent is the Table VI "messages sent" figure.
func (c Counters) Sent() int { return c.CmdSent + c.RelayOut }

// Received is the Table VI "messages received" figure.
func (c Counters) Received() int { return c.RelayIn + c.NotifyRecv }

// DeviceInfo is everything the NM knows about one device.
type DeviceInfo struct {
	ID       core.DeviceID
	Hello    bool
	Topology msg.Topology
	Modules  []core.Abstraction // from showPotential
}

type relayOrigin struct {
	dev string
	id  uint64
}

// logEntry is one recorded management-channel event, tagged with the
// stream it belongs to and its sequence number within that stream. A
// stream is a causally ordered unit of traffic: one device's command
// batches, or one module-pair conversation (whose init/reply/ack all
// pass through the NM in order). Under the concurrent executor the
// global arrival interleave across streams is nondeterministic, but
// each stream's internal order is not — so sorting by (stream, seq)
// yields a trace that is byte-reproducible run to run.
type logEntry struct {
	stream string
	seq    uint64
	text   string
}

func (e logEntry) String() string {
	return fmt.Sprintf("[%s #%d] %s", e.stream, e.seq, e.text)
}

// conveyStream names the conversation stream of a relayed module
// message: direction-normalised module pair plus message kind, so a
// request and its reply land in the same stream.
func conveyStream(a, b core.ModuleRef, kind string) string {
	as, bs := a.String(), b.String()
	if bs < as {
		as, bs = bs, as
	}
	return "convey:" + as + "~" + bs + ":" + kind
}

// NM is the network manager.
type NM struct {
	mu       sync.Mutex
	ep       channel.Endpoint
	devices  map[core.DeviceID]*DeviceInfo // guarded by mu
	order    []core.DeviceID               // guarded by mu
	counters Counters

	reqSeq  uint64
	waiters map[uint64]chan msg.Envelope // guarded by mu

	relaySeq uint64
	relays   map[uint64]relayOrigin // guarded by mu

	// domains maps abstract domain names (the NM's admitted
	// protocol-specific knowledge, §III-C) to prefixes, and gateway
	// tokens to addresses.
	domains  map[string]string // guarded by mu
	gateways map[string]string // guarded by mu

	// intentDevs remembers, per applied intent name, the devices its
	// configuration touched, so a later pass can prune state from
	// devices a re-chosen path no longer traverses (reroute after
	// failure) or that only a withdrawn intent occupied.
	intentDevs map[string]map[core.DeviceID]bool // guarded by mu

	// store holds the registered goals of the intent store
	// (Submit/Withdraw) by intent name; storeOrder keeps submission
	// order so Reconcile compiles and renders deterministically.
	store      map[string]Intent // guarded by mu
	storeOrder seqList[string]   // guarded by mu

	// subs are the live event subscribers (Subscribe); publishes that
	// find a subscriber's buffer full are counted in eventsDropped
	// rather than blocking the management channel.
	subs          map[uint64]chan Event // guarded by mu
	subSeq        uint64
	eventSeq      uint64
	eventsDropped uint64

	// staleDevs are devices that were unreachable while holding stale
	// configuration; they are re-checked (and pruned) once reachable.
	staleDevs map[core.DeviceID]bool // guarded by mu

	// installedTriggers dedups the NM's own InstallTrigger calls per
	// (module, component), so repeated reconciles stay quiet.
	installedTriggers map[string]bool // guarded by mu

	// obsGens is the per-device observation generation: bumped by every
	// signal that the device's configured state may have changed (hello,
	// topology change, module notify, dependency trigger). The store's
	// observed-state cache is valid only while its recorded generation
	// still matches — event-driven invalidation instead of a showActual
	// sweep per reconcile.
	obsGens map[core.DeviceID]uint64 // guarded by mu
	// compileGen is bumped by everything that can change compilation
	// inputs (module discovery, topology, domain/gateway bindings). The
	// store falls back to a full union rebuild when it moves.
	compileGen uint64
	// graphCache memoises BuildGraph for the current compileGen: a full
	// store rebuild compiles every intent against the same topology, and
	// rebuilding the potential graph per intent is O(k^2) at store
	// scale. The graph is read-only after construction (searches keep
	// their state in a per-call finder), so sharing it is safe.
	graphCache *Graph // guarded by mu
	graphGen   uint64

	// planMu serialises store planning/apply and guards ss, the
	// incremental union + observation-cache state. Lock order: planMu
	// before mu, never the reverse.
	planMu sync.Mutex
	ss     *storeState // guarded by planMu

	// ssDirty/ssRemoved record store mutations since the last PlanStore
	// drained them; storePos keeps each registered intent's number in
	// storeOrder so dirty intents merge in deterministic order.
	ssDirty   map[string]bool // guarded by mu
	ssRemoved map[string]bool // guarded by mu
	storePos  map[string]uint64

	// journal, when set via Persist, durably records store mutations;
	// journalEntries/snapshotsWritten count this process's writes.
	journal          *datastore.Log
	journalEntries   uint64
	snapshotsWritten uint64

	logEnabled bool
	msgLog     []logEntry        // guarded by mu
	logSeq     map[string]uint64 // guarded by mu

	// CallTimeout bounds request/response calls.
	CallTimeout time.Duration

	// RetryInterval, when positive, retransmits an unanswered request
	// (same envelope, same ID) every interval until CallTimeout expires,
	// letting calls converge over lossy management channels. Device
	// agents dedup by (requester, envelope ID), so a retransmitted
	// request is answered from the reply cache rather than re-executed.
	// Zero (the default) keeps single-shot calls. Set before attaching a
	// channel; it is read without locking.
	RetryInterval time.Duration

	// callRetries counts request retransmissions issued by call().
	callRetries atomic.Uint64

	// Sequential restores the strictly one-device-at-a-time behaviour
	// for DiscoverAll and Execute (the paper's original accounting mode,
	// and a safe fallback for channels that cannot carry concurrent
	// traffic). The default is concurrent fan-out. Set before the first
	// DiscoverAll/Execute call; it is read without locking.
	Sequential bool
}

// relayIDBase keeps relay envelope ids disjoint from the NM's own call
// ids (reqSeq): both appear as envelope IDs in ListFieldsResp/Error
// replies, and a collision would misroute a call response to a relay
// origin.
const relayIDBase = uint64(1) << 32

// New creates a network manager.
func New() *NM {
	return &NM{
		devices:           make(map[core.DeviceID]*DeviceInfo),
		waiters:           make(map[uint64]chan msg.Envelope),
		relays:            make(map[uint64]relayOrigin),
		relaySeq:          relayIDBase,
		domains:           make(map[string]string),
		gateways:          make(map[string]string),
		intentDevs:        make(map[string]map[core.DeviceID]bool),
		store:             make(map[string]Intent),
		subs:              make(map[uint64]chan Event),
		staleDevs:         make(map[core.DeviceID]bool),
		installedTriggers: make(map[string]bool),
		obsGens:           make(map[core.DeviceID]uint64),
		ss:                newStoreState(),
		ssDirty:           make(map[string]bool),
		ssRemoved:         make(map[string]bool),
		storePos:          make(map[string]uint64),
		CallTimeout:       5 * time.Second,
	}
}

// AttachChannel connects the NM to the management channel.
func (n *NM) AttachChannel(ep channel.Endpoint) {
	n.mu.Lock()
	n.ep = ep
	n.mu.Unlock()
	ep.SetHandler(n.handle)
}

// SetDomain registers an address-domain name -> prefix binding ("C1-S2"
// -> "10.0.2.0/24"). Per §III-C the NM legitimately owns this knowledge.
func (n *NM) SetDomain(name, prefix string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.domains[name] = prefix
	n.compileGen++
}

// SetGateway registers a gateway token -> address binding ("S1-gateway"
// -> "192.168.0.1").
func (n *NM) SetGateway(token, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gateways[token] = addr
	n.compileGen++
}

// resolveDomain returns the prefix for a domain name.
func (n *NM) resolveDomain(name string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	p, ok := n.domains[name]
	return p, ok
}

// resolveGateway returns the address for a gateway token.
func (n *NM) resolveGateway(token string) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.gateways[token]
	return a, ok
}

// Counters returns a snapshot of the message counters.
func (n *NM) Counters() Counters {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.counters
}

// ResetCounters zeroes the counters (called before a configuration run so
// Table VI counts configuration traffic only).
func (n *NM) ResetCounters() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.counters = Counters{}
	n.msgLog = nil
	n.logSeq = nil
}

// EnableMessageLog starts recording a human-readable trace of the NM's
// management-channel traffic (used to regenerate the paper's Fig 3
// message sequence). Entries carry per-device sequence numbers.
func (n *NM) EnableMessageLog() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.logEnabled = true
}

// MessageLog returns the recorded trace. Under the concurrent executor
// the arrival interleave across streams is nondeterministic, so the
// trace is returned in canonical order — streams sorted by name, each
// stream's entries in causal sequence — which is byte-reproducible run
// to run. In Sequential mode arrival order is itself deterministic and
// chronological (the paper's Fig 3 is a time-ordered sequence diagram),
// so the trace keeps it.
func (n *NM) MessageLog() []string {
	n.mu.Lock()
	entries := append([]logEntry(nil), n.msgLog...)
	n.mu.Unlock()
	if !n.Sequential {
		sort.SliceStable(entries, func(i, j int) bool {
			if entries[i].stream != entries[j].stream {
				return entries[i].stream < entries[j].stream
			}
			return entries[i].seq < entries[j].seq
		})
	}
	out := make([]string, len(entries))
	for i, e := range entries {
		out[i] = e.String()
	}
	return out
}

// logf records one event in the given stream. Caller must pick the
// stream so that all its events are causally ordered at the NM.
func (n *NM) logfLocked(stream string, format string, args ...any) {
	if !n.logEnabled {
		return
	}
	if n.logSeq == nil {
		n.logSeq = make(map[string]uint64)
	}
	n.logSeq[stream]++
	n.msgLog = append(n.msgLog, logEntry{stream: stream, seq: n.logSeq[stream], text: fmt.Sprintf(format, args...)})
}

// Devices returns the known device ids in hello order.
func (n *NM) Devices() []core.DeviceID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]core.DeviceID(nil), n.order...)
}

// Device returns the NM's knowledge of one device.
func (n *NM) Device(id core.DeviceID) (*DeviceInfo, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	d, ok := n.devices[id]
	if !ok {
		return nil, false
	}
	cp := *d
	cp.Modules = append([]core.Abstraction(nil), d.Modules...)
	return &cp, true
}

// IntentsOn returns the registered intents whose last applied
// configuration touched the device (sorted). The daemon uses it to map
// a device-scoped event to the dependent intents.
func (n *NM) IntentsOn(dev core.DeviceID) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for name, devs := range n.intentDevs {
		if devs[dev] {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func (n *NM) deviceInfoLocked(id core.DeviceID) *DeviceInfo {
	d, ok := n.devices[id]
	if !ok {
		d = &DeviceInfo{ID: id}
		n.devices[id] = d
		n.order = append(n.order, id)
		sort.Slice(n.order, func(i, j int) bool { return n.order[i] < n.order[j] })
	}
	return d
}

// ---------------------------------------------------------------------------
// Channel handling

func (n *NM) handle(env msg.Envelope) {
	switch env.Type {
	case msg.TypeHello:
		var h msg.Hello
		if env.Decode(&h) == nil {
			n.mu.Lock()
			n.deviceInfoLocked(h.Device).Hello = true
			// A (re)booted device starts from clean state: both its cached
			// observation and the potential graph are suspect.
			n.bumpObsLocked(h.Device)
			n.compileGen++
			n.mu.Unlock()
		}

	case msg.TypeTopology:
		var t msg.Topology
		if env.Decode(&t) == nil {
			n.mu.Lock()
			d := n.deviceInfoLocked(t.Device)
			prev := d.Topology
			d.Topology = t
			if len(prev.Ports) == 0 || !topologyEqual(prev, t) {
				n.bumpObsLocked(t.Device)
				n.compileGen++
			}
			// A re-report that changed the device's physical view (link
			// up/down, peer change) is an event the daemon reacts to;
			// the initial report and identical re-reports are not.
			if len(prev.Ports) > 0 && !topologyEqual(prev, t) {
				n.publishLocked(Event{Kind: EventTopology, Device: t.Device})
			}
			n.mu.Unlock()
		}

	case msg.TypeConvey:
		var c msg.Convey
		if env.Decode(&c) != nil {
			return
		}
		n.mu.Lock()
		n.counters.RelayIn++
		n.logfLocked(conveyStream(c.FromModule, c.ToModule, c.Kind), "conveyMessage (%s -> %s, %s)", c.FromModule, c.ToModule, c.Kind)
		ep := n.ep
		n.mu.Unlock()
		out := msg.MustNew(msg.TypeConvey, msg.NMName, string(c.ToModule.Device), env.ID, c)
		if ep != nil && ep.Send(out) == nil {
			n.mu.Lock()
			n.counters.RelayOut++
			n.mu.Unlock()
		}

	case msg.TypeListFieldsReq:
		var req msg.ListFieldsReq
		if env.Decode(&req) != nil {
			return
		}
		n.mu.Lock()
		n.counters.RelayIn++
		n.relaySeq++
		rid := n.relaySeq
		n.relays[rid] = relayOrigin{dev: env.From, id: env.ID}
		n.logfLocked("fields:"+req.Requester.String()+"~"+req.Target.String(),
			"listFieldsAndValues(%s) from %s", req.Target, req.Requester)
		ep := n.ep
		n.mu.Unlock()
		out := msg.MustNew(msg.TypeListFieldsReq, msg.NMName, string(req.Target.Device), rid, req)
		if ep != nil && ep.Send(out) == nil {
			n.mu.Lock()
			n.counters.RelayOut++
			n.mu.Unlock()
		}

	case msg.TypeListFieldsResp:
		// Either an answer to a relayed module query, or (never) ours.
		n.mu.Lock()
		origin, isRelay := n.relays[env.ID]
		if isRelay {
			delete(n.relays, env.ID)
			n.counters.RelayIn++
		}
		ep := n.ep
		n.mu.Unlock()
		if isRelay {
			var body msg.ListFieldsResp
			if env.Decode(&body) != nil {
				return
			}
			out := msg.MustNew(msg.TypeListFieldsResp, msg.NMName, origin.dev, origin.id, body)
			if ep != nil && ep.Send(out) == nil {
				n.mu.Lock()
				n.counters.RelayOut++
				n.mu.Unlock()
			}
			return
		}
		n.wake(env)

	case msg.TypeNotify:
		var note msg.Notify
		if env.Decode(&note) != nil {
			return
		}
		n.mu.Lock()
		n.counters.NotifyRecv++
		n.logfLocked("notify:"+note.Module.String(), "notify (%s: %s)", note.Module, note.Kind)
		n.bumpObsLocked(note.Module.Device)
		n.publishLocked(Event{
			Kind: EventNotify, Device: note.Module.Device,
			Module: note.Module, What: note.Kind, Detail: note.Detail,
		})
		n.mu.Unlock()

	case msg.TypeTrigger:
		var t msg.Trigger
		if env.Decode(&t) != nil {
			return
		}
		n.mu.Lock()
		n.counters.TriggerRecv++
		n.bumpObsLocked(t.Module.Device)
		n.publishLocked(Event{
			Kind: EventTrigger, Device: t.Module.Device,
			Module: t.Module, Component: t.Component,
		})
		n.mu.Unlock()

	case msg.TypeError:
		// Could be a failed relay or an answer to one of our requests.
		n.mu.Lock()
		origin, isRelay := n.relays[env.ID]
		if isRelay {
			delete(n.relays, env.ID)
		}
		ep := n.ep
		n.mu.Unlock()
		if isRelay {
			var e msg.Error
			_ = env.Decode(&e)
			out := msg.MustNew(msg.TypeError, msg.NMName, origin.dev, origin.id, e)
			if ep != nil {
				_ = ep.Send(out)
			}
			return
		}
		n.wake(env)

	case msg.TypeCommandBatchResp:
		n.mu.Lock()
		n.counters.AckRecv++
		n.mu.Unlock()
		n.wake(env)

	default:
		// Responses to the NM's own requests.
		n.wake(env)
	}
}

// bumpObsLocked advances a device's observation generation (caller
// holds n.mu), invalidating any cached observation of it.
func (n *NM) bumpObsLocked(dev core.DeviceID) {
	n.obsGens[dev]++
}

// InvalidateObservations discards the store's confidence in every
// cached device observation, forcing the next reconcile pass to
// re-observe whatever it touches. Plan and the daemon's poll path call
// this: a pass that trusted the cache would only ever see drift that
// also produced an event, which is exactly what an audit is meant not to
// rely on. The re-reads are conditional on the digest of the cached
// body, so a device whose state has not changed answers "unchanged" and
// sends no state; a device whose cache Apply wrote through is read in
// full.
func (n *NM) InvalidateObservations() {
	n.mu.Lock()
	for d := range n.devices {
		n.obsGens[d]++
	}
	n.mu.Unlock()
}

func (n *NM) wake(env msg.Envelope) {
	n.mu.Lock()
	ch, ok := n.waiters[env.ID]
	n.mu.Unlock()
	if ok {
		select {
		case ch <- env:
		default:
		}
	}
}

// call performs a request/response round trip to a device.
func (n *NM) call(t msg.Type, dev core.DeviceID, body any) (msg.Envelope, error) {
	n.mu.Lock()
	n.reqSeq++
	id := n.reqSeq
	ch := make(chan msg.Envelope, 1)
	n.waiters[id] = ch
	ep := n.ep
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		delete(n.waiters, id)
		n.mu.Unlock()
	}()
	if ep == nil {
		return msg.Envelope{}, fmt.Errorf("nm: no management channel attached")
	}
	env, err := msg.New(t, msg.NMName, string(dev), id, body)
	if err != nil {
		return msg.Envelope{}, err
	}
	if err := ep.Send(env); err != nil {
		return msg.Envelope{}, err
	}
	// A timer stopped on return, not time.After: under the go 1.21
	// timer semantics this module declares, an unfired time.After stays
	// in the runtime's timer heap until it fires, so every call would
	// keep a timer and its channel live for the whole CallTimeout.
	deadline := time.NewTimer(n.CallTimeout)
	defer deadline.Stop()
	var retry <-chan time.Time
	if n.RetryInterval > 0 {
		ticker := time.NewTicker(n.RetryInterval)
		defer ticker.Stop()
		retry = ticker.C
	}
	for {
		select {
		case resp := <-ch:
			if resp.Type == msg.TypeError {
				var e msg.Error
				_ = resp.Decode(&e)
				return msg.Envelope{}, fmt.Errorf("nm: %s on %s: %s", t, dev, e.Message)
			}
			return resp, nil
		case <-retry:
			// Best effort: a failed retransmit leaves the deadline in
			// charge, exactly as a lost datagram would.
			n.callRetries.Add(1)
			_ = ep.Send(env)
		case <-deadline.C:
			return msg.Envelope{}, fmt.Errorf("nm: %s on %s: timeout", t, dev)
		}
	}
}

// CallRetries reports how many request retransmissions call() has issued
// (nonzero only with RetryInterval set and an unreliable channel).
func (n *NM) CallRetries() uint64 { return n.callRetries.Load() }

// ---------------------------------------------------------------------------
// Primitives (Table I)

// ShowPotential fetches (and caches) a device's module abstractions.
func (n *NM) ShowPotential(dev core.DeviceID) ([]core.Abstraction, error) {
	resp, err := n.call(msg.TypeShowPotentialReq, dev, nil)
	if err != nil {
		return nil, err
	}
	var body msg.ShowPotentialResp
	if err := resp.Decode(&body); err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.deviceInfoLocked(dev).Modules = body.Modules
	n.compileGen++
	n.mu.Unlock()
	return body.Modules, nil
}

// ShowActual fetches a device's module states.
func (n *NM) ShowActual(dev core.DeviceID) ([]core.ModuleState, error) {
	body, err := n.showActualIf(dev, "")
	return body.Modules, err
}

// showActualIf is showActual conditional on the digest of the body the
// caller already holds: the device answers Unchanged, with no modules,
// while its state still renders to that body. An empty digest asks for
// the full body, as ShowActual does.
func (n *NM) showActualIf(dev core.DeviceID, digest string) (msg.ShowActualResp, error) {
	var req any
	if digest != "" {
		req = msg.ShowActualReq{IfDigest: digest}
	}
	resp, err := n.call(msg.TypeShowActualReq, dev, req)
	if err != nil {
		return msg.ShowActualResp{}, err
	}
	var body msg.ShowActualResp
	if err := resp.Decode(&body); err != nil {
		return msg.ShowActualResp{}, err
	}
	return body, nil
}

// ListFields resolves an abstract component of a module to its current
// low-level fields (listFieldsAndValues issued by the NM itself,
// §II-E). It is how the NM checks whether a handle another component
// embedded is still current.
func (n *NM) ListFields(target core.ModuleRef, component string) (map[string]string, error) {
	resp, err := n.call(msg.TypeListFieldsReq, target.Device, msg.ListFieldsReq{
		Target: target, Component: component,
	})
	if err != nil {
		return nil, err
	}
	var body msg.ListFieldsResp
	if err := resp.Decode(&body); err != nil {
		return nil, err
	}
	return body.Fields, nil
}

// ensureTrigger asks a module to report low-level value changes for a
// component (§II-E dependency maintenance), once per (module, component):
// repeated Applies of the same plan stay quiet.
func (n *NM) ensureTrigger(module core.ModuleRef, component string) error {
	key := module.String() + "|" + component
	n.mu.Lock()
	done := n.installedTriggers[key]
	n.mu.Unlock()
	if done {
		return nil
	}
	if _, err := n.call(msg.TypeInstallTriggerReq, module.Device, msg.InstallTriggerReq{
		Module: module, Component: component,
	}); err != nil {
		return err
	}
	n.mu.Lock()
	n.installedTriggers[key] = true
	n.mu.Unlock()
	return nil
}

// SelfTest asks a module to probe data-plane connectivity to its peer
// (§II-D.2).
func (n *NM) SelfTest(module core.ModuleRef, pipe core.PipeID) (bool, string, error) {
	resp, err := n.call(msg.TypeSelfTestReq, module.Device, msg.SelfTestReq{Module: module, Pipe: pipe})
	if err != nil {
		return false, "", err
	}
	var body msg.SelfTestResp
	if err := resp.Decode(&body); err != nil {
		return false, "", err
	}
	return body.OK, body.Detail, nil
}

// DiscoverAll invokes showPotential on every device that said hello.
// Devices are queried concurrently on a bounded worker pool unless
// n.Sequential is set; the result (the NM's device/module knowledge) is
// identical in both modes, only wall-clock time differs.
func (n *NM) DiscoverAll() error {
	devs := n.Devices()
	return n.forEach(len(devs), func(i int) error {
		_, err := n.ShowPotential(devs[i])
		return err
	})
}

// forEach runs fn(0..count-1) on a bounded worker pool (or in order when
// n.Sequential is set). All indexes run even if some fail; the returned
// error is the lowest-index one, so failures are reported
// deterministically regardless of goroutine scheduling.
func (n *NM) forEach(count int, fn func(i int) error) error {
	workers := DefaultWorkers
	if workers > count {
		workers = count
	}
	if n.Sequential || workers <= 1 {
		for i := 0; i < count; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, count)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < count; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

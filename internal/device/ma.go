package device

import (
	"cmp"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"slices"
	"sync"
	"time"

	"conman/internal/channel"
	"conman/internal/core"
	"conman/internal/kernel"
	"conman/internal/msg"
)

// trigger is one installed dependency-maintenance trigger (§II-E).
type trigger struct {
	ID        string
	Module    core.ModuleRef
	Component string
}

type pendingRule struct {
	module Module
	inst   *SwitchRuleInstance
}

// installedRule is one switch or filter rule a module installed: what
// showActual reports for it, rendered when it was recorded, and the undo
// its Install* call returned.
type installedRule struct {
	id     string
	seq    uint64 // record order, which showActual and teardown follow
	module core.ModuleID
	sw     *core.SwitchRuleState // exactly one of sw and filter is set
	filter *core.FilterRuleState
	undo   func()
}

// pipes lists the pipes the rule references: a switch rule's two ends.
// Filters are bound to their module, not to a pipe.
func (r *installedRule) pipes() []core.PipeID {
	if r.sw == nil {
		return nil
	}
	return []core.PipeID{r.sw.From, r.sw.To}
}

// maxFailedRules bounds the terminal rule-failure log: once reached the
// older half is dropped, as the kernel's probe log does.
const maxFailedRules = 256

// queryTimeout bounds blocking listFieldsAndValues calls.
const queryTimeout = 5 * time.Second

// MA is a device's management agent: it owns the module registry, the
// pipe table and the registry of installed rules, serves the NM's
// primitives, and relays module messages.
type MA struct {
	dev      core.DeviceID
	kern     *kernel.Kernel
	portInfo func() []msg.PortReport

	mu      sync.Mutex
	ep      channel.Endpoint
	modules map[core.ModuleID]Module
	order   []core.ModuleID
	// exporters holds the modules advertising HandleFields. Register
	// replaces the map rather than writing it, so a reader may keep using
	// the one it read under mu.
	exporters map[core.ModuleID]Module // guarded by mu
	pipes     map[core.PipeID]*Pipe
	pipeSeq   int
	ruleSeq   int
	// rules holds every installed rule by id, and pipeRules the same
	// records by the pipes they reference, so deleting a rule or a pipe
	// finds its rules without a scan.
	rules     map[string]*installedRule                 // guarded by mu
	pipeRules map[core.PipeID]map[string]*installedRule // guarded by mu
	recSeq    uint64                                    // guarded by mu
	pending   []pendingRule
	failed    []string
	reqSeq    uint64
	waiters   map[uint64]chan msg.Envelope
	triggers  []trigger
	trigSeq   int
	// exchanges holds the modules' declared exchanges in declaration
	// order, the order retries follow.
	exchanges []*Exchange // guarded by mu
	// kickSeq counts retryPending calls. A sweep holds the rules it is
	// attempting off the queue, so a kick landing meanwhile finds nothing
	// to retry; the sweep compares kickSeq across each pass and goes
	// round again when one did, instead of re-queueing a rule whose
	// parameters arrived after its attempt looked.
	kickSeq uint64

	// replies caches the reply sent for each completed request keyed
	// (requester, envelope ID), and inflight marks requests still
	// executing, so a retransmitted request (lossy channel, NM
	// RetryInterval) is answered idempotently — resent from cache, or
	// dropped while the first execution is still running — instead of
	// re-executed. replyOrder evicts FIFO at maxReplyCache.
	replies    map[string]msg.Envelope // guarded by mu
	inflight   map[string]bool         // guarded by mu
	replyOrder []string                // guarded by mu
	// down holds the ports whose link was seen cut at the last carrier
	// change, so the next one can tell which came back.
	down map[string]bool // guarded by mu
}

// maxReplyCache bounds the per-device reply cache; retransmits arrive
// within a few RTOs, so even a small window of recent replies suffices.
const maxReplyCache = 512

// NewMA creates a management agent.
func NewMA(dev core.DeviceID, kern *kernel.Kernel, portInfo func() []msg.PortReport) *MA {
	return &MA{
		dev:       dev,
		kern:      kern,
		portInfo:  portInfo,
		modules:   make(map[core.ModuleID]Module),
		pipes:     make(map[core.PipeID]*Pipe),
		down:      make(map[string]bool),
		rules:     make(map[string]*installedRule),
		pipeRules: make(map[core.PipeID]map[string]*installedRule),
		waiters:   make(map[uint64]chan msg.Envelope),
		replies:   make(map[string]msg.Envelope),
		inflight:  make(map[string]bool),
	}
}

// Device implements Services.
func (a *MA) Device() core.DeviceID { return a.dev }

// Kernel implements Services.
func (a *MA) Kernel() *kernel.Kernel { return a.kern }

// PortTo implements Services: the first port inside the managed domain
// whose reported neighbour is dev. The report is the wiring, not the
// carrier, so a cut link still names its port; a customer-facing port
// names none.
func (a *MA) PortTo(dev core.DeviceID) (string, bool) {
	for _, p := range a.portInfo() {
		if p.PeerDevice == dev && !p.External {
			return p.Name, true
		}
	}
	return "", false
}

// Register adds a module to the device.
func (a *MA) Register(m Module) {
	id := m.Ref().Module
	exports := len(m.Abstraction().HandleFields) > 0
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.modules[id]; !dup {
		a.order = append(a.order, id)
	}
	a.modules[id] = m
	if exports {
		ex := map[core.ModuleID]Module{id: m}
		maps.Copy(ex, a.exporters)
		a.exporters = ex
	}
}

// exportedHandle is the Handle showActual reports on an exporter's up
// pipe. Caller must not hold a.mu: the module may call back.
func exportedHandle(m Module, id core.PipeID) string {
	fields, err := m.ListFields("pipe:" + string(id))
	if err != nil {
		return ""
	}
	return core.CanonicalHandle(fields)
}

// RegisterPhysicalPipe records a physical pipe owned by an (ETH) module.
func (a *MA) RegisterPhysicalPipe(p *Pipe) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.pipes[p.ID] = p
}

// AttachChannel connects the MA to the management channel.
func (a *MA) AttachChannel(ep channel.Endpoint) {
	a.mu.Lock()
	a.ep = ep
	a.mu.Unlock()
	ep.SetHandler(a.handle)
}

// Start announces the device and its physical connectivity to the NM.
func (a *MA) Start() error {
	if err := a.send(msg.MustNew(msg.TypeHello, string(a.dev), msg.NMName, 0, msg.Hello{Device: a.dev})); err != nil {
		return err
	}
	return a.ReportTopology()
}

// ReportTopology (re-)sends the physical connectivity report.
func (a *MA) ReportTopology() error {
	return a.reportPorts(a.portInfo())
}

func (a *MA) reportPorts(ports []msg.PortReport) error {
	top := msg.Topology{Device: a.dev, Ports: ports}
	return a.send(msg.MustNew(msg.TypeTopology, string(a.dev), msg.NMName, 0, top))
}

// CarrierChanged is the device's link-state interrupt: a link touching
// one of its ports went up or down. It re-reports topology to the NM
// and tells every module about each port whose link came back, whose
// frames a link-local protocol may have lost while it was cut.
func (a *MA) CarrierChanged() error {
	ports := a.portInfo()
	var up []string
	a.mu.Lock()
	for _, p := range ports {
		switch {
		case !p.Attached:
			a.down[p.Name] = true
		case a.down[p.Name]:
			delete(a.down, p.Name)
			up = append(up, p.Name)
		}
	}
	a.mu.Unlock()
	err := a.reportPorts(ports)
	if len(up) > 0 {
		for _, m := range a.Modules() {
			for _, port := range up {
				m.PortUp(port)
			}
		}
	}
	return err
}

func (a *MA) send(env msg.Envelope) error {
	a.mu.Lock()
	ep := a.ep
	a.mu.Unlock()
	if ep == nil {
		return fmt.Errorf("device[%s]: no management channel attached", a.dev)
	}
	return ep.Send(env)
}

// Modules returns the registered modules in registration order.
func (a *MA) Modules() []Module {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Module, 0, len(a.order))
	for _, id := range a.order {
		out = append(out, a.modules[id])
	}
	return out
}

// LocalModule implements Services.
func (a *MA) LocalModule(id core.ModuleID) (Module, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, ok := a.modules[id]
	return m, ok
}

// PipeByID implements Services.
func (a *MA) PipeByID(id core.PipeID) (*Pipe, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	p, ok := a.pipes[id]
	return p, ok
}

// PendingRules reports how many switch rules are still waiting on
// unresolved parameters.
func (a *MA) PendingRules() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// FailedRules returns terminal rule failures.
func (a *MA) FailedRules() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.failed...)
}

// LocalFields implements Services: intra-device field resolution.
func (a *MA) LocalFields(target core.ModuleID, component string) (map[string]string, error) {
	m, ok := a.LocalModule(target)
	if !ok {
		return nil, fmt.Errorf("device[%s]: no module %q", a.dev, target)
	}
	return m.ListFields(component)
}

// Convey implements Services: module-to-module message via the NM.
func (a *MA) Convey(from, to core.ModuleRef, kind string, body any) error {
	inner, err := json.Marshal(body)
	if err != nil {
		return err
	}
	env, err := msg.New(msg.TypeConvey, string(a.dev), msg.NMName, 0, msg.Convey{
		FromModule: from, ToModule: to, Kind: kind, Body: inner,
	})
	if err != nil {
		return err
	}
	return a.send(env)
}

// Notify implements Services.
func (a *MA) Notify(module core.ModuleRef, kind, detail string) error {
	return a.send(msg.MustNew(msg.TypeNotify, string(a.dev), msg.NMName, 0,
		msg.Notify{Module: module, Kind: kind, Detail: detail}))
}

// QueryFields implements Services: remote listFieldsAndValues via the NM.
func (a *MA) QueryFields(requester, target core.ModuleRef, component string) (map[string]string, error) {
	a.mu.Lock()
	a.reqSeq++
	id := a.reqSeq
	ch := make(chan msg.Envelope, 1)
	a.waiters[id] = ch
	a.mu.Unlock()
	defer func() {
		a.mu.Lock()
		delete(a.waiters, id)
		a.mu.Unlock()
	}()

	env := msg.MustNew(msg.TypeListFieldsReq, string(a.dev), msg.NMName, id, msg.ListFieldsReq{
		Requester: requester, Target: target, Component: component,
	})
	if err := a.send(env); err != nil {
		return nil, err
	}
	// Stopped on return, as NM.call's deadline is.
	deadline := time.NewTimer(queryTimeout)
	defer deadline.Stop()
	select {
	case resp := <-ch:
		if resp.Type == msg.TypeError {
			var e msg.Error
			_ = resp.Decode(&e)
			return nil, fmt.Errorf("device[%s]: listFieldsAndValues(%s): %s", a.dev, target, e.Message)
		}
		var body msg.ListFieldsResp
		if err := resp.Decode(&body); err != nil {
			return nil, err
		}
		return body.Fields, nil
	case <-deadline.C:
		return nil, fmt.Errorf("device[%s]: listFieldsAndValues(%s): timeout", a.dev, target)
	}
}

// FieldsChanged implements Services: fire matching triggers.
func (a *MA) FieldsChanged(module core.ModuleRef, component string, fields map[string]string) {
	a.mu.Lock()
	var fire []trigger
	for _, t := range a.triggers {
		if t.Module.Module == module.Module && (t.Component == component || t.Component == "*") {
			fire = append(fire, t)
		}
	}
	a.mu.Unlock()
	for range fire {
		_ = a.send(msg.MustNew(msg.TypeTrigger, string(a.dev), msg.NMName, 0,
			msg.Trigger{Module: module, Component: component, Fields: fields}))
	}
	a.Kick()
}

// Declare implements Services: it binds x to module, and the MA routes
// the peers' messages of x's kind to it from then on.
func (a *MA) Declare(module core.ModuleRef, x *Exchange) {
	x.ma, x.module = a, module
	a.mu.Lock()
	defer a.mu.Unlock()
	a.exchanges = append(a.exchanges, x)
}

// exchange finds the exchange a module declared for a kind.
func (a *MA) exchange(module core.ModuleID, kind string) *Exchange {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, x := range a.exchanges {
		if x.module.Module == module && x.kind == kind {
			return x
		}
	}
	return nil
}

// Kick implements Services: retry waiting exchanges and pending rules.
func (a *MA) Kick() { a.retryPending() }

func (a *MA) retryPending() {
	a.mu.Lock()
	a.kickSeq++
	exchanges := a.exchanges
	a.mu.Unlock()
	for {
		for _, x := range exchanges {
			x.retry()
		}
		a.mu.Lock()
		seq := a.kickSeq
		pend := a.pending
		a.pending = nil
		a.mu.Unlock()
		if len(pend) == 0 {
			return
		}
		progressed := false
		var still []pendingRule
		for _, pr := range pend {
			undo, err := pr.module.InstallSwitchRule(pr.inst)
			switch {
			case err == nil:
				progressed = true
				a.record(pr.module.Ref().Module, pr.inst, nil, undo)
			case err == ErrPending:
				still = append(still, pr)
			default:
				progressed = true
				a.mu.Lock()
				if len(a.failed) >= maxFailedRules {
					a.failed = append(a.failed[:0], a.failed[maxFailedRules/2:]...)
				}
				a.failed = append(a.failed, fmt.Sprintf("%s: %v", pr.inst.ID, err))
				a.mu.Unlock()
			}
		}
		a.mu.Lock()
		// A rule whose pipe was deleted while this sweep held it dies
		// with the pipe, as a queued one does in deletePipe.
		live := still[:0]
		for _, pr := range still {
			if a.pipesLiveLocked(pr.inst.Rule) {
				live = append(live, pr)
			}
		}
		a.pending = append(live, a.pending...)
		kicked := a.kickSeq != seq
		a.mu.Unlock()
		if !progressed && !kicked {
			return
		}
	}
}

// pipesLiveLocked reports whether both pipes a switch rule references
// are still in the pipe table. Caller holds a.mu.
func (a *MA) pipesLiveLocked(r core.SwitchRule) bool {
	return a.pipes[r.From] != nil && a.pipes[r.To] != nil
}

// record files a rule its module has just installed — the one place a
// rule enters the registry. A switch rule whose pipe was deleted while it
// installed dies with the pipe instead: record runs its undo.
func (a *MA) record(module core.ModuleID, sw *SwitchRuleInstance, f *FilterRuleInstance, undo func()) {
	r := &installedRule{module: module, undo: undo}
	if sw != nil {
		r.id = sw.ID
		r.sw = &core.SwitchRuleState{
			ID: sw.ID, From: sw.Rule.From, To: sw.Rule.To, Match: sw.Rule.Match, Via: sw.Rule.Via,
			MatchResolved: sw.MatchResolved, ViaResolved: sw.ViaResolved, HandleResolved: sw.HandleResolved,
		}
	} else {
		r.id = f.ID
		r.filter = &core.FilterRuleState{ID: f.ID, Rule: f.Rule, ResolvedFields: f.ResolvedFields}
	}
	a.mu.Lock()
	live := sw == nil || a.pipesLiveLocked(sw.Rule)
	if live {
		a.recSeq++
		r.seq = a.recSeq
		a.rules[r.id] = r
		for _, id := range r.pipes() {
			if a.pipeRules[id] == nil {
				a.pipeRules[id] = make(map[string]*installedRule)
			}
			a.pipeRules[id][r.id] = r
		}
	}
	a.mu.Unlock()
	if !live && undo != nil {
		undo()
	}
}

// unrecordLocked takes a rule out of the registry. Caller holds a.mu and
// runs the rule's undo after releasing it.
func (a *MA) unrecordLocked(r *installedRule) {
	delete(a.rules, r.id)
	for _, id := range r.pipes() {
		delete(a.pipeRules[id], r.id)
		if len(a.pipeRules[id]) == 0 {
			delete(a.pipeRules, id)
		}
	}
}

// actual renders showActual: each module's own LowLevel and Perf, plus
// the pipes and rules the MA keeps for it — pipes sorted by id, with
// kernel counters on physical ones and an exporter's handle on its up
// pipes, and rules in install order.
func (a *MA) actual() []core.ModuleState {
	mods := a.Modules()
	states := make([]core.ModuleState, len(mods))
	byModule := make(map[core.ModuleID]*core.ModuleState, len(mods))
	for i, m := range mods {
		own := m.Actual()
		states[i] = core.ModuleState{Ref: m.Ref(), LowLevel: own.LowLevel, Perf: own.Perf}
		byModule[states[i].Ref.Module] = &states[i]
	}
	a.mu.Lock()
	exporters := a.exporters
	pipes := make([]*Pipe, 0, len(a.pipes))
	for _, p := range a.pipes {
		pipes = append(pipes, p)
	}
	rules := make([]*installedRule, 0, len(a.rules))
	for _, r := range a.rules {
		rules = append(rules, r)
	}
	a.mu.Unlock()
	slices.SortFunc(pipes, func(x, y *Pipe) int { return cmp.Compare(x.ID, y.ID) })
	slices.SortFunc(rules, func(x, y *installedRule) int { return cmp.Compare(x.seq, y.seq) })

	for _, p := range pipes {
		if p.Physical {
			if st := byModule[p.Lower.Module]; st != nil {
				rx, tx := a.kern.IfaceCounters(p.Iface)
				st.Pipes = append(st.Pipes, core.PipeState{ID: p.ID, End: core.EndPhy, Status: p.Status, RxPkts: rx, TxPkts: tx})
			}
			continue
		}
		if st := byModule[p.Upper.Module]; st != nil {
			st.Pipes = append(st.Pipes, core.PipeState{ID: p.ID, End: core.EndDown, Other: p.Lower, Peer: p.UpperPeer, Status: p.Status})
		}
		if st := byModule[p.Lower.Module]; st != nil {
			ps := core.PipeState{ID: p.ID, End: core.EndUp, Other: p.Upper, Peer: p.LowerPeer, Status: p.Status}
			if m := exporters[p.Lower.Module]; m != nil {
				ps.Handle = exportedHandle(m, p.ID)
			}
			st.Pipes = append(st.Pipes, ps)
		}
	}
	for _, r := range rules {
		st := byModule[r.module]
		switch {
		case st == nil:
		case r.sw != nil:
			st.SwitchRules = append(st.SwitchRules, *r.sw)
		default:
			st.Filters = append(st.Filters, *r.filter)
		}
	}
	return states
}

// ---------------------------------------------------------------------------
// Channel handler

// cacheableRequest reports whether env is a mutating request the dedup
// cache should cover. Read-only requests (showPotential, showActual,
// listFields, selfTest) are deliberately excluded: re-executing a read on
// retransmit is harmless and returns fresher state, and caching them
// would serve stale observations to a restarted NM whose envelope IDs
// restart from 1. ID 0 marks fire-and-forget traffic (hello, topology,
// notify, convey) whose delivery the transport already dedups at the
// frame layer.
func cacheableRequest(env msg.Envelope) bool {
	if env.ID == 0 {
		return false
	}
	switch env.Type {
	case msg.TypeCommandBatchReq, msg.TypeInstallTriggerReq:
		return true
	}
	return false
}

// replyKey identifies a request for dedup. The body hash keeps a
// restarted requester's ID collisions from matching an old entry: only a
// byte-identical retransmission of the same request hits the cache.
func replyKey(req msg.Envelope) string {
	h := fnv.New64a()
	h.Write([]byte(req.Type))
	h.Write([]byte{0})
	h.Write(req.Body)
	return fmt.Sprintf("%s#%d#%x", req.From, req.ID, h.Sum64())
}

// beginRequest consults the dedup cache: a completed duplicate yields the
// cached reply to resend, an in-flight duplicate is dropped, and a fresh
// request is marked in flight.
func (a *MA) beginRequest(env msg.Envelope) (cached msg.Envelope, resend, drop bool) {
	key := replyKey(env)
	a.mu.Lock()
	defer a.mu.Unlock()
	if r, ok := a.replies[key]; ok {
		return r, true, false
	}
	if a.inflight[key] {
		return msg.Envelope{}, false, true
	}
	a.inflight[key] = true
	return msg.Envelope{}, false, false
}

// finishRequest records the reply for req and evicts the oldest cache
// entry beyond maxReplyCache.
func (a *MA) finishRequest(req, reply msg.Envelope) {
	if !cacheableRequest(req) {
		return
	}
	key := replyKey(req)
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.inflight, key)
	if _, dup := a.replies[key]; dup {
		return
	}
	a.replies[key] = reply
	a.replyOrder = append(a.replyOrder, key)
	if len(a.replyOrder) > maxReplyCache {
		delete(a.replies, a.replyOrder[0])
		a.replyOrder = a.replyOrder[1:]
	}
}

func (a *MA) handle(env msg.Envelope) {
	if cacheableRequest(env) {
		if cached, resend, drop := a.beginRequest(env); resend {
			_ = a.send(cached)
			return
		} else if drop {
			return
		}
	}
	switch env.Type {
	case msg.TypeShowPotentialReq:
		mods := a.Modules()
		abs := make([]core.Abstraction, 0, len(mods))
		for _, m := range mods {
			abs = append(abs, m.Abstraction())
		}
		a.reply(env, msg.TypeShowPotentialResp, msg.ShowPotentialResp{Modules: abs})

	case msg.TypeShowActualReq:
		var req msg.ShowActualReq
		if len(env.Body) > 0 {
			if err := env.Decode(&req); err != nil {
				a.replyErr(env, "bad showActual: %v", err)
				return
			}
		}
		// The digest is of the rendered body, not a version to bump, so
		// state that changes with no request (IGP routes, port
		// counters) is covered too.
		body, err := msg.EncodeShowActual(a.actual(), req.IfDigest)
		if err != nil {
			a.replyErr(env, "showActual: %v", err)
			return
		}
		_ = a.send(msg.Envelope{
			Type: msg.TypeShowActualResp, From: string(a.dev), To: env.From, ID: env.ID, Body: body,
		})

	case msg.TypeCommandBatchReq:
		var batch msg.CommandBatchReq
		if err := env.Decode(&batch); err != nil {
			a.replyErr(env, "bad batch: %v", err)
			return
		}
		resp := msg.CommandBatchResp{
			Errors:  make([]string, len(batch.Items)),
			Results: make([]msg.CommandItemResult, len(batch.Items)),
		}
		for i, item := range batch.Items {
			res, err := a.execItem(item)
			if err != nil {
				resp.Errors[i] = err.Error()
			}
			resp.Results[i] = res
			a.retryPending()
		}
		a.requestDone()
		a.reply(env, msg.TypeCommandBatchResp, resp)

	case msg.TypeConvey:
		var body msg.Convey
		if err := env.Decode(&body); err != nil {
			return
		}
		m, ok := a.LocalModule(body.ToModule.Module)
		if !ok {
			return
		}
		if x := a.exchange(body.ToModule.Module, body.Kind); x != nil {
			x.receive(body.FromModule, body.Body)
		} else {
			_ = m.HandleConvey(body.FromModule, body.Kind, body.Body)
		}
		a.retryPending()

	case msg.TypeListFieldsReq:
		var body msg.ListFieldsReq
		if err := env.Decode(&body); err != nil {
			a.replyErr(env, "bad listFields: %v", err)
			return
		}
		m, ok := a.LocalModule(body.Target.Module)
		if !ok {
			a.replyErr(env, "no module %q", body.Target.Module)
			return
		}
		fields, err := m.ListFields(body.Component)
		if err != nil {
			a.replyErr(env, "%v", err)
			return
		}
		a.reply(env, msg.TypeListFieldsResp, msg.ListFieldsResp{
			Target: body.Target, Component: body.Component, Fields: fields,
		})

	case msg.TypeListFieldsResp, msg.TypeError:
		a.mu.Lock()
		ch, ok := a.waiters[env.ID]
		a.mu.Unlock()
		if ok {
			select {
			case ch <- env:
			default:
			}
		}

	case msg.TypeInstallTriggerReq:
		var body msg.InstallTriggerReq
		if err := env.Decode(&body); err != nil {
			a.replyErr(env, "bad installTrigger: %v", err)
			return
		}
		a.mu.Lock()
		// Installing the same watch twice is idempotent: the NM
		// re-requests triggers on every Apply, and duplicates would
		// multiply every fired event.
		var id string
		for _, t := range a.triggers {
			if t.Module == body.Module && t.Component == body.Component {
				id = t.ID
				break
			}
		}
		if id == "" {
			a.trigSeq++
			id = fmt.Sprintf("%s-t%d", a.dev, a.trigSeq)
			a.triggers = append(a.triggers, trigger{ID: id, Module: body.Module, Component: body.Component})
		}
		a.mu.Unlock()
		a.reply(env, msg.TypeInstallTriggerResp, msg.InstallTriggerResp{TriggerID: id})

	case msg.TypeSelfTestReq:
		var body msg.SelfTestReq
		if err := env.Decode(&body); err != nil {
			a.replyErr(env, "bad selfTest: %v", err)
			return
		}
		m, ok := a.LocalModule(body.Module.Module)
		if !ok {
			a.replyErr(env, "no module %q", body.Module.Module)
			return
		}
		ok2, detail := m.SelfTest(body.Pipe)
		a.reply(env, msg.TypeSelfTestResp, msg.SelfTestResp{OK: ok2, Detail: detail})

	default:
		// An unknown request fails fast instead of leaving its caller to
		// time out; unknown fire-and-forget traffic (ID 0) is dropped.
		if env.ID != 0 {
			a.replyErr(env, "unknown request type %q", env.Type)
		}
	}
}

// Delete removes one component outside any command batch, as an
// out-of-band fault would (a crashed process, an operator's manual
// change). The modules see it exactly as a batch's delete item,
// RequestDone included. The NM did not order it, so a deleted pipe is
// reported with an unsolicited pipe-deleted notify (a killed pipe heals
// autonomously, §II-E); a deleted rule it learns of only from its own
// next observation.
func (a *MA) Delete(req core.DeleteRequest) error {
	p, err := a.deleteComponent(req)
	if p != nil {
		_ = a.Notify(p.Lower, "pipe-deleted", string(p.ID))
	}
	a.requestDone()
	return err
}

// requestDone runs every module's end-of-request hook, before the reply
// goes out, so what a module does once per request is part of it.
func (a *MA) requestDone() {
	for _, m := range a.Modules() {
		m.RequestDone()
	}
}

func (a *MA) reply(req msg.Envelope, t msg.Type, body any) {
	env, err := msg.New(t, string(a.dev), req.From, req.ID, body)
	if err != nil {
		// Unmarshalable reply body: clear the in-flight mark so a
		// retransmit gets to retry rather than being dropped forever.
		a.mu.Lock()
		delete(a.inflight, replyKey(req))
		a.mu.Unlock()
		return
	}
	a.finishRequest(req, env)
	_ = a.send(env)
}

func (a *MA) replyErr(req msg.Envelope, format string, args ...any) {
	env := msg.Errorf(req, string(a.dev), format, args...)
	a.finishRequest(req, env)
	_ = a.send(env)
}

// ---------------------------------------------------------------------------
// Primitive execution

func (a *MA) execItem(item msg.CommandItem) (msg.CommandItemResult, error) {
	switch {
	case item.Pipe != nil:
		return a.createPipe(item.Pipe.ID, item.Pipe.Req)
	case item.Switch != nil:
		return a.createSwitch(*item.Switch)
	case item.Filter != nil:
		id, err := a.createFilter(*item.Filter)
		return msg.CommandItemResult{RuleID: id}, err
	case item.Delete != nil:
		_, err := a.deleteComponent(item.Delete.Req)
		return msg.CommandItemResult{}, err
	}
	return msg.CommandItemResult{}, fmt.Errorf("device[%s]: empty command item", a.dev)
}

// createPipe creates a pipe and reports its id and exported handle.
func (a *MA) createPipe(id core.PipeID, req core.PipeRequest) (msg.CommandItemResult, error) {
	upper, ok := a.LocalModule(req.Upper.Module)
	if !ok {
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: no module %s", a.dev, req.Upper)
	}
	lower, ok := a.LocalModule(req.Lower.Module)
	if !ok {
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: no module %s", a.dev, req.Lower)
	}
	upAbs, downAbs := upper.Abstraction(), lower.Abstraction()
	if !upAbs.Down.CanConnect(downAbs.Ref.Name) {
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: %s cannot have a down pipe to %s", a.dev, req.Upper, req.Lower)
	}
	if !downAbs.Up.CanConnect(upAbs.Ref.Name) {
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: %s cannot have an up pipe to %s", a.dev, req.Lower, req.Upper)
	}
	// Every declared dependency for this pipe must be satisfied.
	deps := append(append([]core.Dependency(nil), upAbs.Down.Dependencies...), downAbs.Up.Dependencies...)
	for _, d := range deps {
		if !dependencySatisfied(d, req.Satisfy) {
			return msg.CommandItemResult{}, fmt.Errorf("device[%s]: dependency %q of pipe %s/%s not satisfied",
				a.dev, d.Description, req.Upper, req.Lower)
		}
	}

	a.mu.Lock()
	if id == "" {
		id = core.PipeID(fmt.Sprintf("P%d", a.pipeSeq))
		a.pipeSeq++
	}
	if _, dup := a.pipes[id]; dup {
		a.mu.Unlock()
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: pipe %s already exists", a.dev, id)
	}
	p := &Pipe{
		ID: id, Upper: req.Upper, Lower: req.Lower,
		UpperPeer: req.UpperPeer, LowerPeer: req.LowerPeer,
		Satisfy: req.Satisfy, Status: core.PipeUp,
	}
	a.pipes[id] = p
	a.mu.Unlock()

	// Attach the lower module first: the upper module's attachment logic
	// may immediately query the lower end (e.g. MPLS asking the ETH below
	// for its interface to include a link address in its label exchange).
	if err := lower.PipeAttached(p, SideLower); err != nil {
		a.mu.Lock()
		delete(a.pipes, id)
		a.mu.Unlock()
		return msg.CommandItemResult{}, err
	}
	if err := upper.PipeAttached(p, SideUpper); err != nil {
		_ = lower.PipeDeleted(p, SideLower)
		a.mu.Lock()
		delete(a.pipes, id)
		a.mu.Unlock()
		return msg.CommandItemResult{}, err
	}
	res := msg.CommandItemResult{PipeID: id}
	if len(downAbs.HandleFields) > 0 {
		res.Handle = exportedHandle(lower, id)
	}
	return res, nil
}

func dependencySatisfied(d core.Dependency, choices []core.DependencyChoice) bool {
	for _, c := range choices {
		if d.Token != "" && c.Token == d.Token {
			return true
		}
		if d.Kind == core.DepTradeoff && c.Tradeoff != "" {
			return true
		}
		if d.Kind == core.DepExternalState && (c.Value != "" || c.Provider != "") {
			return true
		}
	}
	return false
}

// createSwitch installs a switch rule and reports its id, whether it is
// pending, and the handle it embeds.
func (a *MA) createSwitch(body msg.CreateSwitchReq) (msg.CommandItemResult, error) {
	m, ok := a.LocalModule(body.Rule.Module.Module)
	if !ok {
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: no module %s", a.dev, body.Rule.Module)
	}
	if _, ok := a.PipeByID(body.Rule.From); !ok {
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: switch rule references unknown pipe %s", a.dev, body.Rule.From)
	}
	if _, ok := a.PipeByID(body.Rule.To); !ok {
		return msg.CommandItemResult{}, fmt.Errorf("device[%s]: switch rule references unknown pipe %s", a.dev, body.Rule.To)
	}
	a.mu.Lock()
	a.ruleSeq++
	inst := &SwitchRuleInstance{
		ID:            fmt.Sprintf("%s-sw%d", a.dev, a.ruleSeq),
		Rule:          body.Rule,
		MatchResolved: body.MatchResolved,
		ViaResolved:   body.ViaResolved,
	}
	a.mu.Unlock()

	undo, err := m.InstallSwitchRule(inst)
	if err == ErrPending {
		a.mu.Lock()
		a.pending = append(a.pending, pendingRule{module: m, inst: inst})
		a.mu.Unlock()
		return msg.CommandItemResult{RuleID: inst.ID, Pending: true}, nil
	}
	if err != nil {
		return msg.CommandItemResult{}, err
	}
	a.record(body.Rule.Module.Module, inst, nil, undo)
	return msg.CommandItemResult{RuleID: inst.ID, Handle: inst.HandleResolved}, nil
}

func (a *MA) createFilter(body msg.CreateFilterReq) (string, error) {
	m, ok := a.LocalModule(body.Rule.Module.Module)
	if !ok {
		return "", fmt.Errorf("device[%s]: no module %s", a.dev, body.Rule.Module)
	}
	a.mu.Lock()
	a.ruleSeq++
	inst := &FilterRuleInstance{
		ID:   fmt.Sprintf("%s-f%d", a.dev, a.ruleSeq),
		Rule: body.Rule,
	}
	a.mu.Unlock()
	undo, err := m.InstallFilterRule(inst)
	if err != nil {
		return "", err
	}
	a.record(body.Rule.Module.Module, nil, inst, undo)
	return inst.ID, nil
}

// deleteComponent deletes one pipe or rule and returns the pipe it
// deleted, if any. A batch's delete is reported only in the batch's
// reply, so nothing here notifies the NM.
func (a *MA) deleteComponent(req core.DeleteRequest) (*Pipe, error) {
	if _, ok := a.LocalModule(req.Module.Module); !ok {
		return nil, fmt.Errorf("device[%s]: no module %s", a.dev, req.Module)
	}
	switch req.Kind {
	case core.ComponentPipe:
		return a.deletePipe(core.PipeID(req.ID))
	case core.ComponentSwitchRule, core.ComponentFilterRule:
		return nil, a.deleteRule(req.Module.Module, req.ID)
	}
	return nil, fmt.Errorf("device[%s]: delete of %s unsupported", a.dev, req.Kind)
}

// deletePipe removes a pipe with every rule on it: the rules still
// waiting to install are dropped, and the installed ones' undos run —
// the upper module's first, then the lower's, each in install order —
// before both modules hear PipeDeleted. It returns the deleted pipe.
func (a *MA) deletePipe(id core.PipeID) (*Pipe, error) {
	a.mu.Lock()
	p, ok := a.pipes[id]
	var doomed []*installedRule
	if ok && !p.Physical {
		delete(a.pipes, id)
		for _, r := range a.pipeRules[id] {
			doomed = append(doomed, r)
		}
		for _, r := range doomed {
			a.unrecordLocked(r)
		}
		live := a.pending[:0]
		for _, pr := range a.pending {
			if a.pipesLiveLocked(pr.inst.Rule) {
				live = append(live, pr)
			}
		}
		a.pending = live
	}
	a.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("device[%s]: no pipe %s", a.dev, id)
	}
	if p.Physical {
		return nil, fmt.Errorf("device[%s]: physical pipe %s cannot be deleted, only disabled", a.dev, id)
	}
	rank := func(r *installedRule) int {
		switch r.module {
		case p.Upper.Module:
			return 0
		case p.Lower.Module:
			return 1
		}
		return 2
	}
	slices.SortFunc(doomed, func(x, y *installedRule) int {
		if c := cmp.Compare(rank(x), rank(y)); c != 0 {
			return c
		}
		return cmp.Compare(x.seq, y.seq)
	})
	for _, r := range doomed {
		if r.undo != nil {
			r.undo()
		}
	}
	if upper, ok := a.LocalModule(p.Upper.Module); ok {
		_ = upper.PipeDeleted(p, SideUpper)
	}
	if lower, ok := a.LocalModule(p.Lower.Module); ok {
		_ = lower.PipeDeleted(p, SideLower)
	}
	return p, nil
}

// deleteRule takes one installed rule of the given module out and runs
// its undo. A rule id the MA does not know, or one another module
// installed, is refused.
func (a *MA) deleteRule(module core.ModuleID, id string) error {
	a.mu.Lock()
	r, ok := a.rules[id]
	owned := ok && r.module == module
	if owned {
		a.unrecordLocked(r)
	}
	a.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("device[%s]: no rule %q", a.dev, id)
	case !owned:
		return fmt.Errorf("device[%s]: rule %q belongs to module %s, not %s", a.dev, id, r.module, module)
	}
	if r.undo != nil {
		r.undo()
	}
	return nil
}

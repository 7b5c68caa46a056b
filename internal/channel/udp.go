package channel

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"conman/internal/msg"
)

// ErrBacklog is returned by Send when the destination's queue already
// holds queueDepth envelopes: the caller is producing faster than the
// wire (or the peer) can drain. Send never waits for room.
var ErrBacklog = errors.New("channel: send backlog full")

// Config configures the batched, windowed UDP transport.
type Config struct {
	// FlushAge holds a partial batch at most this long waiting for more
	// envelopes. Zero (the default) never delays: a partial batch goes
	// out as soon as the sender goroutine is free, so batching comes
	// only from natural queue accumulation (group commit).
	FlushAge time.Duration
}

// Transport parameters that are not tunable.
const (
	maxBatchMsgs = 32                    // envelopes per datagram
	queueDepth   = 1024                  // envelopes queued per peer before ErrBacklog
	window       = 32                    // sequenced frames in flight per peer
	rto          = 25 * time.Millisecond // base retransmit timeout, backed off by outFrame.due

	// maxBatchBytes budgets the datagram payload. A single envelope
	// above it is rejected by Send.
	maxBatchBytes = 60000
	// handlerWorkers bounds the request-handler pool. Responses bypass
	// the pool on their own goroutines so a response can never queue
	// behind the request blocked waiting for it.
	handlerWorkers = 8
	// maxRetries caps retransmissions per frame before it is abandoned
	// and the peer presumed dead.
	maxRetries = 40
)

// TransportStats are the UDP transport's shared counters, aggregated
// across every endpoint of a network. All fields are atomics.
type TransportStats struct {
	DatagramsSent      atomic.Uint64 // every datagram handed to the wire (data, retransmit, ack)
	DatagramsRecv      atomic.Uint64
	DataFrames         atomic.Uint64 // first transmissions of sequenced frames (excludes retransmits and acks)
	BatchedDatagrams   atomic.Uint64 // data frames carrying ≥2 envelopes
	Retransmits        atomic.Uint64
	AckOnly            atomic.Uint64 // standalone cumulative-ack frames
	DupFrames          atomic.Uint64 // sequenced frames already delivered (dropped, re-acked)
	AbandonedFrames    atomic.Uint64 // frames dropped after maxRetries
	EnvelopesSent      atomic.Uint64
	EnvelopesDelivered atomic.Uint64
	BacklogDrops       atomic.Uint64 // Sends refused with ErrBacklog
	QueueHighWater     atomic.Uint64 // max send/handler queue depth observed
}

func (s *TransportStats) highWater(n uint64) {
	for {
		cur := s.QueueHighWater.Load()
		if n <= cur || s.QueueHighWater.CompareAndSwap(cur, n) {
			return
		}
	}
}

// TransportSnapshot is a point-in-time copy of TransportStats.
type TransportSnapshot struct {
	DatagramsSent      uint64 `json:"datagrams_sent"`
	DatagramsRecv      uint64 `json:"datagrams_recv"`
	DataFrames         uint64 `json:"data_frames"`
	BatchedDatagrams   uint64 `json:"batched_datagrams"`
	Retransmits        uint64 `json:"retransmits"`
	AckOnly            uint64 `json:"ack_only"`
	DupFrames          uint64 `json:"dup_frames"`
	AbandonedFrames    uint64 `json:"abandoned_frames"`
	EnvelopesSent      uint64 `json:"envelopes_sent"`
	EnvelopesDelivered uint64 `json:"envelopes_delivered"`
	BacklogDrops       uint64 `json:"backlog_drops"`
	QueueHighWater     uint64 `json:"queue_high_water"`
}

// UDPNetwork is the pre-configured management network of the paper's
// testbed (§III-A): every MA and the NM bind a real UDP socket on
// loopback, and a shared registry (standing in for the separate
// management-NIC addressing plan) maps channel names to socket
// addresses. Unlike the original goroutine-per-envelope transport, each
// endpoint batches envelopes per destination into framed datagrams
// (msg.Batch), keeps a sliding window of sequenced frames with
// cumulative acks and RTO retransmission, dedups on receive, and
// dispatches requests through a bounded handler pool — so the channel
// survives loss/reorder/duplication and stays cheap under bursts.
type UDPNetwork struct {
	flushAge time.Duration
	stats    TransportStats
	inject   *faultInjector // set once at construction, nil for a clean network

	mu    sync.Mutex
	addrs map[string]*net.UDPAddr // guarded by mu
}

// NewUDPNetworkConfig creates an empty registry.
func NewUDPNetworkConfig(cfg Config) *UDPNetwork {
	return &UDPNetwork{flushAge: cfg.FlushAge, addrs: make(map[string]*net.UDPAddr)}
}

// Stats snapshots the network-wide transport counters.
func (n *UDPNetwork) Stats() TransportSnapshot {
	s := &n.stats
	return TransportSnapshot{
		DatagramsSent:      s.DatagramsSent.Load(),
		DatagramsRecv:      s.DatagramsRecv.Load(),
		DataFrames:         s.DataFrames.Load(),
		BatchedDatagrams:   s.BatchedDatagrams.Load(),
		Retransmits:        s.Retransmits.Load(),
		AckOnly:            s.AckOnly.Load(),
		DupFrames:          s.DupFrames.Load(),
		AbandonedFrames:    s.AbandonedFrames.Load(),
		EnvelopesSent:      s.EnvelopesSent.Load(),
		EnvelopesDelivered: s.EnvelopesDelivered.Load(),
		BacklogDrops:       s.BacklogDrops.Load(),
		QueueHighWater:     s.QueueHighWater.Load(),
	}
}

// udpEndpoint is one bound socket.
type udpEndpoint struct {
	net  *UDPNetwork
	name string
	conn *net.UDPConn

	mu      sync.Mutex
	handler Handler                // guarded by mu
	peers   map[string]*udpPeer    // guarded by mu
	recv    map[string]*recvWindow // guarded by mu
	closed  bool                   // guarded by mu

	done      chan struct{}  // closed by Close: stops peer sender loops
	readWG    sync.WaitGroup // read loop
	peerWG    sync.WaitGroup // peer sender loops
	poolWG    sync.WaitGroup // handler pool workers
	handlerWG sync.WaitGroup // in-flight response handler goroutines
	hq        handlerQueue
}

// Endpoint binds a loopback UDP socket for name and registers it.
func (n *UDPNetwork) Endpoint(name string) (Endpoint, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("channel: bind udp: %w", err)
	}
	n.mu.Lock()
	n.addrs[name] = conn.LocalAddr().(*net.UDPAddr)
	n.mu.Unlock()

	e := &udpEndpoint{
		net:   n,
		name:  name,
		conn:  conn,
		peers: make(map[string]*udpPeer),
		recv:  make(map[string]*recvWindow),
		done:  make(chan struct{}),
	}
	e.hq.cond = sync.NewCond(&e.hq.mu)
	e.hq.stats = &n.stats
	for i := 0; i < handlerWorkers; i++ {
		e.poolWG.Add(1)
		go e.poolWorker()
	}
	e.readWG.Add(1)
	go e.readLoop()
	return e, nil
}

func (e *udpEndpoint) Name() string { return e.name }

func (e *udpEndpoint) SetHandler(h Handler) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.handler = h
}

// Send queues the envelope for env.To. Unknown destinations fail
// immediately; a full peer queue returns ErrBacklog; otherwise
// delivery is asynchronous and reliable (frame-level retransmission
// until acked or maxRetries).
func (e *udpEndpoint) Send(env msg.Envelope) error {
	e.net.mu.Lock()
	_, ok := e.net.addrs[env.To]
	e.net.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDestination, env.To)
	}
	data, err := env.Marshal()
	if err != nil {
		return err
	}
	if len(data) > maxBatchBytes {
		return fmt.Errorf("channel: envelope too large for UDP (%d bytes)", len(data))
	}
	p := e.peer(env.To)
	if p == nil {
		return fmt.Errorf("channel: endpoint %s closed", e.name)
	}
	return p.enqueue(data)
}

// peer returns (creating and starting on first use) the sender state
// for a destination, or nil when the endpoint is closed.
func (e *udpEndpoint) peer(name string) *udpPeer {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	if p, ok := e.peers[name]; ok {
		return p
	}
	p := &udpPeer{ep: e, name: name, kick: make(chan struct{}, 1)}
	e.peers[name] = p
	e.peerWG.Add(1)
	go p.loop()
	return p
}

// peerIfExists avoids creating sender state for sources we never send
// to; acking them happens lazily once reverse traffic exists.
func (e *udpEndpoint) peerIfExists(name string) *udpPeer {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.peers[name]
}

// markRecv records a sequenced frame from src, returning whether it was
// fresh and the updated cumulative ack to advertise.
func (e *udpEndpoint) markRecv(src string, seq uint64) (bool, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.recv[src]
	if w == nil {
		w = &recvWindow{}
		e.recv[src] = w
	}
	return w.mark(seq), w.cum
}

func (e *udpEndpoint) readLoop() {
	defer e.readWG.Done()
	buf := make([]byte, 65536)
	for {
		n, _, err := e.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-e.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		e.net.stats.DatagramsRecv.Add(1)
		b, err := msg.DecodeBatch(buf[:n])
		if err != nil {
			continue
		}
		e.receive(b)
	}
}

// receive processes one decoded frame on the read-loop goroutine.
func (e *udpEndpoint) receive(b msg.Batch) {
	if b.Src == "" {
		return
	}
	if p := e.peerIfExists(b.Src); p != nil {
		p.acked(b.Ack)
	}
	if b.Seq == 0 {
		return // pure ack frame
	}
	fresh, cum := e.markRecv(b.Src, b.Seq)
	// Ack through the peer sender (piggybacked on reverse data when
	// there is any, standalone otherwise). Duplicates are re-acked too:
	// the retransmit means our previous ack was lost.
	if p := e.peer(b.Src); p != nil {
		p.noteAckDue(cum)
	}
	if !fresh {
		e.net.stats.DupFrames.Add(1)
		return
	}
	e.mu.Lock()
	h := e.handler
	e.mu.Unlock()
	if h == nil {
		return
	}
	e.net.stats.EnvelopesDelivered.Add(uint64(len(b.Envelopes)))
	for _, env := range b.Envelopes {
		if env.Type.IsResponse() {
			// Responses bypass the bounded pool: a pool worker may be
			// the very caller blocked waiting for this response.
			e.handlerWG.Add(1)
			go func(env msg.Envelope) {
				defer e.handlerWG.Done()
				h(env)
			}(env)
		} else {
			e.hq.push(env)
		}
	}
}

func (e *udpEndpoint) poolWorker() {
	defer e.poolWG.Done()
	for {
		env, ok := e.hq.pop()
		if !ok {
			return
		}
		e.mu.Lock()
		h := e.handler
		e.mu.Unlock()
		if h != nil {
			h(env)
		}
	}
}

// writeDatagram resolves the destination and hands one datagram to the
// wire (or to the fault injector, which models the wire misbehaving).
func (e *udpEndpoint) writeDatagram(to string, payload []byte) {
	e.net.mu.Lock()
	addr, ok := e.net.addrs[to]
	e.net.mu.Unlock()
	if !ok {
		return // peer deregistered; retransmit path will abandon the frame
	}
	e.net.stats.DatagramsSent.Add(1)
	if inj := e.net.inject; inj != nil {
		inj.apply(e.name, to, payload, func(p []byte) { _, _ = e.conn.WriteToUDP(p, addr) })
		return
	}
	_, _ = e.conn.WriteToUDP(payload, addr)
}

// Close stops the endpoint and joins every goroutine it owns: the peer
// sender loops, the read loop, the handler pool (draining queued
// requests), and every in-flight response handler. Pending outbound
// queues are dropped — reliability ends when the endpoint does.
func (e *udpEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	// Deregister only our own address, while the socket still holds it:
	// a newer endpoint may have taken the name since.
	e.net.mu.Lock()
	if a := e.net.addrs[e.name]; a != nil && a.String() == e.conn.LocalAddr().String() {
		delete(e.net.addrs, e.name)
	}
	e.net.mu.Unlock()
	close(e.done)
	e.peerWG.Wait()
	err := e.conn.Close()
	e.readWG.Wait()
	e.hq.close()
	e.poolWG.Wait()
	e.handlerWG.Wait()
	return err
}

// ---------------------------------------------------------------------------
// Per-peer sender

// queuedEnv is one marshaled envelope waiting in a peer queue.
type queuedEnv struct {
	data []byte
	at   time.Time
}

// udpPeer owns one destination's send queue, batch former and sliding
// window, drained by a single sender goroutine.
type udpPeer struct {
	ep   *udpEndpoint
	name string
	kick chan struct{} // cap 1: wake the sender loop

	mu     sync.Mutex
	queue  []queuedEnv // guarded by mu
	win    sendWindow  // guarded by mu
	ackDue bool        // guarded by mu
	ackVal uint64      // guarded by mu
}

func (p *udpPeer) enqueue(data []byte) error {
	p.mu.Lock()
	if len(p.queue) >= queueDepth {
		p.ep.net.stats.BacklogDrops.Add(1)
		p.mu.Unlock()
		return fmt.Errorf("%w: %d envelopes queued for %s", ErrBacklog, queueDepth, p.name)
	}
	p.queue = append(p.queue, queuedEnv{data: data, at: time.Now()})
	depth := uint64(len(p.queue))
	p.mu.Unlock()
	p.ep.net.stats.EnvelopesSent.Add(1)
	p.ep.net.stats.highWater(depth)
	p.wake()
	return nil
}

func (p *udpPeer) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// noteAckDue records the cumulative ack to advertise and wakes the
// sender to carry it (piggybacked or standalone).
func (p *udpPeer) noteAckDue(cum uint64) {
	p.mu.Lock()
	if cum > p.ackVal {
		p.ackVal = cum
	}
	p.ackDue = true
	p.mu.Unlock()
	p.wake()
}

// acked retires frames covered by the peer's cumulative ack.
func (p *udpPeer) acked(a uint64) {
	p.mu.Lock()
	retired := p.win.ack(a)
	p.mu.Unlock()
	if retired > 0 {
		p.wake() // window room may unblock queued data
	}
}

// loop is the peer's single sender goroutine: it forms batches, sends
// and retransmits frames, and emits standalone acks, sleeping on a
// timer armed to the earliest deadline (rto or FlushAge).
func (p *udpPeer) loop() {
	defer p.ep.peerWG.Done()
	const idle = time.Hour
	timer := time.NewTimer(idle)
	defer timer.Stop()
	for {
		frames, wake := p.collect(time.Now())
		for _, payload := range frames {
			p.ep.writeDatagram(p.name, payload)
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		if wake.IsZero() {
			timer.Reset(idle)
		} else {
			d := time.Until(wake)
			if d < 0 {
				d = 0
			}
			timer.Reset(d)
		}
		select {
		case <-p.kick:
		case <-timer.C:
		case <-p.ep.done:
			return
		}
	}
}

// collect forms the next datagrams to write: RTO retransmissions first,
// then new batches while the window has room, then a standalone ack if
// one is owed and no data frame carried it. It returns the earliest
// future deadline the loop must wake for.
func (p *udpPeer) collect(now time.Time) (payloads [][]byte, wake time.Time) {
	flushAge := p.ep.net.flushAge
	stats := &p.ep.net.stats
	p.mu.Lock()
	defer p.mu.Unlock()
	ack := p.ackVal

	// Retransmit overdue frames with a fresh ack; abandon hopeless ones.
	if len(p.win.unacked) > 0 {
		kept := p.win.unacked[:0]
		for _, f := range p.win.unacked {
			if now.Before(f.due(rto)) {
				kept = append(kept, f)
				continue
			}
			if f.attempts > maxRetries {
				// Known defect: the receiver's cumulative ack never passes
				// this seq, so each later frame is delivered but resent
				// until abandoned too (docs/transport.md).
				stats.AbandonedFrames.Add(1)
				continue
			}
			f.lastSent = now
			f.attempts++
			stats.Retransmits.Add(1)
			if data, err := msg.EncodeBatchRaw(p.ep.name, f.seq, ack, f.envs); err == nil {
				payloads = append(payloads, data)
			}
			kept = append(kept, f)
		}
		p.win.unacked = kept
	}

	// Form new batches from the queue.
	for len(p.queue) > 0 && p.win.inFlight() < window {
		n := len(p.queue)
		if n > maxBatchMsgs {
			n = maxBatchMsgs
		}
		if n < maxBatchMsgs && flushAge > 0 {
			// Partial batch: hold it while young in case more arrives.
			if due := p.queue[0].at.Add(flushAge); now.Before(due) {
				if wake.IsZero() || due.Before(wake) {
					wake = due
				}
				break
			}
		}
		size := 0
		take := 0
		for take < n {
			size += len(p.queue[take].data) + 8
			if take > 0 && size > maxBatchBytes {
				break
			}
			take++
		}
		envs := make([][]byte, take)
		for i := 0; i < take; i++ {
			envs[i] = p.queue[i].data
		}
		p.queue = p.queue[take:]
		if len(p.queue) == 0 {
			p.queue = nil
		}
		f := &outFrame{seq: p.win.next(), envs: envs, lastSent: now, attempts: 1}
		p.win.add(f)
		data, err := msg.EncodeBatchRaw(p.ep.name, f.seq, ack, f.envs)
		if err != nil {
			continue
		}
		payloads = append(payloads, data)
		stats.DataFrames.Add(1)
		if take > 1 {
			stats.BatchedDatagrams.Add(1)
		}
	}
	if len(payloads) > 0 {
		p.ackDue = false // every frame above carried the current ack
	} else if p.ackDue {
		p.ackDue = false
		if data, err := msg.EncodeBatchRaw(p.ep.name, 0, ack, nil); err == nil {
			payloads = append(payloads, data)
			stats.AckOnly.Add(1)
		}
	}
	if d, ok := p.win.nextDeadline(rto); ok && (wake.IsZero() || d.Before(wake)) {
		wake = d
	}
	return payloads, wake
}

// ---------------------------------------------------------------------------
// Bounded handler pool queue

// handlerQueue feeds request envelopes to the pool workers. It is
// unbounded in memory but bounds execution concurrency: the read loop
// must never block (a blocked read loop cannot deliver the responses
// that would drain the pool).
type handlerQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stats  *TransportStats
	items  []msg.Envelope // guarded by mu
	head   int            // guarded by mu
	closed bool           // guarded by mu
}

func (q *handlerQueue) push(env msg.Envelope) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.items = append(q.items, env)
	depth := uint64(len(q.items) - q.head)
	q.cond.Signal()
	q.mu.Unlock()
	q.stats.highWater(depth)
}

// pop blocks for the next envelope; ok=false means closed and drained.
func (q *handlerQueue) pop() (msg.Envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		return msg.Envelope{}, false
	}
	env := q.items[q.head]
	q.items[q.head] = msg.Envelope{}
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = nil, 0
	}
	return env, true
}

func (q *handlerQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

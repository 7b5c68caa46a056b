package channel

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"conman/internal/msg"
)

func udpPair(t *testing.T, net *UDPNetwork) (Endpoint, Endpoint) {
	t.Helper()
	a, err := net.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestUDPCloseDrainsHandlers is the regression test for the handler
// leak: Close previously joined only the read loop, abandoning
// in-flight handler goroutines. It must now wait for both the pooled
// request path and the direct response path to finish.
func TestUDPCloseDrainsHandlers(t *testing.T) {
	for _, tc := range []struct {
		name string
		typ  msg.Type
	}{
		{"request-pool", msg.TypeHello},
		{"response-direct", msg.Type("probe.resp")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewUDPNetworkConfig(Config{})
			a, err := net.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := net.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()

			var entered, finished atomic.Bool
			release := make(chan struct{})
			b.SetHandler(func(env msg.Envelope) {
				entered.Store(true)
				<-release
				finished.Store(true)
			})
			if err := a.Send(msg.MustNew(tc.typ, "a", "b", 1, nil)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, 5*time.Second, "handler entry", entered.Load)

			closed := make(chan struct{})
			go func() {
				b.Close()
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("Close returned while a handler was still running")
			case <-time.After(50 * time.Millisecond):
			}
			close(release)
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return after the handler finished")
			}
			if !finished.Load() {
				t.Fatal("Close returned before the handler finished")
			}
		})
	}
}

// TestUDPBatching: a burst toward one peer must coalesce into
// multi-envelope datagrams — far fewer frames than envelopes.
func TestUDPBatching(t *testing.T) {
	net := NewUDPNetworkConfig(Config{FlushAge: 20 * time.Millisecond})
	a, b := udpPair(t, net)
	const burst = 256
	var got atomic.Uint64
	b.SetHandler(func(env msg.Envelope) { got.Add(1) })
	for i := 0; i < burst; i++ {
		if err := a.Send(msg.MustNew(msg.TypeConvey, "a", "b", 0, msg.Convey{Kind: fmt.Sprintf("lsa-%d", i)})); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "burst delivery", func() bool { return got.Load() == burst })
	s := net.Stats()
	if s.BatchedDatagrams == 0 {
		t.Fatalf("no multi-envelope datagrams in a %d-envelope burst: %+v", burst, s)
	}
	if s.DataFrames*4 > burst {
		t.Fatalf("batching too weak: %d data frames for %d envelopes (want ≥4x reduction)", s.DataFrames, burst)
	}
}

// TestUDPBacklog: a full peer queue returns the typed ErrBacklog
// instead of queueing without bound.
func TestUDPBacklog(t *testing.T) {
	// 100% loss: no frame is ever acked, so once the window is full of
	// frames (each carrying at most maxBatchMsgs envelopes) the queue
	// fills and the next send must fail fast. Abandoning a frame takes
	// maxRetries backed-off RTOs, far longer than this loop.
	fn := NewFaultyNetwork(Config{}, FaultConfig{Seed: 1, Loss: 1})
	a, err := fn.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	bEp, err := fn.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer bEp.Close()

	const bound = window*maxBatchMsgs + queueDepth + 1
	sawBacklog := false
	for i := 0; i < bound; i++ {
		err := a.Send(msg.MustNew(msg.TypeHello, "a", "b", uint64(i+1), nil))
		if errors.Is(err, ErrBacklog) {
			sawBacklog = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected send error: %v", err)
		}
	}
	if !sawBacklog {
		t.Fatalf("queue never reported ErrBacklog (%d sends, 100%% loss)", bound)
	}
	if fn.Stats().BacklogDrops == 0 {
		t.Fatal("BacklogDrops counter not incremented")
	}
}

// TestUDPStaleCloseKeepsSuccessor: closing an endpoint whose name a
// newer endpoint has taken since must leave the newer one registered.
func TestUDPStaleCloseKeepsSuccessor(t *testing.T) {
	n := NewUDPNetworkConfig(Config{})
	old, err := n.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	succ, err := n.Endpoint("A")
	if err != nil {
		t.Fatal(err)
	}
	defer succ.Close()
	b, err := n.Endpoint("B")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got := make(chan msg.Envelope, 1)
	succ.SetHandler(func(e msg.Envelope) { got <- e })
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(msg.MustNew(msg.TypeHello, "B", "A", 1, nil)); err != nil {
		t.Fatalf("send to the successor after a stale Close: %v", err)
	}
	select {
	case e := <-got:
		if e.ID != 1 {
			t.Fatalf("got %+v", e)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("successor never received the envelope")
	}
}

// TestUDPLossyDelivery: under 20% loss + reorder + dup + jitter, every
// envelope still arrives exactly once (retransmission upstream, seq
// dedup downstream).
func TestUDPLossyDelivery(t *testing.T) {
	fn := NewFaultyNetwork(Config{}, FaultConfig{
		Seed: 7, Loss: 0.2, Dup: 0.1, Reorder: 0.1, Jitter: 500 * time.Microsecond,
	})
	a, err := fn.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := fn.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	defer b.Close()

	const total = 200
	var mu sync.Mutex
	seen := make(map[uint64]int) // guarded by mu
	b.SetHandler(func(env msg.Envelope) {
		mu.Lock()
		seen[env.ID]++
		mu.Unlock()
	})
	for i := 1; i <= total; i++ {
		if err := a.Send(msg.MustNew(msg.TypeNotify, "a", "b", uint64(i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "lossy delivery", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) == total
	})
	mu.Lock()
	for id, count := range seen {
		if count != 1 {
			t.Errorf("envelope %d delivered %d times", id, count)
		}
	}
	mu.Unlock()
	s := fn.Stats()
	if s.Retransmits == 0 {
		t.Error("20% loss produced zero retransmits")
	}
	if len(fn.Trace()) == 0 {
		t.Error("fault injector recorded no streams")
	}
}

// TestFaultInjectorDeterministic is the seeded-episode property: the
// same seed and the same per-stream datagram sequence reproduce a
// byte-identical verdict trace and delivered-payload sequence; a
// different seed diverges.
func TestFaultInjectorDeterministic(t *testing.T) {
	run := func(seed int64) (map[string]string, map[string][]string) {
		inj := newFaultInjector(FaultConfig{Seed: seed, Loss: 0.3, Dup: 0.2, Reorder: 0.15})
		delivered := make(map[string][]string)
		var mu sync.Mutex
		for i := 0; i < 400; i++ {
			for _, st := range []struct{ src, dst string }{{"nm", "R1"}, {"R1", "nm"}, {"nm", "R2"}} {
				key := st.src + ">" + st.dst
				payload := []byte(fmt.Sprintf("%s#%d", key, i))
				inj.apply(st.src, st.dst, payload, func(p []byte) {
					mu.Lock()
					delivered[key] = append(delivered[key], string(p))
					mu.Unlock()
				})
			}
		}
		return inj.trace(), delivered
	}
	t1, d1 := run(99)
	t2, d2 := run(99)
	if len(t1) != 3 {
		t.Fatalf("expected 3 streams, got %d", len(t1))
	}
	for k := range t1 {
		if t1[k] != t2[k] {
			t.Errorf("stream %s: traces diverged under the same seed:\n%s\n%s", k, t1[k], t2[k])
		}
		if fmt.Sprint(d1[k]) != fmt.Sprint(d2[k]) {
			t.Errorf("stream %s: delivered sequences diverged under the same seed", k)
		}
	}
	t3, _ := run(100)
	same := 0
	for k := range t1 {
		if t1[k] == t3[k] {
			same++
		}
	}
	if same == len(t1) {
		t.Error("every stream trace identical under a different seed — PRNG not seeded per stream")
	}
}

func TestSendWindow(t *testing.T) {
	var w sendWindow
	now := time.Now()
	for i := 0; i < 5; i++ {
		w.add(&outFrame{seq: w.next(), lastSent: now})
	}
	if w.inFlight() != 5 {
		t.Fatalf("inFlight = %d, want 5", w.inFlight())
	}
	if got := w.ack(3); got != 3 {
		t.Fatalf("ack(3) retired %d, want 3", got)
	}
	if w.inFlight() != 2 || w.unacked[0].seq != 4 {
		t.Fatalf("window after ack: %d in flight, head seq %d", w.inFlight(), w.unacked[0].seq)
	}
	if got := w.ack(2); got != 0 {
		t.Fatalf("stale ack retired %d frames", got)
	}
	due, ok := w.nextDeadline(10 * time.Millisecond)
	if !ok || !due.Equal(now.Add(10*time.Millisecond)) {
		t.Fatalf("nextDeadline = %v ok=%v", due, ok)
	}
}

func TestRecvWindow(t *testing.T) {
	var w recvWindow
	if !w.mark(1) || w.cum != 1 {
		t.Fatal("first in-order frame")
	}
	if w.mark(1) {
		t.Fatal("duplicate accepted")
	}
	if !w.mark(3) || w.cum != 1 {
		t.Fatal("out-of-order frame should be fresh without advancing cum")
	}
	if w.mark(3) {
		t.Fatal("out-of-order duplicate accepted")
	}
	if !w.mark(2) || w.cum != 3 {
		t.Fatalf("gap fill should advance cum to 3, got %d", w.cum)
	}
	if len(w.ahead) != 0 {
		t.Fatalf("ahead set not drained: %v", w.ahead)
	}
}

package channel

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"
)

// FaultConfig describes a seeded misbehaving management network:
// per-datagram loss, duplication, reordering and latency jitter,
// injected below the transport's reliability layer so retransmission
// and dedup are what the tests exercise.
type FaultConfig struct {
	// Seed derives every per-stream PRNG; the same seed and the same
	// per-stream send sequence reproduce the same verdicts.
	Seed int64
	// Loss is the probability a datagram is silently dropped.
	Loss float64
	// Dup is the probability a datagram is delivered twice.
	Dup float64
	// Reorder is the probability a datagram is held back and released
	// only after the stream's next datagram has gone out.
	Reorder float64
	// Jitter adds a uniform random delay in [0, Jitter) per datagram.
	Jitter time.Duration
}

// FaultyNetwork wraps a UDPNetwork with seeded fault injection at the
// endpoint layer: every datagram an endpoint writes passes the
// injector, which may drop, duplicate, delay or reorder it. Verdicts
// are drawn from a deterministic per-(src,dst)-stream PRNG, so a given
// seed and per-stream traffic sequence replay byte-identically —
// Trace() exposes the verdict history for that property.
type FaultyNetwork struct {
	*UDPNetwork
}

// NewFaultyNetwork creates a UDP network whose datagrams suffer the
// configured faults.
func NewFaultyNetwork(cfg Config, faults FaultConfig) *FaultyNetwork {
	n := NewUDPNetworkConfig(cfg)
	n.inject = newFaultInjector(faults)
	return &FaultyNetwork{UDPNetwork: n}
}

// Trace returns each stream's verdict history ('.' pass, 'D' drop,
// '2' duplicate, 'R' reorder-hold, 'J' jittered) keyed "src>dst".
func (f *FaultyNetwork) Trace() map[string]string {
	return f.inject.trace()
}

// TraceString renders every stream trace in sorted order, one line per
// stream — a byte-comparable episode transcript.
func (f *FaultyNetwork) TraceString() string {
	t := f.Trace()
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, t[k])
	}
	return b.String()
}

// faultInjector applies FaultConfig verdicts per stream.
type faultInjector struct {
	cfg FaultConfig

	mu      sync.Mutex
	streams map[string]*faultStream // guarded by mu
}

// faultStream is the deterministic state of one src->dst direction.
type faultStream struct {
	mu   sync.Mutex
	rng  *rand.Rand // guarded by mu
	held []byte     // guarded by mu: datagram awaiting the next one (reorder)
	log  []byte     // guarded by mu: verdict history
}

func newFaultInjector(cfg FaultConfig) *faultInjector {
	return &faultInjector{cfg: cfg, streams: make(map[string]*faultStream)}
}

func streamKey(src, dst string) string { return src + ">" + dst }

func (inj *faultInjector) stream(src, dst string) *faultStream {
	key := streamKey(src, dst)
	inj.mu.Lock()
	defer inj.mu.Unlock()
	s, ok := inj.streams[key]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(key))
		s = &faultStream{rng: rand.New(rand.NewSource(inj.cfg.Seed ^ int64(h.Sum64())))}
		inj.streams[key] = s
	}
	return s
}

// apply passes one datagram through the stream's fault model. write
// must be safe for concurrent use (UDPConn writes are); delayed and
// held datagrams are copied since the caller may reuse the buffer.
func (inj *faultInjector) apply(src, dst string, payload []byte, write func([]byte)) {
	cfg := inj.cfg
	s := inj.stream(src, dst)

	s.mu.Lock()
	if cfg.Loss > 0 && s.rng.Float64() < cfg.Loss {
		s.log = append(s.log, 'D')
		s.mu.Unlock()
		return
	}
	dup := cfg.Dup > 0 && s.rng.Float64() < cfg.Dup
	hold := cfg.Reorder > 0 && s.held == nil && s.rng.Float64() < cfg.Reorder
	var jitter time.Duration
	if cfg.Jitter > 0 {
		jitter = time.Duration(s.rng.Int63n(int64(cfg.Jitter)))
	}
	if hold {
		s.log = append(s.log, 'R')
		s.held = append([]byte(nil), payload...)
		s.mu.Unlock()
		return
	}
	switch {
	case dup:
		s.log = append(s.log, '2')
	case jitter > 0:
		s.log = append(s.log, 'J')
	default:
		s.log = append(s.log, '.')
	}
	released := s.held
	s.held = nil
	s.mu.Unlock()

	deliver := func(p []byte) {
		if jitter > 0 {
			p = append([]byte(nil), p...)
			time.AfterFunc(jitter, func() { write(p) })
			return
		}
		write(p)
	}
	deliver(payload)
	if dup {
		deliver(payload)
	}
	if released != nil {
		// The held datagram rides out after this one: a reorder.
		deliver(released)
	}
}

func (inj *faultInjector) trace() map[string]string {
	inj.mu.Lock()
	keys := make([]string, 0, len(inj.streams))
	for k := range inj.streams {
		keys = append(keys, k)
	}
	inj.mu.Unlock()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		inj.mu.Lock()
		s := inj.streams[k]
		inj.mu.Unlock()
		s.mu.Lock()
		out[k] = string(append([]byte(nil), s.log...))
		s.mu.Unlock()
	}
	return out
}

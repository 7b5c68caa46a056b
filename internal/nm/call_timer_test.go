package nm

import (
	"runtime"
	"testing"
	"time"

	"conman/internal/channel"
	"conman/internal/msg"
)

// TestCallsDoNotRetainDeadlines: a call that is answered must not leave
// its deadline timer behind. Under the go 1.21 timer semantics this
// module declares, an unfired time.After stays live until it fires, so
// 20 000 answered calls under a 10-minute CallTimeout would hold 20 000
// timers and their channels (≈ 260 bytes each) for ten minutes.
func TestCallsDoNotRetainDeadlines(t *testing.T) {
	const calls = 20000
	hub := channel.NewHub()
	n := New()
	n.AttachChannel(hub.Endpoint(msg.NMName))
	n.CallTimeout = 10 * time.Minute
	dev := hub.Endpoint("R1")
	dev.SetHandler(func(env msg.Envelope) {
		_ = dev.Send(msg.MustNew(msg.TypeShowActualResp, "R1", env.From, env.ID, msg.ShowActualResp{}))
	})
	liveHeap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	if _, err := n.ShowActual("R1"); err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	for i := 0; i < calls; i++ {
		if _, err := n.ShowActual("R1"); err != nil {
			t.Fatal(err)
		}
	}
	after := liveHeap()
	var grown uint64
	if after > before {
		grown = after - before
	}
	t.Logf("%d calls: live heap %d → %d bytes", calls, before, after)
	// Stopped timers leave nothing; a retained one costs ≈ 260 bytes.
	if perCall := grown / calls; perCall > 32 {
		t.Errorf("%d answered calls left %d bytes live (%d per call); their deadline timers are not stopped",
			calls, grown, perCall)
	}
}

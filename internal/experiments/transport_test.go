package experiments

import (
	"testing"
	"time"

	"conman/internal/channel"
)

// Lossy-transport scenarios: the GRE+IGP chain configured over a UDP
// management plane that drops, reorders and delays datagrams. The
// transport's frame-level retransmission plus the NM's request retry
// must still converge the configuration and the data plane.

// lossyFaults is the standard 5%-loss episode the CI transport-smoke
// tier also runs; the seed pins the injector's verdict sequence.
func lossyFaults() channel.FaultConfig {
	return channel.FaultConfig{
		Seed:    42,
		Loss:    0.05,
		Reorder: 0.02,
		Jitter:  time.Millisecond,
	}
}

// runLossyLinear configures the GRE+IGP chain of n routers over a faulty
// UDP management plane and verifies end-to-end data-plane connectivity.
func runLossyLinear(t *testing.T, n int) {
	t.Helper()
	fn := channel.NewFaultyNetwork(channel.Config{}, lossyFaults())
	sc := GREIGPScenario()
	tb, err := sc.BuildOver(n, func(name string) (channel.Endpoint, error) {
		return fn.Endpoint(name)
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tb.Close()
	// Requests may need several transmissions: retry well inside the
	// call timeout so a lost exchange is retried, not timed out.
	tb.NM.RetryInterval = 100 * time.Millisecond
	tb.NM.CallTimeout = 20 * time.Second

	if _, err := sc.ConfigureLinear(tb, n); err != nil {
		t.Fatal(err)
	}
	tb.SettleCounters(20 * time.Second)
	if err := tb.VerifyUntil(97000, 20*time.Second); err != nil {
		t.Fatalf("lossy UDP n=%d: %v", n, err)
	}

	s := fn.Stats()
	if s.Retransmits == 0 {
		t.Error("5% loss produced zero frame retransmits")
	}
	if s.DupFrames == 0 {
		t.Error("retransmission produced zero duplicate frames at receivers")
	}
	if len(fn.Trace()) == 0 {
		t.Error("fault injector recorded no streams")
	}
	// The bring-up must fit the fixed queue bound and the retry budget:
	// a refused Send or an abandoned frame here means the channel's
	// constants no longer cover its own workload.
	if s.BacklogDrops != 0 {
		t.Errorf("%d Sends refused with ErrBacklog", s.BacklogDrops)
	}
	if s.AbandonedFrames != 0 {
		t.Errorf("%d frames abandoned after maxRetries", s.AbandonedFrames)
	}
	t.Logf("n=%d over lossy UDP: %d datagrams (%d retransmits, %d dups, %d batched), %d NM call retries",
		n, s.DatagramsSent, s.Retransmits, s.DupFrames, s.BatchedDatagrams, tb.NM.CallRetries())
}

// TestLinearGREIGPOverLossyUDP is the always-run smoke at n=8.
func TestLinearGREIGPOverLossyUDP(t *testing.T) {
	runLossyLinear(t, 8)
}

// TestLinearGREIGPOverLossyUDP128 is the CI transport tier's scenario:
// 128 routers, seeded 5% loss + reorder + 1ms jitter.
func TestLinearGREIGPOverLossyUDP128(t *testing.T) {
	if testing.Short() {
		t.Skip("n=128 lossy chain skipped in -short")
	}
	runLossyLinear(t, 128)
}

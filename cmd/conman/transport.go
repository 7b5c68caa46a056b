package main

import (
	"flag"
	"fmt"
	"net"
	"time"

	"conman/internal/channel"
	"conman/internal/experiments"
	"conman/internal/obs"
)

// runTransport is the CI transport-smoke tier's entrypoint: configure a
// linear GRE+IGP chain over real UDP sockets with seeded loss, reorder
// and jitter, verify the data plane end-to-end, and (with -addr) keep
// serving /status and /metrics so the harness can assert the transport's
// retry and batching counters are nonzero.
func runTransport(_ string, args []string) error {
	fs := flag.NewFlagSet("transport", flag.ContinueOnError)
	n := fs.Int("n", 128, "routers in the linear chain")
	loss := fs.Float64("loss", 0.05, "per-datagram loss probability")
	reorder := fs.Float64("reorder", 0.02, "per-datagram reorder probability")
	dup := fs.Float64("dup", 0, "per-datagram duplication probability")
	jitter := fs.Duration("jitter", time.Millisecond, "max per-datagram latency jitter")
	seed := fs.Int64("seed", 1, "fault-injection seed")
	flush := fs.Duration("flush", time.Millisecond, "batch flush age (0 sends immediately)")
	addr := fs.String("addr", "", "serve /status and /metrics on this address after converging (empty: exit)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	faults := channel.FaultConfig{
		Seed: *seed, Loss: *loss, Reorder: *reorder, Dup: *dup, Jitter: *jitter,
	}
	fn := channel.NewFaultyNetwork(channel.Config{FlushAge: *flush}, faults)
	sc := experiments.GREIGPScenario()
	tb, err := sc.BuildOver(*n, func(name string) (channel.Endpoint, error) {
		return fn.Endpoint(name)
	})
	if err != nil {
		return err
	}
	defer tb.Close()
	tb.NM.RetryInterval = 100 * time.Millisecond
	tb.NM.CallTimeout = 30 * time.Second

	start := time.Now()
	if _, err := sc.ConfigureLinear(tb, *n); err != nil {
		return err
	}
	// UDP relays settle asynchronously: wait for the NM counters to
	// quiesce, then verify delivery (retrying while late floods land).
	tb.SettleCounters(20 * time.Second)
	if err := tb.VerifyUntil(96000, 30*time.Second); err != nil {
		return fmt.Errorf("transport: data plane not converged: %w", err)
	}
	elapsed := time.Since(start)

	s := fn.Stats()
	fmt.Printf("transport: converged n=%d loss=%.0f%% reorder=%.0f%% jitter=%v in %v\n",
		*n, *loss*100, *reorder*100, *jitter, elapsed.Round(time.Millisecond))
	fmt.Printf("transport: %d datagrams sent (%d batched, %d retransmits, %d ack-only), %d dup frames dropped, %d envelopes delivered, %d NM call retries\n",
		s.DatagramsSent, s.BatchedDatagrams, s.Retransmits, s.AckOnly, s.DupFrames, s.EnvelopesDelivered, tb.NM.CallRetries())

	if *addr == "" {
		return nil
	}
	// Every series is read from the transport and the NM at scrape time.
	metrics := obs.NewMetrics()
	type snap = channel.TransportSnapshot
	stat := func(name, help string, v func(snap) uint64) {
		metrics.CounterFunc(name, help, func() uint64 { return v(fn.Stats()) })
	}
	stat("conman_transport_datagrams_sent_total", "UDP datagrams written", func(s snap) uint64 { return s.DatagramsSent })
	stat("conman_transport_data_frames_total", "sequenced data frames (first transmissions)", func(s snap) uint64 { return s.DataFrames })
	stat("conman_transport_batched_datagrams_total", "datagrams carrying more than one envelope", func(s snap) uint64 { return s.BatchedDatagrams })
	stat("conman_transport_retransmits_total", "frame retransmissions", func(s snap) uint64 { return s.Retransmits })
	stat("conman_transport_ack_only_total", "standalone ack frames", func(s snap) uint64 { return s.AckOnly })
	stat("conman_transport_dup_frames_total", "duplicate frames deduplicated at receivers", func(s snap) uint64 { return s.DupFrames })
	stat("conman_transport_envelopes_sent_total", "envelopes accepted for send", func(s snap) uint64 { return s.EnvelopesSent })
	stat("conman_transport_envelopes_delivered_total", "envelopes delivered to handlers", func(s snap) uint64 { return s.EnvelopesDelivered })
	stat("conman_transport_backlog_drops_total", "sends rejected with a full queue", func(s snap) uint64 { return s.BacklogDrops })
	metrics.CounterFunc("conman_nm_call_retries_total", "NM request retransmissions", tb.NM.CallRetries)
	metrics.GaugeFunc("conman_transport_queue_high_water", "peak per-peer send queue depth",
		func() uint64 { return fn.Stats().QueueHighWater })
	mux := obs.NewMux(func() any {
		return map[string]any{
			"transport":       fn.Stats(),
			"nm_call_retries": tb.NM.CallRetries(),
			"n":               *n,
			"converge_secs":   elapsed.Seconds(),
		}
	}, metrics)
	err = serveUntilSignal(*addr, mux, func(at net.Addr) error {
		fmt.Printf("transport: listening on http://%s (/status /metrics)\n", at)
		return nil
	})
	if err == nil {
		fmt.Println("transport: shut down")
	}
	return err
}

package main

import (
	"net/netip"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"conman/internal/msg"
	"conman/internal/nm"
	"conman/internal/packet"
)

func tracePath(dir, workload string) string {
	return filepath.Join(dir, "trace-"+workload+".json")
}

// finishTrace reports the span count and writes the workload's span file.
func finishTrace(res *result, cfg config, spans []span) {
	res.set("trace.spans", float64(len(spans)), 1)
	if cfg.OutDir == "" {
		return
	}
	if err := writeTrace(tracePath(cfg.OutDir, res.Workload), spans); err != nil {
		res.fail("write trace: %v", err)
	}
}

// timeShowActual times NM.ShowActual on the first sample devices.
func timeShowActual(n *nm.NM, sample int) ([]float64, error) {
	var xs []float64
	devs := n.Devices()
	for _, dev := range devs[:min(sample, len(devs))] {
		t := time.Now()
		if _, err := n.ShowActual(dev); err != nil {
			return xs, err
		}
		xs = append(xs, time.Since(t).Seconds())
	}
	return xs, nil
}

// spanSummary is what the spans of one operation say about each layer.
type spanSummary struct {
	selfTotal float64 // Σ self time of every span under the op root

	envelopes, conveys, conveysIGP, commands, showActuals int
	bytes                                                 []float64
	transit, sendCall                                     []float64
	deviceHandle, conveyHandle                            []float64
	sample                                                []msg.Envelope
}

// summarizeSpans reads the per-layer numbers off one operation's spans.
// nested says the spans ran on one goroutine, where self time is exact;
// elsewhere handler and send times are reported inclusive.
func summarizeSpans(spans []span, nested bool) spanSummary {
	var sm spanSummary
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		if s.End == 0 {
			continue // still open when the operation ended
		}
		own := s.dur()
		if nested {
			own = self[i]
		}
		sm.selfTotal += self[i].Seconds()
		switch s.Name {
		case "channel.send":
			sm.envelopes++
			env := s.Env
			switch {
			case env.Type == msg.TypeConvey:
				sm.conveys++
				var c msg.Convey
				if env.Decode(&c) == nil && strings.HasPrefix(c.Kind, "igp") {
					sm.conveysIGP++
				}
			case strings.HasPrefix(string(env.Type), "commandBatch"):
				sm.commands++
			case strings.HasPrefix(string(env.Type), "showActual"):
				sm.showActuals++
			}
			if data, err := env.Marshal(); err == nil {
				sm.bytes = append(sm.bytes, float64(len(data)))
			}
			sm.sendCall = append(sm.sendCall, own.Seconds())
			// Every 40th envelope joins the replay sample (about 1000 of a
			// 128-router configuration).
			if sm.envelopes%40 == 1 {
				sm.sample = append(sm.sample, *env)
			}
		case "device.handle", "nm.handle":
			if p := s.Parent; p >= 0 && spans[p].Name == "channel.send" {
				sm.transit = append(sm.transit, (s.Start - spans[p].Start).Seconds())
			}
			if s.Name == "nm.handle" {
				break
			}
			if s.Env.Type == msg.TypeConvey {
				sm.conveyHandle = append(sm.conveyHandle, own.Seconds())
			} else if !s.Env.Type.IsResponse() {
				sm.deviceHandle = append(sm.deviceHandle, own.Seconds())
			}
		}
	}
	return sm
}

// emit stores the span-derived per-layer metrics.
func (sm *spanSummary) emit(res *result, devices int) {
	res.set("msg.envelopes", float64(sm.envelopes), 1)
	res.set("msg.envelopes.convey", float64(sm.conveys), 1)
	res.set("msg.envelopes.command", float64(sm.commands), 1)
	res.set("msg.envelopes.show_actual", float64(sm.showActuals), 1)
	res.set("msg.bytes", sum(sm.bytes), len(sm.bytes))
	res.set("msg.bytes_per_envelope_p50", median(sm.bytes), len(sm.bytes))
	res.set("channel.transit_p50_s", median(sm.transit), len(sm.transit))
	res.set("channel.transit_p99_s", tail(sm.transit, 0.99), len(sm.transit))
	res.set("channel.send_call_p99_s", tail(sm.sendCall, 0.99), len(sm.sendCall))
	res.set("device.requests", float64(len(sm.deviceHandle)), 1)
	res.set("device.handler_busy_s", sum(sm.deviceHandle), len(sm.deviceHandle))
	res.set("device.handler_p50_s", median(sm.deviceHandle), len(sm.deviceHandle))
	res.set("device.handler_p99_s", tail(sm.deviceHandle, 0.99), len(sm.deviceHandle))
	res.set("modules.conveys", float64(sm.conveys), 1)
	res.set("modules.conveys.igp", float64(sm.conveysIGP), 1)
	res.set("modules.conveys.other", float64(sm.conveys-sm.conveysIGP), 1)
	res.set("modules.conveys_per_device", ratio(float64(sm.conveys), float64(devices)), 1)
	res.set("modules.convey_handler_busy_s", sum(sm.conveyHandle), len(sm.conveyHandle))
}

// perOp times fn over rounds calls and returns nanoseconds per call.
func perOp(rounds int, fn func()) float64 {
	t := time.Now()
	for i := 0; i < rounds; i++ {
		fn()
	}
	return float64(time.Since(t).Nanoseconds()) / float64(rounds)
}

// msgMicro replays a sample of captured envelopes through the codec:
// cost per envelope of marshal and unmarshal, and per envelope of a
// full batch frame's encode and decode.
func msgMicro(res *result, sample []msg.Envelope) {
	if len(sample) == 0 {
		return
	}
	const rounds = 20
	wire := make([][]byte, len(sample))
	for i, env := range sample {
		wire[i], _ = env.Marshal() // captured from live traffic: already marshalled once
	}
	n := float64(len(sample))
	res.set("msg.marshal_ns", perOp(rounds, func() {
		for _, env := range sample {
			_, _ = env.Marshal()
		}
	})/n, len(sample))
	res.set("msg.unmarshal_ns", perOp(rounds, func() {
		for _, data := range wire {
			_, _ = msg.Unmarshal(data)
		}
	})/n, len(sample))
	res.set("msg.marshal_allocs", testing.AllocsPerRun(rounds, func() {
		for _, env := range sample {
			_, _ = env.Marshal()
		}
	})/n, len(sample))

	// Frames of 32 envelopes, the transport's default batch.
	var frames []msg.Batch
	for i := 0; i < len(sample); i += 32 {
		end := i + 32
		if end > len(sample) {
			end = len(sample)
		}
		frames = append(frames, msg.Batch{Src: "bench", Seq: uint64(i + 1), Envelopes: sample[i:end]})
	}
	encoded := make([][]byte, len(frames))
	res.set("msg.batch_encode_ns", perOp(rounds, func() {
		for i, f := range frames {
			encoded[i], _ = f.EncodeBatch()
		}
	})/n, len(sample))
	res.set("msg.batch_decode_ns", perOp(rounds, func() {
		for _, data := range encoded {
			_, _ = msg.DecodeBatch(data)
		}
	})/n, len(sample))
}

// packetMicro times the data plane's codec on the GRE stack a tunnelled
// probe is carried in: the floor under every delivery time.
func packetMicro(res *result) {
	inner, err := packet.Serialize(nil,
		packet.IPv4{TTL: 64, Proto: packet.ProtoProbe,
			Src: netip.MustParseAddr("10.0.1.1"), Dst: netip.MustParseAddr("10.0.2.1")},
		packet.Probe{Op: packet.ProbeEcho, Token: 1})
	if err != nil {
		res.fail("packet serialize: %v", err)
		return
	}
	gre := packet.GRE{KeyPresent: true, Key: 2001, SeqPresent: true, Seq: 1, ChecksumPresent: true, Proto: packet.EtherTypeIPv4}
	outer := packet.IPv4{TTL: 64, Proto: packet.ProtoGRE,
		Src: netip.MustParseAddr("204.9.168.1"), Dst: netip.MustParseAddr("204.9.169.1")}
	eth := packet.Ethernet{Type: packet.EtherTypeIPv4}
	frame, err := packet.Serialize(inner, eth, outer, gre)
	if err != nil {
		res.fail("packet serialize: %v", err)
		return
	}
	if _, err := packet.Decode(frame, packet.LayerTypeEthernet); err != nil {
		res.fail("packet decode: %v", err)
		return
	}
	const rounds = 20000
	res.set("packet.serialize_ns", perOp(rounds, func() { _, _ = packet.Serialize(inner, eth, outer, gre) }), rounds)
	res.set("packet.decode_ns", perOp(rounds, func() { _, _ = packet.Decode(frame, packet.LayerTypeEthernet) }), rounds)
	res.set("packet.serialize_allocs", testing.AllocsPerRun(1000, func() { _, _ = packet.Serialize(inner, eth, outer, gre) }), 1000)
}

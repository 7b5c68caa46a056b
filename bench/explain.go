package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"conman/internal/msg"
)

// explainTrace reads a trace file this benchmark wrote and prints where
// the operation's time went: self time per layer, the ten spans with the
// most self time (on the hub every span is on the blocking path; over
// UDP the slowest send→handle transits are listed too, since one late
// frame stalls its whole chain), and envelope counts per type.
func explainTrace(w io.Writer, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: not a trace-event file: %w", path, err)
	}
	// Rebuild the spans from the events' args; ids are slice positions.
	var spans []span
	str := func(args map[string]any, key string) string { s, _ := args[key].(string); return s }
	num := func(args map[string]any, key string) int { f, _ := args[key].(float64); return int(f) }
	for _, ev := range tf.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		id := num(ev.Args, "id")
		for len(spans) <= id {
			spans = append(spans, span{Parent: -1})
		}
		s := span{
			ID: id, Parent: num(ev.Args, "parent"), Name: ev.Name,
			Start: time.Duration(ev.Ts * 1e3), End: time.Duration((ev.Ts + ev.Dur) * 1e3),
			Bytes: num(ev.Args, "bytes"),
		}
		if t := str(ev.Args, "type"); t != "" {
			s.Env = &msg.Envelope{Type: msg.Type(t), From: str(ev.Args, "from"), To: str(ev.Args, "to")}
		}
		spans[id] = s
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s: no spans", path)
	}

	self := selfTimes(spans)
	byLayer := map[string]time.Duration{}
	byType := map[msg.Type]int{}
	bytesByType := map[msg.Type]int{}
	var total, wall time.Duration
	type transit struct {
		d    time.Duration
		send *span
	}
	var transits []transit
	for i := range spans {
		s := &spans[i]
		if s.Name == "" {
			continue
		}
		byLayer[layerOf(s)] += self[i]
		total += self[i]
		if s.Parent < 0 && s.dur() > wall {
			wall = s.dur()
		}
		if s.Name == "channel.send" {
			byType[s.Env.Type]++
			bytesByType[s.Env.Type] += s.Bytes
		}
		if (s.Name == "device.handle" || s.Name == "nm.handle") && s.Parent >= 0 && spans[s.Parent].Name == "channel.send" {
			transits = append(transits, transit{s.Start - spans[s.Parent].Start, &spans[s.Parent]})
		}
	}

	fmt.Fprintf(w, "%s: %d spans, longest root %v, self time summed %v\n\n", path, len(spans), wall, total)
	fmt.Fprintln(w, "self time per layer (a span's duration minus what its children cover):")
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return byLayer[layers[i]] > byLayer[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %12v  %5.1f%%\n", l, byLayer[l], 100*ratio(float64(byLayer[l]), float64(total)))
	}

	describe := func(s *span) string {
		if s.Env != nil {
			return fmt.Sprintf("%s %s %s→%s", s.Name, s.Env.Type, s.Env.From, s.Env.To)
		}
		return s.Name
	}
	fmt.Fprintln(w, "\ntop ten spans by self time:")
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return self[order[i]] > self[order[j]] })
	for _, i := range order[:min(10, len(order))] {
		fmt.Fprintf(w, "  %12v at %-12v %s\n", self[i], spans[i].Start, describe(&spans[i]))
	}

	if len(transits) > 0 {
		sort.Slice(transits, func(i, j int) bool { return transits[i].d > transits[j].d })
		late := 0
		for _, t := range transits {
			if t.d >= 25*time.Millisecond {
				late++
			}
		}
		fmt.Fprintf(w, "\nslowest send→handle transits (%d of %d took a retransmit timeout, 25ms, or longer):\n", late, len(transits))
		for _, t := range transits[:min(10, len(transits))] {
			fmt.Fprintf(w, "  %12v at %-12v %s\n", t.d, t.send.Start, describe(t.send))
		}
	}

	fmt.Fprintln(w, "\nenvelopes sent, per type:")
	types := make([]msg.Type, 0, len(byType))
	for t := range byType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return byType[types[i]] > byType[types[j]] })
	for _, t := range types {
		fmt.Fprintf(w, "  %-28s %7d  %10d bytes\n", t, byType[t], bytesByType[t])
	}
	return nil
}

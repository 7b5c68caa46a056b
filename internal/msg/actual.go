package msg

// A reflection-free JSON encoder for showActual's modules, byte for byte
// what encoding/json writes for []core.ModuleState (held to that by
// TestAppendModulesMatchesEncodingJSON). An MA renders and marshals its
// whole state on every read, unchanged or not, to take the digest;
// encoding/json's reflection was about two fifths of that cost.

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"conman/internal/core"
)

// appendModules appends the JSON encoding of states to b.
func appendModules(b []byte, states []core.ModuleState) ([]byte, error) {
	if states == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range states {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendModuleState(b, &states[i]); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

func appendModuleState(b []byte, st *core.ModuleState) ([]byte, error) {
	b = append(b, `{"ref":`...)
	b = appendRef(b, st.Ref)
	if len(st.Pipes) > 0 {
		b = append(b, `,"pipes":[`...)
		for i := range st.Pipes {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendPipe(b, &st.Pipes[i])
		}
		b = append(b, ']')
	}
	if len(st.SwitchRules) > 0 {
		b = append(b, `,"switch_rules":[`...)
		for i := range st.SwitchRules {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSwitchRule(b, &st.SwitchRules[i])
		}
		b = append(b, ']')
	}
	if len(st.Filters) > 0 {
		// Filters are rare and nest the abstract rule: encoding/json
		// writes them.
		f, err := json.Marshal(st.Filters)
		if err != nil {
			return nil, err
		}
		b = append(b, `,"filters":`...)
		b = append(b, f...)
	}
	b = append(b, `,"perf":{`...)
	if len(st.Perf.Metrics) > 0 {
		b = append(b, `"metrics":{`...)
		for i, k := range sortedKeys(st.Perf.Metrics) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			var err error
			if b, err = appendFloat(b, st.Perf.Metrics[k]); err != nil {
				return nil, err
			}
		}
		b = append(b, '}')
	}
	b = append(b, '}')
	if len(st.LowLevel) > 0 {
		b = append(b, `,"low_level":{`...)
		for i, k := range sortedKeys(st.LowLevel) {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, k)
			b = append(b, ':')
			b = appendString(b, st.LowLevel[k])
		}
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendRef(b []byte, r core.ModuleRef) []byte {
	b = append(b, `{"name":`...)
	b = appendString(b, string(r.Name))
	b = append(b, `,"module":`...)
	b = appendString(b, string(r.Module))
	b = append(b, `,"device":`...)
	b = appendString(b, string(r.Device))
	return append(b, '}')
}

func appendPipe(b []byte, p *core.PipeState) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, string(p.ID))
	b = append(b, `,"end":`...)
	b = strconv.AppendUint(b, uint64(p.End), 10)
	// omitempty has no effect on a struct: encoding/json always writes
	// other and peer.
	b = append(b, `,"other":`...)
	b = appendRef(b, p.Other)
	b = append(b, `,"peer":`...)
	b = appendRef(b, p.Peer)
	b = append(b, `,"status":`...)
	b = strconv.AppendUint(b, uint64(p.Status), 10)
	b = append(b, `,"rx_pkts":`...)
	b = strconv.AppendUint(b, p.RxPkts, 10)
	b = append(b, `,"tx_pkts":`...)
	b = strconv.AppendUint(b, p.TxPkts, 10)
	if p.Handle != "" {
		b = append(b, `,"handle":`...)
		b = appendString(b, p.Handle)
	}
	return append(b, '}')
}

func appendSwitchRule(b []byte, r *core.SwitchRuleState) []byte {
	b = append(b, `{"id":`...)
	b = appendString(b, r.ID)
	b = append(b, `,"from":`...)
	b = appendString(b, string(r.From))
	b = append(b, `,"to":`...)
	b = appendString(b, string(r.To))
	if r.Match != nil {
		b = append(b, `,"match":{"kind":`...)
		b = appendString(b, r.Match.Kind)
		b = append(b, `,"value":`...)
		b = appendString(b, r.Match.Value)
		b = append(b, '}')
	}
	for _, f := range [...]struct{ key, v string }{
		{`,"via":`, r.Via},
		{`,"match_resolved":`, r.MatchResolved},
		{`,"via_resolved":`, r.ViaResolved},
		{`,"handle_resolved":`, r.HandleResolved},
	} {
		if f.v != "" {
			b = append(b, f.key...)
			b = appendString(b, f.v)
		}
	}
	return append(b, '}')
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// appendFloat writes f as encoding/json does: shortest form, 'f' format
// unless the exponent is very small or large.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendString writes s as a JSON string the way encoding/json does,
// HTML-safe: <, > and & as \u003c, \u003e and \u0026, U+2028 and
// U+2029 escaped, and invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

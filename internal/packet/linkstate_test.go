package packet

import (
	"bytes"
	"net/netip"
	"reflect"
	"testing"
)

func sampleLinkStates() []LinkState {
	return []LinkState{
		{From: "<IGP,R001,igp>"},
		{
			Summary: true,
			From:    "<IGP,R002,igp>",
			LSAs: []LSA{{
				Origin:    "<IGP,R002,igp>",
				Seq:       1,
				Prefixes:  []netip.Prefix{netip.MustParsePrefix("10.0.0.2/30"), netip.MustParsePrefix("10.0.1.1/30")},
				Neighbors: []string{"<IGP,R001,igp>", "<IGP,R003,igp>"},
			}},
			Have: []LSAID{{Origin: "<IGP,R001,igp>", Seq: 7}, {Origin: "<IGP,R128,igp>", Seq: 1 << 40}},
		},
		{
			From: "<IGP,R003,igp>",
			LSAs: []LSA{
				{Origin: "<IGP,R004,igp>", Seq: 300, Prefixes: []netip.Prefix{netip.MustParsePrefix("172.16.0.1/24")}},
				{Origin: "<IGP,R005,igp>", Seq: 2, Neighbors: []string{"<IGP,R004,igp>"}},
			},
			Want: []string{"<IGP,R006,igp>", "<IGP,R007,igp>"},
		},
	}
}

// TestLinkStateRoundTrip holds the codec to its own inverse on summaries
// and updates, and checks the wire form stays compact: one byte a prefix
// length, no field names.
func TestLinkStateRoundTrip(t *testing.T) {
	for i, want := range sampleLinkStates() {
		wire := want.Append(nil)
		got, err := DecodeLinkState(wire)
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sample %d: round trip gave\n%+v\nwant\n%+v", i, got, want)
		}
		if again := got.Append(nil); !bytes.Equal(again, wire) {
			t.Errorf("sample %d: re-encoding differs\n%x\n%x", i, again, wire)
		}
		if i == 1 && len(wire) > 120 {
			t.Errorf("summary with one LSA and two Have entries is %d bytes", len(wire))
		}
	}
}

// TestLinkStateDecodeRejects covers the malformed inputs the decoder
// must refuse: every truncation of a valid packet, an unknown kind, a
// prefix longer than 32 bits, a count the bytes cannot hold, and
// trailing bytes.
func TestLinkStateDecodeRejects(t *testing.T) {
	wire := sampleLinkStates()[1].Append(nil)
	for n := 0; n < len(wire); n++ {
		if _, err := DecodeLinkState(wire[:n]); err == nil {
			t.Errorf("truncation to %d of %d bytes decoded", n, len(wire))
		}
	}
	bad := map[string][]byte{
		"unknown kind":   append([]byte{3}, wire[1:]...),
		"trailing bytes": append(append([]byte(nil), wire...), 0),
		"huge count":     {linkStateUpdate, 0, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"33-bit prefix":  (&LinkState{LSAs: []LSA{{Prefixes: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}}}).Append(nil),
	}
	p := bad["33-bit prefix"]
	p[len(p)-4] = 33 // the prefix length byte, before the empty neighbour, Have and Want lists
	for name, data := range bad {
		if _, err := DecodeLinkState(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}

// FuzzLinkStateDecode holds the link-state codec to the contract
// FuzzPacketDecode holds the header codecs to: DecodeLinkState returns an
// error, never panics, on arbitrary bytes, and a successful decode
// survives an encode/re-decode round trip unchanged. The re-encoding is
// the canonical form, so encoding it again gives the same bytes.
func FuzzLinkStateDecode(f *testing.F) {
	for _, l := range sampleLinkStates() {
		f.Add(l.Append(nil))
	}
	f.Add([]byte{})
	f.Add([]byte{linkStateSummary, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		l1, err := DecodeLinkState(data)
		if err != nil {
			return
		}
		out := l1.Append(nil)
		l2, err := DecodeLinkState(out)
		if err != nil {
			t.Fatalf("re-encoded packet does not decode: %v\nin  %x\nout %x", err, data, out)
		}
		if !reflect.DeepEqual(l1, l2) {
			t.Fatalf("round trip changed the packet\nfirst  %+v\nsecond %+v", l1, l2)
		}
		if again := l2.Append(nil); !bytes.Equal(again, out) {
			t.Fatalf("canonical form is not a fixed point\n%x\n%x", out, again)
		}
	})
}

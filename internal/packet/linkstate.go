package packet

import (
	"encoding/binary"
	"errors"
	"net/netip"
)

// LinkState is one link-local packet of the IGP control module, carried
// straight in an Ethernet frame of EtherTypeLinkState on the link of the
// adjacency it serves. Like a real IGP's Link State Update it carries a
// batch of LSAs. A database summary (Summary set), which opens an
// adjacency, also carries Have: the (origin, seq) of every other LSA its
// sender holds. An update answering one may carry Want: the origins its
// sender asks to be sent.
type LinkState struct {
	Summary bool
	From    string // the sending module
	LSAs    []LSA
	Have    []LSAID
	Want    []string
}

// LSA is a link-state advertisement: its origin's connected host
// addresses (with prefix lengths, so a neighbour resolves next hops by
// subnet matching) and adjacent modules, at a sequence number.
type LSA struct {
	Origin    string
	Seq       uint64
	Prefixes  []netip.Prefix // IPv4 only
	Neighbors []string
}

// LSAID names one LSA instance in a database summary.
type LSAID struct {
	Origin string
	Seq    uint64
}

// Wire form, after a one-byte kind (1 update, 2 summary): From; the LSAs,
// each origin, seq, prefixes (4 address bytes and a length byte each) and
// neighbours; Have, each origin and seq; Want. A list is a uvarint count
// followed by its items, a string a uvarint length followed by its bytes,
// a seq a uvarint.
const (
	linkStateUpdate  = 1
	linkStateSummary = 2
)

// Append appends the packet's wire form to b.
func (l *LinkState) Append(b []byte) []byte {
	kind := byte(linkStateUpdate)
	if l.Summary {
		kind = linkStateSummary
	}
	b = appendString(append(b, kind), l.From)
	b = binary.AppendUvarint(b, uint64(len(l.LSAs)))
	for i := range l.LSAs {
		lsa := &l.LSAs[i]
		b = binary.AppendUvarint(appendString(b, lsa.Origin), lsa.Seq)
		b = binary.AppendUvarint(b, uint64(len(lsa.Prefixes)))
		for _, p := range lsa.Prefixes {
			a := p.Addr().As4()
			b = append(append(b, a[:]...), byte(p.Bits()))
		}
		b = appendStrings(b, lsa.Neighbors)
	}
	b = binary.AppendUvarint(b, uint64(len(l.Have)))
	for _, h := range l.Have {
		b = binary.AppendUvarint(appendString(b, h.Origin), h.Seq)
	}
	return appendStrings(b, l.Want)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrings(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendString(b, s)
	}
	return b
}

var errLinkState = errors.New("packet: malformed link-state packet")

// DecodeLinkState parses a LinkState from its wire form. It fails, never
// panics, on malformed input: an unknown kind, a truncated field, a
// count larger than the bytes left could hold, an IPv4 prefix longer
// than 32 bits, or trailing bytes.
func DecodeLinkState(data []byte) (LinkState, error) {
	var l LinkState
	if len(data) == 0 || (data[0] != linkStateUpdate && data[0] != linkStateSummary) {
		return l, errLinkState
	}
	r := lsReader{data: data[1:]}
	l.Summary = data[0] == linkStateSummary
	l.From = r.string()
	if n := r.count(); n > 0 {
		l.LSAs = make([]LSA, n)
		for i := range l.LSAs {
			lsa := &l.LSAs[i]
			lsa.Origin, lsa.Seq = r.string(), r.uvarint()
			if n := r.count(); n > 0 {
				lsa.Prefixes = make([]netip.Prefix, 0, n)
				for ; n > 0 && r.err == nil; n-- {
					lsa.Prefixes = append(lsa.Prefixes, r.prefix())
				}
			}
			lsa.Neighbors = r.strings()
		}
	}
	if n := r.count(); n > 0 {
		l.Have = make([]LSAID, n)
		for i := range l.Have {
			l.Have[i] = LSAID{Origin: r.string(), Seq: r.uvarint()}
		}
	}
	l.Want = r.strings()
	if r.err == nil && len(r.data) > 0 {
		r.err = errLinkState
	}
	if r.err != nil {
		return LinkState{}, r.err
	}
	return l, nil
}

// lsReader consumes a link-state packet. After the first error every
// read returns a zero value, so a decode checks once at the end.
type lsReader struct {
	data []byte
	err  error
}

func (r *lsReader) fail() { r.err, r.data = errLinkState, nil }

func (r *lsReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.data)
	if n <= 0 {
		r.fail()
		return 0
	}
	r.data = r.data[n:]
	return v
}

// count reads a list length, refusing one the bytes left cannot hold
// (every item takes at least one byte), so a forged count allocates
// nothing.
func (r *lsReader) count() int {
	v := r.uvarint()
	if v > uint64(len(r.data)) {
		r.fail()
		return 0
	}
	return int(v)
}

func (r *lsReader) string() string {
	n := r.count()
	s := string(r.data[:n])
	r.data = r.data[n:]
	return s
}

func (r *lsReader) strings() []string {
	n := r.count()
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.string()
	}
	return out
}

func (r *lsReader) prefix() netip.Prefix {
	if len(r.data) < 5 || r.data[4] > 32 {
		r.fail()
		return netip.Prefix{}
	}
	p := netip.PrefixFrom(netip.AddrFrom4([4]byte(r.data[:4])), int(r.data[4]))
	r.data = r.data[5:]
	return p
}

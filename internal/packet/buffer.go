// Package packet implements byte-level codecs for the protocol headers the
// CONMan reproduction forwards through its simulated data plane: Ethernet,
// 802.1Q VLAN tags, ARP, IPv4, GRE (RFC 2784/2890), MPLS label stacks
// (RFC 3032) and UDP, plus a small probe payload used by module self-tests
// and the IGP's link-state packet (LinkState).
//
// The design follows the gopacket model: serialization PREPENDS each layer
// onto a buffer, treating the buffer's current contents as the layer's
// payload, so a full packet is built by serializing layers innermost-first
// (Serialize handles the ordering). Decoding walks outermost-in, each layer
// naming the decoder for its payload.
package packet

import "fmt"

// Buffer accumulates packet bytes with cheap prepends. The zero value is
// not usable; call NewBuffer.
type Buffer struct {
	data  []byte
	start int
}

// NewBuffer returns a buffer whose current contents are payload. The
// payload bytes are copied, with headroom reserved for headers.
func NewBuffer(payload []byte) *Buffer {
	const headroom = 128
	b := &Buffer{
		data:  make([]byte, headroom+len(payload)),
		start: headroom,
	}
	copy(b.data[headroom:], payload)
	return b
}

// Prepend makes room for n bytes at the front of the buffer and returns
// the slice to fill in.
func (b *Buffer) Prepend(n int) []byte {
	if n > b.start {
		grown := make([]byte, len(b.data)+n+128)
		shift := n + 128
		copy(grown[b.start+shift:], b.data[b.start:])
		b.data = grown
		b.start += shift
	}
	b.start -= n
	return b.data[b.start : b.start+n]
}

// Bytes returns the current contents (headers prepended so far followed by
// the payload). The slice aliases the buffer; callers that retain it across
// further prepends must copy.
func (b *Buffer) Bytes() []byte { return b.data[b.start:] }

// Len returns the current content length.
func (b *Buffer) Len() int { return len(b.data) - b.start }

// SerializableLayer is implemented by header types that can prepend
// themselves onto a buffer.
type SerializableLayer interface {
	// SerializeTo prepends the layer's wire form onto b. The buffer's
	// prior contents are the layer's payload (lengths and checksums are
	// computed from it).
	SerializeTo(b *Buffer) error
	// LayerType names the layer.
	LayerType() LayerType
}

// Serialize builds a packet from layers listed outermost-first followed by
// an optional raw payload, mirroring gopacket.SerializeLayers.
func Serialize(payload []byte, layers ...SerializableLayer) ([]byte, error) {
	b := NewBuffer(payload)
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b); err != nil {
			return nil, fmt.Errorf("packet: serialize %s: %w", layers[i].LayerType(), err)
		}
	}
	out := make([]byte, b.Len())
	copy(out, b.Bytes())
	return out, nil
}

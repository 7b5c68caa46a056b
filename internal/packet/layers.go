package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// LayerType identifies a decodable/serializable header type.
type LayerType uint8

const (
	LayerTypeEthernet LayerType = iota
	LayerTypeDot1Q
	LayerTypeARP
	LayerTypeIPv4
	LayerTypeGRE
	LayerTypeMPLS
	LayerTypeUDP
	LayerTypeProbe
	LayerTypePayload
)

var layerTypeNames = [...]string{
	"Ethernet", "Dot1Q", "ARP", "IPv4", "GRE", "MPLS", "UDP", "Probe", "Payload",
}

func (t LayerType) String() string {
	if int(t) < len(layerTypeNames) {
		return layerTypeNames[t]
	}
	return fmt.Sprintf("LayerType(%d)", uint8(t))
}

// EtherType is an Ethernet (or GRE protocol-type) value.
type EtherType uint16

const (
	EtherTypeIPv4  EtherType = 0x0800
	EtherTypeARP   EtherType = 0x0806
	EtherTypeDot1Q EtherType = 0x8100
	EtherTypeMPLS  EtherType = 0x8847
	// EtherTypeMgmt is the experimental EtherType the self-bootstrapping
	// management channel uses for its raw frames (paper §III-A).
	EtherTypeMgmt EtherType = 0x88B5
	// EtherTypeLinkState is the second IEEE local-experimental EtherType:
	// the link-local packets of the IGP control module (LinkState).
	EtherTypeLinkState EtherType = 0x88B6
	// EtherTypeTransparentBridging is the GRE protocol type for
	// bridged Ethernet payloads.
	EtherTypeTransparentBridging EtherType = 0x6558
)

func (t EtherType) String() string {
	switch t {
	case EtherTypeIPv4:
		return "IPv4"
	case EtherTypeARP:
		return "ARP"
	case EtherTypeDot1Q:
		return "802.1Q"
	case EtherTypeMPLS:
		return "MPLS"
	case EtherTypeMgmt:
		return "Mgmt"
	case EtherTypeLinkState:
		return "LinkState"
	case EtherTypeTransparentBridging:
		return "TEB"
	}
	return fmt.Sprintf("EtherType(0x%04x)", uint16(t))
}

// IPProto is an IPv4 protocol number.
type IPProto uint8

const (
	ProtoIPIP  IPProto = 4
	ProtoUDP   IPProto = 17
	ProtoGRE   IPProto = 47
	ProtoESP   IPProto = 50
	ProtoProbe IPProto = 253 // RFC 3692 experimental; used by self-tests
)

func (p IPProto) String() string {
	switch p {
	case ProtoIPIP:
		return "IPIP"
	case ProtoUDP:
		return "UDP"
	case ProtoGRE:
		return "GRE"
	case ProtoESP:
		return "ESP"
	case ProtoProbe:
		return "Probe"
	}
	return fmt.Sprintf("IPProto(%d)", uint8(p))
}

// MAC is a 48-bit Ethernet address.
type MAC [6]byte

// BroadcastMAC is ff:ff:ff:ff:ff:ff.
var BroadcastMAC = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsBroadcast reports whether the address is the broadcast address.
func (m MAC) IsBroadcast() bool { return m == BroadcastMAC }

// IsZero reports whether the address is all zeros.
func (m MAC) IsZero() bool { return m == MAC{} }

// ParseMAC parses the colon-separated form produced by MAC.String.
func ParseMAC(s string) (MAC, error) {
	var m MAC
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&m[0], &m[1], &m[2], &m[3], &m[4], &m[5])
	if err != nil || n != 6 {
		return MAC{}, fmt.Errorf("packet: bad MAC %q", s)
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Ethernet

// Ethernet is a DIX Ethernet II header.
type Ethernet struct {
	Dst, Src MAC
	Type     EtherType
}

const ethernetLen = 14

// LayerType implements SerializableLayer.
func (Ethernet) LayerType() LayerType { return LayerTypeEthernet }

// SerializeTo implements SerializableLayer.
func (e Ethernet) SerializeTo(b *Buffer) error {
	h := b.Prepend(ethernetLen)
	copy(h[0:6], e.Dst[:])
	copy(h[6:12], e.Src[:])
	binary.BigEndian.PutUint16(h[12:14], uint16(e.Type))
	return nil
}

// DecodeEthernet parses an Ethernet header, returning the header, the
// number of bytes consumed and the payload's layer type.
func DecodeEthernet(data []byte) (Ethernet, int, LayerType, error) {
	var e Ethernet
	if len(data) < ethernetLen {
		return e, 0, 0, errTruncated("Ethernet", ethernetLen, len(data))
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.Type = EtherType(binary.BigEndian.Uint16(data[12:14]))
	return e, ethernetLen, nextFromEtherType(e.Type), nil
}

func nextFromEtherType(t EtherType) LayerType {
	switch t {
	case EtherTypeIPv4:
		return LayerTypeIPv4
	case EtherTypeARP:
		return LayerTypeARP
	case EtherTypeDot1Q:
		return LayerTypeDot1Q
	case EtherTypeMPLS:
		return LayerTypeMPLS
	default:
		return LayerTypePayload
	}
}

// ---------------------------------------------------------------------------
// 802.1Q

// Dot1Q is an IEEE 802.1Q VLAN tag (the 4 bytes following the MAC
// addresses; Type is the encapsulated EtherType).
type Dot1Q struct {
	PCP  uint8  // priority code point (3 bits)
	DEI  bool   // drop eligible indicator
	VID  uint16 // VLAN identifier (12 bits)
	Type EtherType
}

const dot1qLen = 4

// LayerType implements SerializableLayer.
func (Dot1Q) LayerType() LayerType { return LayerTypeDot1Q }

// SerializeTo implements SerializableLayer.
func (q Dot1Q) SerializeTo(b *Buffer) error {
	if q.VID > 0x0fff {
		return fmt.Errorf("VID %d out of range", q.VID)
	}
	if q.PCP > 7 {
		return fmt.Errorf("PCP %d out of range", q.PCP)
	}
	h := b.Prepend(dot1qLen)
	tci := uint16(q.PCP)<<13 | uint16(q.VID)
	if q.DEI {
		tci |= 1 << 12
	}
	binary.BigEndian.PutUint16(h[0:2], tci)
	binary.BigEndian.PutUint16(h[2:4], uint16(q.Type))
	return nil
}

// DecodeDot1Q parses an 802.1Q tag.
func DecodeDot1Q(data []byte) (Dot1Q, int, LayerType, error) {
	var q Dot1Q
	if len(data) < dot1qLen {
		return q, 0, 0, errTruncated("Dot1Q", dot1qLen, len(data))
	}
	tci := binary.BigEndian.Uint16(data[0:2])
	q.PCP = uint8(tci >> 13)
	q.DEI = tci&(1<<12) != 0
	q.VID = tci & 0x0fff
	q.Type = EtherType(binary.BigEndian.Uint16(data[2:4]))
	return q, dot1qLen, nextFromEtherType(q.Type), nil
}

// ---------------------------------------------------------------------------
// ARP (IPv4 over Ethernet only)

// ARP operation codes.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an ARP packet for IPv4-over-Ethernet.
type ARP struct {
	Op        uint16
	SenderMAC MAC
	SenderIP  netip.Addr
	TargetMAC MAC
	TargetIP  netip.Addr
}

const arpLen = 28

// LayerType implements SerializableLayer.
func (ARP) LayerType() LayerType { return LayerTypeARP }

// SerializeTo implements SerializableLayer.
func (a ARP) SerializeTo(b *Buffer) error {
	if !a.SenderIP.Is4() || !a.TargetIP.Is4() {
		return errors.New("ARP addresses must be IPv4")
	}
	h := b.Prepend(arpLen)
	binary.BigEndian.PutUint16(h[0:2], 1)                     // htype: Ethernet
	binary.BigEndian.PutUint16(h[2:4], uint16(EtherTypeIPv4)) // ptype
	h[4] = 6                                                  // hlen
	h[5] = 4                                                  // plen
	binary.BigEndian.PutUint16(h[6:8], a.Op)
	copy(h[8:14], a.SenderMAC[:])
	s4 := a.SenderIP.As4()
	copy(h[14:18], s4[:])
	copy(h[18:24], a.TargetMAC[:])
	t4 := a.TargetIP.As4()
	copy(h[24:28], t4[:])
	return nil
}

// DecodeARP parses an ARP packet.
func DecodeARP(data []byte) (ARP, int, LayerType, error) {
	var a ARP
	if len(data) < arpLen {
		return a, 0, 0, errTruncated("ARP", arpLen, len(data))
	}
	if binary.BigEndian.Uint16(data[0:2]) != 1 ||
		EtherType(binary.BigEndian.Uint16(data[2:4])) != EtherTypeIPv4 ||
		data[4] != 6 || data[5] != 4 {
		return a, 0, 0, errors.New("packet: ARP: unsupported hardware/protocol types")
	}
	a.Op = binary.BigEndian.Uint16(data[6:8])
	copy(a.SenderMAC[:], data[8:14])
	a.SenderIP = netip.AddrFrom4([4]byte(data[14:18]))
	copy(a.TargetMAC[:], data[18:24])
	a.TargetIP = netip.AddrFrom4([4]byte(data[24:28]))
	return a, arpLen, LayerTypePayload, nil
}

// ---------------------------------------------------------------------------
// IPv4

// IPv4 is an IPv4 header without options.
type IPv4 struct {
	TOS      uint8
	ID       uint16
	DontFrag bool
	TTL      uint8
	Proto    IPProto
	Src, Dst netip.Addr
}

const ipv4Len = 20

// LayerType implements SerializableLayer.
func (IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// SerializeTo implements SerializableLayer.
func (ip IPv4) SerializeTo(b *Buffer) error {
	if !ip.Src.Is4() || !ip.Dst.Is4() {
		return errors.New("IPv4 addresses must be IPv4")
	}
	total := ipv4Len + b.Len()
	if total > 0xffff {
		return fmt.Errorf("IPv4 total length %d exceeds 65535", total)
	}
	h := b.Prepend(ipv4Len)
	h[0] = 0x45 // version 4, IHL 5
	h[1] = ip.TOS
	binary.BigEndian.PutUint16(h[2:4], uint16(total))
	binary.BigEndian.PutUint16(h[4:6], ip.ID)
	var flags uint16
	if ip.DontFrag {
		flags = 0x4000
	}
	binary.BigEndian.PutUint16(h[6:8], flags)
	h[8] = ip.TTL
	h[9] = uint8(ip.Proto)
	h[10], h[11] = 0, 0
	s4 := ip.Src.As4()
	copy(h[12:16], s4[:])
	d4 := ip.Dst.As4()
	copy(h[16:20], d4[:])
	csum := Checksum(h[:ipv4Len])
	binary.BigEndian.PutUint16(h[10:12], csum)
	return nil
}

// DecodeIPv4 parses an IPv4 header, validating version, length and header
// checksum.
func DecodeIPv4(data []byte) (IPv4, int, LayerType, error) {
	var ip IPv4
	if len(data) < ipv4Len {
		return ip, 0, 0, errTruncated("IPv4", ipv4Len, len(data))
	}
	if data[0]>>4 != 4 {
		return ip, 0, 0, fmt.Errorf("packet: IPv4: version %d", data[0]>>4)
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < ipv4Len || len(data) < ihl {
		return ip, 0, 0, fmt.Errorf("packet: IPv4: bad IHL %d", ihl)
	}
	total := int(binary.BigEndian.Uint16(data[2:4]))
	if total < ihl || total > len(data) {
		return ip, 0, 0, fmt.Errorf("packet: IPv4: total length %d vs %d available", total, len(data))
	}
	if Checksum(data[:ihl]) != 0 {
		return ip, 0, 0, errors.New("packet: IPv4: bad header checksum")
	}
	ip.TOS = data[1]
	ip.ID = binary.BigEndian.Uint16(data[4:6])
	ip.DontFrag = binary.BigEndian.Uint16(data[6:8])&0x4000 != 0
	ip.TTL = data[8]
	ip.Proto = IPProto(data[9])
	ip.Src = netip.AddrFrom4([4]byte(data[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(data[16:20]))
	return ip, ihl, nextFromIPProto(ip.Proto), nil
}

func nextFromIPProto(p IPProto) LayerType {
	switch p {
	case ProtoIPIP:
		return LayerTypeIPv4
	case ProtoUDP:
		return LayerTypeUDP
	case ProtoGRE:
		return LayerTypeGRE
	case ProtoProbe:
		return LayerTypeProbe
	default:
		return LayerTypePayload
	}
}

// Checksum computes the RFC 1071 Internet checksum over data. Computing it
// over a block that embeds a correct checksum yields zero.
func Checksum(data []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// ---------------------------------------------------------------------------
// GRE (RFC 2784 with the RFC 2890 key and sequence extensions)

// GRE is a GRE header. The Checksum/Key/Seq fields are present on the wire
// only when the corresponding *Present flag is set — exactly the icsum/
// okey/oseq knobs of the Linux "ip tunnel add" command the paper's GRE
// module wraps.
type GRE struct {
	ChecksumPresent bool
	KeyPresent      bool
	SeqPresent      bool
	Proto           EtherType
	Key             uint32
	Seq             uint32
}

func (g GRE) headerLen() int {
	n := 4
	if g.ChecksumPresent {
		n += 4
	}
	if g.KeyPresent {
		n += 4
	}
	if g.SeqPresent {
		n += 4
	}
	return n
}

// LayerType implements SerializableLayer.
func (GRE) LayerType() LayerType { return LayerTypeGRE }

// SerializeTo implements SerializableLayer.
func (g GRE) SerializeTo(b *Buffer) error {
	n := g.headerLen()
	h := b.Prepend(n)
	var flags uint16
	if g.ChecksumPresent {
		flags |= 0x8000
	}
	if g.KeyPresent {
		flags |= 0x2000
	}
	if g.SeqPresent {
		flags |= 0x1000
	}
	binary.BigEndian.PutUint16(h[0:2], flags)
	binary.BigEndian.PutUint16(h[2:4], uint16(g.Proto))
	off := 4
	if g.ChecksumPresent {
		// Checksum computed below over header+payload; zero for now.
		binary.BigEndian.PutUint32(h[off:off+4], 0)
		off += 4
	}
	if g.KeyPresent {
		binary.BigEndian.PutUint32(h[off:off+4], g.Key)
		off += 4
	}
	if g.SeqPresent {
		binary.BigEndian.PutUint32(h[off:off+4], g.Seq)
	}
	if g.ChecksumPresent {
		csum := Checksum(b.Bytes())
		binary.BigEndian.PutUint16(h[4:6], csum)
	}
	return nil
}

// DecodeGRE parses a GRE header, verifying the checksum when present.
func DecodeGRE(data []byte) (GRE, int, LayerType, error) {
	var g GRE
	if len(data) < 4 {
		return g, 0, 0, errTruncated("GRE", 4, len(data))
	}
	flags := binary.BigEndian.Uint16(data[0:2])
	if flags&0x0800 != 0 {
		return g, 0, 0, errors.New("packet: GRE: routing present not supported")
	}
	if ver := flags & 0x0007; ver != 0 {
		return g, 0, 0, fmt.Errorf("packet: GRE: version %d", ver)
	}
	g.ChecksumPresent = flags&0x8000 != 0
	g.KeyPresent = flags&0x2000 != 0
	g.SeqPresent = flags&0x1000 != 0
	g.Proto = EtherType(binary.BigEndian.Uint16(data[2:4]))
	n := g.headerLen()
	if len(data) < n {
		return g, 0, 0, errTruncated("GRE", n, len(data))
	}
	off := 4
	if g.ChecksumPresent {
		if Checksum(data) != 0 {
			return g, 0, 0, errors.New("packet: GRE: bad checksum")
		}
		off += 4
	}
	if g.KeyPresent {
		g.Key = binary.BigEndian.Uint32(data[off : off+4])
		off += 4
	}
	if g.SeqPresent {
		g.Seq = binary.BigEndian.Uint32(data[off : off+4])
	}
	return g, n, nextFromEtherType(g.Proto), nil
}

// ---------------------------------------------------------------------------
// MPLS (RFC 3032 label stack)

// MPLSEntry is one 32-bit MPLS label stack entry.
type MPLSEntry struct {
	Label uint32 // 20 bits
	TC    uint8  // 3 bits (traffic class, formerly EXP)
	S     bool   // bottom of stack
	TTL   uint8
}

// MPLS is a label stack (top first). On serialization the S bit is set
// automatically on the last entry.
type MPLS struct {
	Entries []MPLSEntry
}

// LayerType implements SerializableLayer.
func (MPLS) LayerType() LayerType { return LayerTypeMPLS }

// SerializeTo implements SerializableLayer.
func (m MPLS) SerializeTo(b *Buffer) error {
	if len(m.Entries) == 0 {
		return errors.New("MPLS: empty label stack")
	}
	h := b.Prepend(4 * len(m.Entries))
	for i, e := range m.Entries {
		if e.Label > 0xfffff {
			return fmt.Errorf("MPLS: label %d out of range", e.Label)
		}
		if e.TC > 7 {
			return fmt.Errorf("MPLS: TC %d out of range", e.TC)
		}
		v := e.Label<<12 | uint32(e.TC)<<9 | uint32(e.TTL)
		if i == len(m.Entries)-1 {
			v |= 1 << 8
		}
		binary.BigEndian.PutUint32(h[4*i:4*i+4], v)
	}
	return nil
}

// DecodeMPLS parses a label stack through the bottom-of-stack entry. The
// payload type is inferred from the first nibble of the payload (the same
// heuristic label-switching routers use): 4 ⇒ IPv4, otherwise opaque.
func DecodeMPLS(data []byte) (MPLS, int, LayerType, error) {
	var m MPLS
	off := 0
	for {
		if len(data) < off+4 {
			return m, 0, 0, errTruncated("MPLS", off+4, len(data))
		}
		v := binary.BigEndian.Uint32(data[off : off+4])
		e := MPLSEntry{
			Label: v >> 12,
			TC:    uint8(v >> 9 & 0x7),
			S:     v&(1<<8) != 0,
			TTL:   uint8(v),
		}
		m.Entries = append(m.Entries, e)
		off += 4
		if e.S {
			break
		}
	}
	next := LayerTypePayload
	if len(data) > off && data[off]>>4 == 4 {
		next = LayerTypeIPv4
	}
	return m, off, next, nil
}

// ---------------------------------------------------------------------------
// UDP

// UDP is a UDP header. The checksum is computed over the IPv4
// pseudo-header when SerializeTo can see the enclosing addresses; since
// the prepend model serializes UDP before IPv4, we follow common simulator
// practice and emit checksum 0 ("no checksum", legal for UDP over IPv4).
type UDP struct {
	Src, Dst uint16
}

const udpLen = 8

// LayerType implements SerializableLayer.
func (UDP) LayerType() LayerType { return LayerTypeUDP }

// SerializeTo implements SerializableLayer.
func (u UDP) SerializeTo(b *Buffer) error {
	total := udpLen + b.Len()
	if total > 0xffff {
		return fmt.Errorf("UDP length %d exceeds 65535", total)
	}
	h := b.Prepend(udpLen)
	binary.BigEndian.PutUint16(h[0:2], u.Src)
	binary.BigEndian.PutUint16(h[2:4], u.Dst)
	binary.BigEndian.PutUint16(h[4:6], uint16(total))
	binary.BigEndian.PutUint16(h[6:8], 0)
	return nil
}

// DecodeUDP parses a UDP header.
func DecodeUDP(data []byte) (UDP, int, LayerType, error) {
	var u UDP
	if len(data) < udpLen {
		return u, 0, 0, errTruncated("UDP", udpLen, len(data))
	}
	u.Src = binary.BigEndian.Uint16(data[0:2])
	u.Dst = binary.BigEndian.Uint16(data[2:4])
	if l := int(binary.BigEndian.Uint16(data[4:6])); l < udpLen || l > len(data) {
		return u, 0, 0, fmt.Errorf("packet: UDP: bad length %d", l)
	}
	return u, udpLen, LayerTypePayload, nil
}

// ---------------------------------------------------------------------------
// Probe (module self-test payload, paper §II-D.2)

// Probe operation codes.
const (
	ProbeEcho  uint8 = 1
	ProbeReply uint8 = 2
)

// Probe is the tiny echo/reply payload protocol modules use for data-plane
// self-tests. It rides directly over IPv4 as IPProto 253.
type Probe struct {
	Op    uint8
	Token uint32 // correlates replies with requests
}

const probeLen = 8

// LayerType implements SerializableLayer.
func (Probe) LayerType() LayerType { return LayerTypeProbe }

// SerializeTo implements SerializableLayer.
func (p Probe) SerializeTo(b *Buffer) error {
	h := b.Prepend(probeLen)
	h[0] = p.Op
	h[1], h[2], h[3] = 0, 0, 0
	binary.BigEndian.PutUint32(h[4:8], p.Token)
	return nil
}

// DecodeProbe parses a probe payload.
func DecodeProbe(data []byte) (Probe, int, LayerType, error) {
	var p Probe
	if len(data) < probeLen {
		return p, 0, 0, errTruncated("Probe", probeLen, len(data))
	}
	p.Op = data[0]
	p.Token = binary.BigEndian.Uint32(data[4:8])
	return p, probeLen, LayerTypePayload, nil
}

func errTruncated(layer string, want, have int) error {
	return fmt.Errorf("packet: %s: truncated (want %d bytes, have %d)", layer, want, have)
}

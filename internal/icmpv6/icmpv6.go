// Package icmpv6 implements the ICMPv6 messages the system needs: the
// Multicast Listener Discovery messages of RFC 2710 (Query, Report, Done)
// and the Neighbor Discovery router discovery messages of RFC 2461 (Router
// Solicitation, Router Advertisement with Prefix Information options), which
// provide the substrate for stateless address autoconfiguration and Mobile
// IPv6 movement detection.
//
// All messages are real wire codecs carrying a valid RFC 2460 upper-layer
// checksum computed under the IPv6 pseudo-header.
package icmpv6

import (
	"encoding/binary"
	"fmt"
	"time"

	"mip6mcast/internal/ipv6"
)

// ICMPv6 message types used by the system.
const (
	TypePacketTooBig  uint8 = 2
	TypeRouterSolicit uint8 = 133
	TypeRouterAdvert  uint8 = 134
	TypeMLDQuery      uint8 = 130
	TypeMLDReport     uint8 = 131
	TypeMLDDone       uint8 = 132
)

// HeaderLen is the fixed part of every ICMPv6 message: type, code, checksum.
const HeaderLen = 4

// Message is any ICMPv6 message that can render itself to wire format.
type Message interface {
	// Type returns the ICMPv6 type code.
	Type() uint8
	// body renders everything after the 4-byte ICMPv6 header.
	body() []byte
}

// Marshal encodes msg with a valid checksum computed under the pseudo-header
// (src, dst).
func Marshal(src, dst ipv6.Addr, msg Message) []byte {
	b := make([]byte, HeaderLen)
	b[0] = msg.Type()
	b = append(b, msg.body()...)
	ck := ipv6.Checksum(src, dst, ipv6.ProtoICMPv6, b)
	binary.BigEndian.PutUint16(b[2:4], ck)
	return b
}

// PeekType returns the type byte of an encoded ICMPv6 message without
// parsing or checksum-verifying it, or 0 (a reserved type) when b is
// empty. Receivers that handle only some types use it to skip a full
// Parse of the rest.
func PeekType(b []byte) uint8 {
	if len(b) == 0 {
		return 0
	}
	return b[0]
}

// Parse decodes and checksum-verifies an ICMPv6 message received under the
// pseudo-header (src, dst). Unknown types return an error.
func Parse(src, dst ipv6.Addr, b []byte) (Message, error) {
	if len(b) < HeaderLen {
		return nil, fmt.Errorf("icmpv6: truncated: %d bytes", len(b))
	}
	if !ipv6.VerifyChecksum(src, dst, ipv6.ProtoICMPv6, b) {
		return nil, fmt.Errorf("icmpv6: checksum mismatch")
	}
	body := b[HeaderLen:]
	switch b[0] {
	case TypeMLDQuery, TypeMLDReport, TypeMLDDone:
		return parseMLD(b[0], body)
	case TypeRouterSolicit:
		return parseRouterSolicit(body)
	case TypeRouterAdvert:
		return parseRouterAdvert(body)
	case TypePacketTooBig:
		return parsePacketTooBig(body)
	default:
		return nil, fmt.Errorf("icmpv6: unsupported type %d", b[0])
	}
}

// PacketTooBig is the ICMPv6 error (RFC 2463 §3.2) a router sends when it
// cannot forward a packet because it exceeds the next link's MTU. It
// drives path-MTU discovery: the source learns the bottleneck and
// fragments accordingly — for tunnels, the tunnel entry point does
// (RFC 2473 §6.4).
type PacketTooBig struct {
	// MTU of the constricting link.
	MTU uint32
	// Invoking holds as much of the dropped packet as fits (at least the
	// 40-byte header, so the source can identify the destination).
	Invoking []byte
}

// Type implements Message.
func (*PacketTooBig) Type() uint8 { return TypePacketTooBig }

// maxInvoking bounds the echoed portion so the error itself stays small.
const maxInvoking = 128

func (p *PacketTooBig) body() []byte {
	b := make([]byte, 4)
	binary.BigEndian.PutUint32(b, p.MTU)
	inv := p.Invoking
	if len(inv) > maxInvoking {
		inv = inv[:maxInvoking]
	}
	return append(b, inv...)
}

func parsePacketTooBig(body []byte) (*PacketTooBig, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("icmpv6: packet-too-big truncated")
	}
	return &PacketTooBig{
		MTU:      binary.BigEndian.Uint32(body[0:4]),
		Invoking: append([]byte(nil), body[4:]...),
	}, nil
}

// MLD is a Multicast Listener Discovery message (RFC 2710 §3). The Kind
// distinguishes Query (130), Report (131) and Done (132).
//
// Wire layout after the ICMPv6 header: Maximum Response Delay (2 bytes,
// milliseconds; meaningful only in Queries), Reserved (2), Multicast
// Address (16).
type MLD struct {
	Kind uint8
	// MaxResponseDelay is the longest a listener may wait before reporting.
	// Only Queries carry a non-zero value.
	MaxResponseDelay time.Duration
	// MulticastAddress is the group being queried/reported/left. The
	// unspecified address in a Query makes it a General Query.
	MulticastAddress ipv6.Addr
}

// Type implements Message.
func (m *MLD) Type() uint8 { return m.Kind }

func (m *MLD) body() []byte {
	b := make([]byte, 20)
	ms := m.MaxResponseDelay.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > 0xffff {
		ms = 0xffff
	}
	binary.BigEndian.PutUint16(b[0:2], uint16(ms))
	copy(b[4:20], m.MulticastAddress[:])
	return b
}

// IsGeneralQuery reports whether m is a General Query (a Query for the
// unspecified address, soliciting reports for all groups).
func (m *MLD) IsGeneralQuery() bool {
	return m.Kind == TypeMLDQuery && m.MulticastAddress.IsUnspecified()
}

func parseMLD(kind uint8, body []byte) (*MLD, error) {
	if len(body) != 20 {
		return nil, fmt.Errorf("icmpv6: MLD body is %d bytes, want 20", len(body))
	}
	m := &MLD{
		Kind:             kind,
		MaxResponseDelay: time.Duration(binary.BigEndian.Uint16(body[0:2])) * time.Millisecond,
	}
	copy(m.MulticastAddress[:], body[4:20])
	if kind != TypeMLDQuery && m.MulticastAddress.IsUnspecified() {
		return nil, fmt.Errorf("icmpv6: MLD %d for unspecified address", kind)
	}
	if !m.MulticastAddress.IsUnspecified() && !m.MulticastAddress.IsMulticast() {
		return nil, fmt.Errorf("icmpv6: MLD address %s is not multicast", m.MulticastAddress)
	}
	return m, nil
}

// RouterSolicit is an NDP Router Solicitation (RFC 2461 §4.1). Hosts send it
// on attaching to a link to trigger an immediate Router Advertisement — this
// is how a mobile node learns its new prefix quickly after movement.
type RouterSolicit struct{}

// Type implements Message.
func (*RouterSolicit) Type() uint8 { return TypeRouterSolicit }

func (*RouterSolicit) body() []byte { return make([]byte, 4) } // reserved

func parseRouterSolicit(body []byte) (*RouterSolicit, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("icmpv6: router solicitation truncated")
	}
	return &RouterSolicit{}, nil
}

// PrefixInfo is the NDP Prefix Information option (RFC 2461 §4.6.2) carried
// in Router Advertisements; hosts use on-link /64 prefixes with the A flag
// for stateless address autoconfiguration (RFC 2462).
type PrefixInfo struct {
	PrefixLen         uint8
	OnLink            bool // L flag
	Autonomous        bool // A flag: usable for SLAAC
	ValidLifetime     time.Duration
	PreferredLifetime time.Duration
	Prefix            ipv6.Addr
}

// RouterAdvert is an NDP Router Advertisement (RFC 2461 §4.2).
type RouterAdvert struct {
	CurHopLimit    uint8
	Managed, Other bool // M and O flags
	RouterLifetime time.Duration
	Prefixes       []PrefixInfo
}

// Type implements Message.
func (*RouterAdvert) Type() uint8 { return TypeRouterAdvert }

const optPrefixInfo = 3

func (r *RouterAdvert) body() []byte {
	b := make([]byte, 12)
	b[0] = r.CurHopLimit
	if r.Managed {
		b[1] |= 0x80
	}
	if r.Other {
		b[1] |= 0x40
	}
	secs := r.RouterLifetime / time.Second
	if secs > 0xffff {
		secs = 0xffff
	}
	binary.BigEndian.PutUint16(b[2:4], uint16(secs))
	// Reachable Time and Retrans Timer left zero (unspecified).
	for _, p := range r.Prefixes {
		opt := make([]byte, 32)
		opt[0] = optPrefixInfo
		opt[1] = 4 // length in 8-octet units
		opt[2] = p.PrefixLen
		if p.OnLink {
			opt[3] |= 0x80
		}
		if p.Autonomous {
			opt[3] |= 0x40
		}
		binary.BigEndian.PutUint32(opt[4:8], lifetimeSecs(p.ValidLifetime))
		binary.BigEndian.PutUint32(opt[8:12], lifetimeSecs(p.PreferredLifetime))
		copy(opt[16:32], p.Prefix[:])
		b = append(b, opt...)
	}
	return b
}

func lifetimeSecs(d time.Duration) uint32 {
	s := d / time.Second
	if s < 0 {
		return 0
	}
	if s > 0xffffffff {
		return 0xffffffff
	}
	return uint32(s)
}

func parseRouterAdvert(body []byte) (*RouterAdvert, error) {
	if len(body) < 12 {
		return nil, fmt.Errorf("icmpv6: router advertisement truncated")
	}
	r := &RouterAdvert{
		CurHopLimit:    body[0],
		Managed:        body[1]&0x80 != 0,
		Other:          body[1]&0x40 != 0,
		RouterLifetime: time.Duration(binary.BigEndian.Uint16(body[2:4])) * time.Second,
	}
	opts := body[12:]
	for len(opts) > 0 {
		if len(opts) < 2 || opts[1] == 0 {
			return nil, fmt.Errorf("icmpv6: malformed NDP option")
		}
		l := int(opts[1]) * 8
		if len(opts) < l {
			return nil, fmt.Errorf("icmpv6: NDP option overruns message")
		}
		if opts[0] == optPrefixInfo {
			if l != 32 {
				return nil, fmt.Errorf("icmpv6: prefix info option is %d bytes, want 32", l)
			}
			p := PrefixInfo{
				PrefixLen:         opts[2],
				OnLink:            opts[3]&0x80 != 0,
				Autonomous:        opts[3]&0x40 != 0,
				ValidLifetime:     time.Duration(binary.BigEndian.Uint32(opts[4:8])) * time.Second,
				PreferredLifetime: time.Duration(binary.BigEndian.Uint32(opts[8:12])) * time.Second,
			}
			copy(p.Prefix[:], opts[16:32])
			if p.PrefixLen > 128 {
				return nil, fmt.Errorf("icmpv6: prefix length %d", p.PrefixLen)
			}
			r.Prefixes = append(r.Prefixes, p)
		}
		// Unknown options are skipped per RFC 2461 §4.6.
		opts = opts[l:]
	}
	return r, nil
}

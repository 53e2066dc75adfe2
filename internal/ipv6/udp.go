package ipv6

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the size of a UDP header.
const UDPHeaderLen = 8

// UDP is a UDP datagram (RFC 768 over IPv6 per RFC 2460 §8.1: checksum
// mandatory). Multicast application traffic in the simulator is UDP.
//
// A UDP returned by ParseUDP aliases the bytes it was parsed from: on the
// receive path Payload points into the shared, immutable packet every
// receiver of a transmission sees. Callers may read and retain it but
// must copy before mutating.
type UDP struct {
	SrcPort, DstPort uint16
	Payload          []byte
}

// Marshal encodes the datagram with a valid checksum computed under the
// given pseudo-header addresses.
func (u *UDP) Marshal(src, dst Addr) []byte {
	n := UDPHeaderLen + len(u.Payload)
	b := make([]byte, n)
	binary.BigEndian.PutUint16(b[0:2], u.SrcPort)
	binary.BigEndian.PutUint16(b[2:4], u.DstPort)
	binary.BigEndian.PutUint16(b[4:6], uint16(n))
	copy(b[8:], u.Payload)
	ck := Checksum(src, dst, ProtoUDP, b)
	if ck == 0 {
		ck = 0xffff // RFC 768: transmitted zero means "no checksum"
	}
	binary.BigEndian.PutUint16(b[6:8], ck)
	return b
}

// ParseUDP decodes and checksum-verifies a UDP datagram. The returned
// Payload aliases b (capacity bounded, so an append never writes into b);
// it is valid as long as b is.
func ParseUDP(src, dst Addr, b []byte) (*UDP, error) {
	if len(b) < UDPHeaderLen {
		return nil, fmt.Errorf("ipv6: udp truncated: %d bytes", len(b))
	}
	l := int(binary.BigEndian.Uint16(b[4:6]))
	if l != len(b) {
		return nil, fmt.Errorf("ipv6: udp length %d, frame %d", l, len(b))
	}
	if binary.BigEndian.Uint16(b[6:8]) == 0 {
		return nil, fmt.Errorf("ipv6: udp zero checksum forbidden over IPv6")
	}
	if !VerifyChecksum(src, dst, ProtoUDP, b) {
		return nil, fmt.Errorf("ipv6: udp checksum mismatch")
	}
	u := &UDP{
		SrcPort: binary.BigEndian.Uint16(b[0:2]),
		DstPort: binary.BigEndian.Uint16(b[2:4]),
		Payload: b[UDPHeaderLen:len(b):len(b)],
	}
	return u, nil
}

//go:build !race

// Allocation budget for tunnel encapsulation, the per-packet cost every
// reverse-tunneled multicast datagram pays twice (encap at the mobile node,
// decap+re-encap paths at the home agent). Excluded under -race; see
// scripts/check.sh for the non-race pass.

package ipv6

import "testing"

// tunnelEncapAllocBudget is the measured cost (one encode buffer + one
// outer Packet) plus headroom of one. Raise only with a benchmark showing
// why the extra allocation is unavoidable.
const tunnelEncapAllocBudget = 3

func TestTunnelEncapAllocBudget(t *testing.T) {
	inner := &Packet{
		Hdr:     Header{Src: MustParseAddr("2001:db8::1"), Dst: MustParseAddr("ff0e::7"), HopLimit: 64},
		Proto:   ProtoUDP,
		Payload: make([]byte, 256),
	}
	src := MustParseAddr("2001:db8:1::1")
	dst := MustParseAddr("2001:db8:2::1")
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := Encapsulate(src, dst, 64, inner); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > tunnelEncapAllocBudget {
		t.Errorf("Encapsulate allocates %v objects/op; budget %d", allocs, tunnelEncapAllocBudget)
	}
}

// TestParseUDPAllocBudget pins the zero-copy receive: ParseUDP allocates
// only the *UDP header and its Payload aliases the datagram (capacity
// bounded, so an append cannot write into the shared packet).
func TestParseUDPAllocBudget(t *testing.T) {
	src := MustParseAddr("2001:db8::1")
	dst := MustParseAddr("ff0e::7")
	b := (&UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 256)}).Marshal(src, dst)
	var u *UDP
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if u, err = ParseUDP(src, dst, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("ParseUDP allocates %v objects/op; budget 1 (payload copy regression?)", allocs)
	}
	if &u.Payload[0] != &b[UDPHeaderLen] || cap(u.Payload) != len(u.Payload) {
		t.Error("ParseUDP payload does not alias the datagram with a bounded capacity")
	}
}

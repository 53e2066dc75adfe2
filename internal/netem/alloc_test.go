//go:build !race

// Allocation budget for the link data plane's fan-out path. Excluded under
// -race (instrumented allocation counts differ); scripts/check.sh runs these
// in a separate non-race pass.

package netem

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// fanoutAllocBudget bounds one multicast transmission delivered to 16
// receivers, steady state: the shared decode (packet + payload) and one
// *ipv6.UDP header per receiver. Delivery records and events come from
// warm pools and the UDP payload aliases the shared packet. Measured 18;
// the budget adds 2 of headroom, so a per-receiver closure, payload copy
// or decode regression (16+ more) fails it.
const fanoutAllocBudget = 20

func TestFanoutDeliveryAllocBudget(t *testing.T) {
	s := sim.NewScheduler(1)
	net := New(s)
	link := net.NewLink("l", 0, time.Microsecond)
	src := net.NewNode("src", false)
	isrc := src.AddInterface(link)
	sA := ipv6.MustParseAddr("2001:db8:1::1")
	isrc.AddAddr(sA)
	g := ipv6.MustParseAddr("ff0e::7")
	const members = 16
	got := 0
	for i := 0; i < members; i++ {
		m := net.NewNode("m", false)
		im := m.AddInterface(link)
		im.JoinGroup(g)
		m.BindUDP(9, func(RxPacket, *ipv6.UDP) { got++ })
	}
	u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 256)}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: sA, Dst: g, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(sA, g),
	}
	// Warm the frame-buffer and event pools.
	for i := 0; i < 8; i++ {
		_ = src.OutputOn(isrc, pkt)
		s.Run()
	}
	rounds := 0
	allocs := testing.AllocsPerRun(200, func() {
		_ = src.OutputOn(isrc, pkt)
		s.Run()
		rounds++
	})
	if want := (rounds + 8) * members; got != want {
		t.Fatalf("delivered %d datagrams, want %d", got, want)
	}
	t.Logf("fan-out round: %v allocs (budget %d)", allocs, fanoutAllocBudget)
	if allocs > fanoutAllocBudget {
		t.Errorf("fan-out round allocates %v objects; budget %d (per-receiver closure, copy or decode regression?)", allocs, fanoutAllocBudget)
	}
}

package mipv6

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

var fanoutGroup = ipv6.MustParseAddr("ff0e::101")

// newFanoutHA builds a home agent on home link L1 whose n bindings point at
// care-of addresses on foreign link L2; none subscribes to a group.
func newFanoutHA(n int) *HomeAgent {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	l1 := net.NewLink("L1", 0, time.Millisecond)
	l2 := net.NewLink("L2", 0, time.Millisecond)
	r := net.NewNode("R1", true)
	home := r.AddInterface(l1)
	haAddr := ipv6.MustParseAddr("2001:db8:1::1")
	home.AddAddr(haAddr)
	r.AddInterface(l2).AddAddr(ipv6.MustParseAddr("2001:db8:2::1"))
	ha := NewHomeAgent(r, home, haAddr, DefaultHAConfig())
	for i := n; i > 0; i-- {
		ha.ImportBinding(fanoutHome(i), ipv6.MustParseAddr(fmt.Sprintf("2001:db8:2::%x", 0x100+i)), 1, nil, time.Minute)
	}
	return ha
}

func fanoutHome(i int) ipv6.Addr { return ipv6.MustParseAddr(fmt.Sprintf("2001:db8:1::%x", 0x100+i)) }

func fanoutPacket() *ipv6.Packet {
	return &ipv6.Packet{
		Hdr:     ipv6.Header{Src: ipv6.MustParseAddr("2001:db8:3::5"), Dst: fanoutGroup, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: make([]byte, 64),
	}
}

// The cached fan-out order must follow every change to the cache's
// membership: a new subscriber is served at once, a removed one never
// again, and the order stays sorted by home address.
func TestFanOutFollowsBindingChanges(t *testing.T) {
	ha := newFanoutHA(8)
	pkt := fanoutPacket()
	ha.fanOutToBindings(pkt, ipv6.Addr{})
	if ha.MulticastTunneled != 0 {
		t.Fatalf("tunneled %d datagrams with no subscriber", ha.MulticastTunneled)
	}
	ha.ImportBinding(fanoutHome(20), ipv6.MustParseAddr("2001:db8:2::99"), 1, []ipv6.Addr{fanoutGroup}, time.Minute)
	ha.fanOutToBindings(pkt, ipv6.Addr{})
	if ha.MulticastTunneled != 1 {
		t.Fatalf("new subscriber got %d datagrams, want 1", ha.MulticastTunneled)
	}
	ha.fanOutToBindings(pkt, fanoutHome(20))
	if ha.MulticastTunneled != 1 {
		t.Fatal("fan-out served the excepted home address")
	}
	ha.removeBinding(fanoutHome(20))
	ha.fanOutToBindings(pkt, ipv6.Addr{})
	if ha.MulticastTunneled != 1 {
		t.Fatal("removed binding still served")
	}
	bs := ha.Bindings()
	if len(bs) != 8 {
		t.Fatalf("Bindings() = %d entries, want 8", len(bs))
	}
	for i := 1; i < len(bs); i++ {
		if !bs[i-1].Home.Less(bs[i].Home) {
			t.Fatalf("bindings out of home-address order at %d", i)
		}
	}
	bs[0] = nil // the caller owns Bindings' slice
	if ha.sortedBindings()[0] == nil {
		t.Fatal("Bindings() handed out the cached fan-out order")
	}
	ha.Close()
	if len(ha.sortedBindings()) != 0 {
		t.Fatal("Close left a cached fan-out order")
	}
}

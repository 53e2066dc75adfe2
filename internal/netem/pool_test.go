package netem

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/sim"
)

// checkPools fails if any pooled delivery record still references a
// receiver, link or frame: a record must be wiped before it is recycled.
func checkPools(t *testing.T, net *Network) {
	t.Helper()
	for r, p := range net.pools {
		if len(p.deliveries) > maxPooledDeliveries {
			t.Errorf("region %d pools %d delivery records, cap %d", r, len(p.deliveries), maxPooledDeliveries)
		}
		for _, d := range p.deliveries {
			if d.ifc != nil || d.home != nil || d.pkt != nil || d.raw != nil || d.unicast {
				t.Fatalf("region %d pooled a live delivery record: %+v", r, *d)
			}
		}
	}
}

// A frame in flight toward an interface that goes down or moves away
// before arrival is dropped, and its record still returns to the pool.
func TestInFlightDeliveryToChangedReceiverDropped(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(net *Network, im *Interface, other *Link)
		want   int
	}{
		{"down", func(_ *Network, im *Interface, _ *Link) { im.SetUp(false) }, 0},
		{"moved", func(net *Network, im *Interface, other *Link) { net.Move(im, other) }, 0},
		{"moved-away-and-back", func(net *Network, im *Interface, other *Link) {
			home := im.Link
			net.Move(im, other)
			net.Move(im, home)
		}, 1}, // attached to the same link at arrival: delivered
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, net := testNet()
			l1 := net.NewLink("l1", 0, 50*time.Millisecond)
			l2 := net.NewLink("l2", 0, 0)
			src := net.NewNode("src", false)
			m := net.NewNode("m", false)
			isrc := src.AddInterface(l1)
			im := m.AddInterface(l1)
			sA := ipv6.MustParseAddr("2001:db8:1::1")
			mA := ipv6.MustParseAddr("2001:db8:1::2")
			isrc.AddAddr(sA)
			im.AddAddr(mA)
			got := 0
			m.BindUDP(9, func(RxPacket, *ipv6.UDP) { got++ })

			_ = src.OutputOn(isrc, udpTo(sA, mA, 9, "in flight"))
			s.Schedule(10*time.Millisecond, func() { tc.change(net, im, l2) })
			s.Run()
			if got != tc.want {
				t.Fatalf("delivered %d frames, want %d", got, tc.want)
			}
			if n := len(net.pools[0].deliveries); n != 1 {
				t.Fatalf("pool holds %d records after one delivery, want 1", n)
			}
			checkPools(t, net)
		})
	}
}

// A recycled delivery record carries only its new frame: every receiver
// sees each datagram exactly once, in order, however often the records
// are reused.
func TestRecycledDeliveryNeverRedeliversStalePacket(t *testing.T) {
	s, net := testNet()
	link := net.NewLink("l", 0, time.Millisecond)
	src := net.NewNode("src", false)
	isrc := src.AddInterface(link)
	sA := ipv6.MustParseAddr("2001:db8:1::1")
	isrc.AddAddr(sA)
	g := ipv6.MustParseAddr("ff0e::7")
	const members = 3
	logs := make([][]string, members)
	for i := range logs {
		i := i
		m := net.NewNode(fmt.Sprintf("m%d", i), false)
		m.AddInterface(link).JoinGroup(g)
		m.BindUDP(9, func(_ RxPacket, u *ipv6.UDP) { logs[i] = append(logs[i], string(u.Payload)) })
	}
	const rounds = 20
	for r := 0; r < rounds; r++ {
		// Two frames per round share the instant's records; the next
		// round reuses them.
		_ = src.OutputOn(isrc, udpTo(sA, g, 9, fmt.Sprintf("a%d", r)))
		_ = src.OutputOn(isrc, udpTo(sA, g, 9, fmt.Sprintf("b%d", r)))
		s.Run()
		checkPools(t, net)
	}
	if n := len(net.pools[0].deliveries); n != 2*members {
		t.Fatalf("pool holds %d records, want %d (records are not being reused)", n, 2*members)
	}
	for i, log := range logs {
		if len(log) != 2*rounds {
			t.Fatalf("member %d received %d datagrams, want %d", i, len(log), 2*rounds)
		}
		for r := 0; r < rounds; r++ {
			if log[2*r] != fmt.Sprintf("a%d", r) || log[2*r+1] != fmt.Sprintf("b%d", r) {
				t.Fatalf("member %d round %d received %q, %q", i, r, log[2*r], log[2*r+1])
			}
		}
	}
}

// Delivery records cross regions with the frames they carry: taken from
// the sender's pool, returned to the receiver's. Under -race this shows no
// pool is touched by two region goroutines; a one-way flood shows the
// receiving pool stays capped however unbalanced the traffic.
func TestDeliveryRecordsCrossRegions(t *testing.T) {
	k, net, a, b, _ := xregionNet(2)
	aAddr := ipv6.MustParseAddr("2001:db8:1::a")
	bAddr := ipv6.MustParseAddr("2001:db8:1::b")
	gotA, gotB := 0, 0
	a.BindUDP(9, func(RxPacket, *ipv6.UDP) { gotA++ })
	b.BindUDP(9, func(RxPacket, *ipv6.UDP) { gotB++ })

	// Both directions at once: each region sends from its own pool while
	// the other returns records into it.
	const both = 500
	for i := 0; i < both; i++ {
		a.Sched().Schedule(time.Duration(i)*time.Millisecond, func() {
			_ = a.OutputOn(a.Ifaces[0], udpTo(aAddr, bAddr, 9, "ab"))
		})
		b.Sched().Schedule(time.Duration(i)*time.Millisecond, func() {
			_ = b.OutputOn(b.Ifaces[0], udpTo(bAddr, aAddr, 9, "ba"))
		})
	}
	k.RunUntil(sim.Time(time.Second))
	if gotA != both || gotB != both {
		t.Fatalf("delivered %d/%d, want %d each way", gotA, gotB, both)
	}
	checkPools(t, net)

	// One way only, more frames than a pool may hold: every record ends up
	// in b's region, which keeps at most the cap.
	flood := maxPooledDeliveries + 100
	a.Sched().Schedule(0, func() {
		for i := 0; i < flood; i++ {
			_ = a.OutputOn(a.Ifaces[0], udpTo(aAddr, bAddr, 9, "flood"))
		}
	})
	k.RunUntil(sim.Time(2 * time.Second))
	if gotB != both+flood {
		t.Fatalf("flood delivered %d, want %d", gotB-both, flood)
	}
	if n := len(net.pools[1].deliveries); n != maxPooledDeliveries {
		t.Fatalf("receiving region pools %d records after a one-way flood, want the cap %d", n, maxPooledDeliveries)
	}
	checkPools(t, net)
}

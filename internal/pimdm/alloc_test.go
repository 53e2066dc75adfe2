//go:build !race

// Allocation budget for PIM-DM data forwarding. Excluded under -race
// (instrumented allocation counts differ); scripts/check.sh runs these in a
// separate non-race pass.

package pimdm_test

import (
	"fmt"
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/routing"
	"mip6mcast/internal/sim"
)

// TestForwardAllocBudget pins the shallow forwarding copy: a datagram
// replicated onto every downstream interface costs one packet header copy
// plus, per outgoing interface, only the link's shared decode (packet +
// payload). Cloning the packet per interface, as forwarding once did, adds
// a header and a payload copy for each.
func TestForwardAllocBudget(t *testing.T) {
	const downstream = 4
	s := sim.NewScheduler(1)
	net := netem.New(s)
	dom := routing.NewDomain(net)
	r := net.NewNode("R", true)
	var ifaces []*netem.Interface
	for i := 0; i <= downstream; i++ {
		l := net.NewLink(fmt.Sprintf("L%d", i), 0, time.Millisecond)
		prefix := ipv6.MustParseAddr(fmt.Sprintf("2001:db8:%d::", i+1))
		dom.AssignPrefix(l, prefix)
		ifc := r.AddInterface(l)
		ifc.AddAddr(prefix.WithInterfaceID(1))
		ifaces = append(ifaces, ifc)
	}
	dom.Recompute()
	eng := pimdm.New(r, pimdm.DefaultConfig(), dom.TableOf(r))
	for _, ifc := range ifaces[1:] {
		eng.HandleListenerChange(ifc, group, true)
	}
	u := &ipv6.UDP{SrcPort: 9, DstPort: 9, Payload: make([]byte, 256)}
	src := ipv6.MustParseAddr("2001:db8:1::5")
	rx := netem.RxPacket{Iface: ifaces[0], LocalDst: true, Pkt: &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: group, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, group),
	}}
	eng.ForwardMulticast(rx)
	// Each datagram re-arms the (S,G) expiry timer; canceled expiries stay
	// queued until their time, so pre-fill the event free list.
	for i := 0; i < 2000; i++ {
		s.Schedule(0, func() {})
	}
	s.RunUntil(s.Now())

	before := eng.Stats.DataForwarded
	allocs := testing.AllocsPerRun(500, func() { eng.ForwardMulticast(rx) })
	if got := eng.Stats.DataForwarded - before; got != 501*downstream {
		t.Fatalf("forwarded %d copies, want %d", got, 501*downstream)
	}
	budget := float64(1 + 2*downstream)
	t.Logf("forward onto %d interfaces: %v allocs (budget %v)", downstream, allocs, budget)
	if allocs > budget {
		t.Errorf("forwarding allocates %v objects per datagram; budget %v (per-interface copy regression?)", allocs, budget)
	}
}

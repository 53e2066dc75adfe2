package core_test

import (
	"testing"
	"time"

	"mip6mcast/internal/core"
	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// Multi-group signaling must not follow map iteration order: the tunneled
// Reports a mobile node sends when it registers from a foreign link go out
// in ascending group order, so a fixed seed reproduces the same wire
// sequence and the same per-group jitter draws.
func TestTunneledReportsInGroupOrder(t *testing.T) {
	approach := core.UniTunnelHAToMN
	approach.Variant = core.VariantTunneledMLD
	r := newRig(73, approach)
	r.f.Settle()
	svc := r.svc["R3"]
	const n = 12
	for i := n - 1; i >= 0; i-- {
		g := ipv6.MustParseAddr("ff0e::300")
		g[15] = byte(i)
		svc.Join(g)
	}
	r.f.Run(5 * time.Second)

	mn := r.f.Hosts["R3"].Node
	var burst []ipv6.Addr
	burstAt := sim.Time(-1)
	r.f.Links["L6"].AddTap(func(ev netem.TxEvent) {
		if ev.From.Node != mn || ev.Pkt.Proto != ipv6.ProtoIPv6 {
			return
		}
		inner, err := ipv6.Decapsulate(ev.Pkt)
		if err != nil {
			return
		}
		msg, err := icmpv6.Parse(inner.Hdr.Src, inner.Hdr.Dst, inner.Payload)
		if err != nil {
			return
		}
		m, ok := msg.(*icmpv6.MLD)
		if !ok || m.Kind != icmpv6.TypeMLDReport {
			return
		}
		if burstAt < 0 {
			burstAt = ev.Time
		}
		if ev.Time == burstAt {
			burst = append(burst, m.MulticastAddress)
		}
	})
	r.f.Move("R3", "L6")
	r.f.Run(5 * time.Second)

	if len(burst) != n {
		t.Fatalf("registration burst carried %d tunneled Reports, want %d", len(burst), n)
	}
	for i := 1; i < n; i++ {
		if !burst[i-1].Less(burst[i]) {
			t.Fatalf("tunneled Reports out of group order: %v", burst)
		}
	}
}

//go:build !race

// Allocation budget for the periodic Router Advertisement. Excluded under
// -race (instrumented allocation counts differ); scripts/check.sh runs
// these in a separate non-race pass.

package ndp

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/sim"
)

// raAllocBudget bounds one steady-state advertisement on a link with no
// listeners: the outgoing packet header and the link's shared decode
// (packet + payload), measured 3, plus headroom of one. Re-marshalling the
// RA would add its message, body, option and output buffers on top.
const raAllocBudget = 4

func TestAdvertiseAllocBudget(t *testing.T) {
	s := sim.NewScheduler(1)
	net := netem.New(s)
	l := net.NewLink("L1", 0, time.Millisecond)
	rn := net.NewNode("R1", true)
	ifc := rn.AddInterface(l)
	prefix := ipv6.MustParseAddr("2001:db8:1::")
	r := NewRouter(rn, DefaultRouterConfig(), func(*netem.Interface) (ipv6.Addr, bool) { return prefix, true })
	r.advertise(ifc)
	cached := &r.ras[ifc].payload[0]
	allocs := testing.AllocsPerRun(200, func() { r.advertise(ifc) })
	t.Logf("steady-state advertise: %v allocs (budget %d)", allocs, raAllocBudget)
	if &r.ras[ifc].payload[0] != cached {
		t.Error("steady-state advertise re-marshalled the RA")
	}
	if allocs > raAllocBudget {
		t.Errorf("advertise allocates %v objects; budget %d (RA re-marshal regression?)", allocs, raAllocBudget)
	}
}

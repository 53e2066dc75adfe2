//go:build !race

// Allocation budget for the home agent's multicast fan-out. Excluded under
// -race (instrumented allocation counts differ); scripts/check.sh runs
// these in a separate non-race pass.

package mipv6

import (
	"testing"

	"mip6mcast/internal/ipv6"
)

// TestFanOutAllocBudget pins the cached fan-out order: with a stable
// binding cache, offering a datagram to bindings that do not subscribe
// must neither copy nor sort the cache.
func TestFanOutAllocBudget(t *testing.T) {
	ha := newFanoutHA(64)
	pkt := fanoutPacket()
	ha.fanOutToBindings(pkt, ipv6.Addr{})
	allocs := testing.AllocsPerRun(1000, func() { ha.fanOutToBindings(pkt, ipv6.Addr{}) })
	if allocs != 0 {
		t.Errorf("fan-out over a stable cache allocates %v objects/op; want 0 (copy-and-sort regression?)", allocs)
	}
}

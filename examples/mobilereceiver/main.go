// Mobile receiver: the paper's Figures 2 and 3 side by side. Receiver 3
// moves away from its home link while a video-like stream is running; the
// example compares joining locally on the foreign link against receiving
// through the home agent's tunnel, with and without the paper's
// recommended optimizations.
//
//	go run ./examples/mobilereceiver
package main

import (
	"fmt"
	"log"

	"mip6mcast"
)

func main() {
	fmt.Println("Mobile receiver: R3 moves while streaming (paper Figures 2 & 3)")
	fmt.Println()

	// Approach A (Figure 2): local membership on the foreign link, with
	// the paper's recommended unsolicited Reports (re-subscription is
	// immediate) and with the draft-default behavior of waiting for the
	// periodic Query (T_Query=125s) — the join delay the paper calls "far
	// too high". Either way the abandoned home link carries garbage until
	// T_MLI expires (leave delay, wasted bytes).
	f2 := run("f2", mip6mcast.DefaultOptions())
	fmt.Print(f2.Render())
	fmt.Println()

	// The paper's fix: decrease T_Query (here to 10 s). Compare the
	// wait-for-query row with the one above.
	fmt.Println("-- tuned T_Query=10s (paper §4.4) --")
	fmt.Print(run("f2", mip6mcast.FastMLDOptions(10)).Render())
	fmt.Println()

	// Approach B (Figure 3): membership held at the home agent, traffic
	// tunneled — via the Multicast Group List sub-option (paper Fig. 5) or
	// MLD Reports through the tunnel. No MLD timer is in the path (join is
	// just movement detection + binding update), but routing is
	// suboptimal: R3 stands next to the sender (optimal 0 hops) and every
	// datagram pays encapsulation overhead.
	fmt.Print(run("f3", mip6mcast.DefaultOptions()).Render())
}

func run(name string, opt mip6mcast.Options) mip6mcast.ExpResult {
	res, err := mip6mcast.RunExperiment(name, mip6mcast.ExpContext{Opt: opt}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

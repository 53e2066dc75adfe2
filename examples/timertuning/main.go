// Timer tuning: the paper's §4.4 recommendation quantified. Sweeping the
// MLD Query Interval T_Query shows the tradeoff between join/leave delay of
// mobile receivers and MLD signaling bandwidth — and that "the bandwidth
// cost for this tuning step is small, compared with the bandwidth saving
// due to a lower leave delay".
//
//	go run ./examples/timertuning
package main

import (
	"fmt"
	"log"

	"mip6mcast"
)

func main() {
	fmt.Println("MLD timer optimization (paper §4.4): T_Query sweep, 3 replicate seeds")
	fmt.Println()

	// Footnote 5: T_Query must not drop below T_RespDel (10 s default);
	// the MLD fast config clamps accordingly for the 5 s point.
	intervals := []int{5, 10, 20, 30, 60, 125}

	fmt.Println("-- mobile receiver waits for the periodic Query (no unsolicited reports) --")
	waiting := sweep(intervals, false)
	fmt.Print(waiting.Render())
	fmt.Println()

	fmt.Println("-- with the paper's unsolicited Reports after movement --")
	fmt.Print(sweep(intervals, true).Render())
	fmt.Println()

	// The paper's punchline, computed from the two extremes of the first
	// sweep: bytes wasted by the leave delay at T_Query=125 s versus the
	// extra query/report traffic at T_Query=10 s.
	fast, slow := waiting.Stats[1], waiting.Stats[len(intervals)-1]
	saved := (slow.Mean("waste(B)") - fast.Mean("waste(B)")) / 1000
	extraPerHour := (fast.Mean("mld(B/h)") - slow.Mean("mld(B/h)")) / 1000
	fmt.Printf("one receiver movement wastes %.1f kB less at T_Query=10s;\n", saved)
	fmt.Printf("the price is %.1f kB/h of extra MLD signaling on the whole network.\n", extraPerHour)
}

func sweep(intervals []int, unsolicited bool) mip6mcast.ExpResult {
	res, err := mip6mcast.RunExperiment("s44",
		mip6mcast.ExpContext{Opt: mip6mcast.DefaultOptions(), Replicates: 3},
		mip6mcast.ExpParams{"tquery": intervals, "unsolicited": unsolicited})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

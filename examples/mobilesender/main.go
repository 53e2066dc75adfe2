// Mobile sender: the paper's Figure 4 and §4.3.1. Sender S moves to Link 6
// mid-stream. Sending locally makes PIM-DM treat the care-of address as a
// brand-new source — a full flood builds a second tree while the stale one
// is held for the 210 s data timeout. Reverse-tunneling to the home agent
// keeps the original tree intact at the cost of encapsulation.
//
//	go run ./examples/mobilesender
package main

import (
	"fmt"
	"log"

	"mip6mcast"
)

func main() {
	fmt.Println("Mobile sender: S moves to Link 6 mid-stream (paper Figure 4 / §4.3.1)")
	fmt.Println()

	// newtrees counts (S,G) entries flooded after the move, peakSG the
	// peak simultaneous (S,G) state, gap(s) the worst receiver gap.
	fmt.Print(run("f4", nil).Render())
	fmt.Println()

	// §4.3.1: a sender hopping across ON-TREE links triggers spurious
	// assert processes during the window before it configures its new
	// care-of address (it keeps sending with a stale source address).
	// reflood(B) is data re-flooded onto pruned links; peakSG counts
	// stale+live trees.
	fmt.Println("Sender hopping across on-tree links (local sending, paper §4.3.1):")
	fmt.Print(run("s431", mip6mcast.ExpParams{"moves": []int{1, 2, 4}, "dwell": 45}).Render())
}

func run(name string, p mip6mcast.ExpParams) mip6mcast.ExpResult {
	res, err := mip6mcast.RunExperiment(name, mip6mcast.ExpContext{Opt: mip6mcast.DefaultOptions()}, p)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// Tunnel MTU: the implementation issue the paper's conclusion flags for
// the proposed uni-directional tunnels. Encapsulation adds 40 bytes, so a
// datagram that fits every link natively can exceed the MTU once tunneled:
// the home agent must fragment the outer packet, and under loss every
// fragment must survive — amplifying the tunnel receiver's datagram loss
// while local receivers are unaffected.
//
//	go run ./examples/tunnelmtu
package main

import (
	"fmt"
	"log"

	"mip6mcast"
)

func main() {
	fmt.Println("Sweeping datagram payload across the tunnel-MTU boundary (links: 1500 B).")
	fmt.Println("R3 receives via its home agent's tunnel on Link 6; R1 receives locally.")
	fmt.Println()

	fmt.Print(sweep([]int{1200, 1412, 1413, 1432}, 0).Render())
	fmt.Println()
	fmt.Println("One byte across the boundary (outer 1500 -> 1501) doubles the tunnel's")
	fmt.Println("frame count: the home agent fragments, the mobile node reassembles.")
	fmt.Println()

	lossy := sweep([]int{1412, 1413}, 0.05)
	fmt.Print(lossy.Render())
	fmt.Println()
	below, above := lossy.Rows[0].Values, lossy.Rows[1].Values
	fmt.Printf("With 5%% per-link loss, the same one-byte step takes the tunnel receiver's\n")
	fmt.Printf("delivery from %.3f to %.3f and the local receiver's from %.3f to %.3f.\n",
		below["deliv-tunnel"], above["deliv-tunnel"], below["deliv-local"], above["deliv-local"])
	fmt.Printf("Fragmentation means every fragment must survive; a lost binding or MLD\n")
	fmt.Printf("refresh can also black-hole the tunnel for tens of seconds, and at some\n")
	fmt.Printf("seeds that outweighs the fragment loss.\n")
}

// sweep runs the smtu experiment on the tuned T_Query=30s options (tquery
// 0 inherits them) at one loss rate.
func sweep(payloads []int, loss float64) mip6mcast.ExpResult {
	res, err := mip6mcast.RunExperiment("smtu",
		mip6mcast.ExpContext{Opt: mip6mcast.FastMLDOptions(30)},
		mip6mcast.ExpParams{"payloads": payloads, "losses": []float64{loss}, "tquery": 0})
	if err != nil {
		log.Fatal(err)
	}
	return res
}

package main

import (
	"runtime"
	"time"
)

// The end-to-end times are reported in reference seconds: host seconds
// scaled by how fast this host ran a fixed calibration kernel next to
// the cells. A shared host's speed drifts by a quarter or more from
// minute to minute (neighbours, frequency steps, stolen vCPU time); the
// kernel drifts with it, while a change to the simulator does not move
// the kernel. The kernel is built like the simulator's hot path: an
// event heap, a hash-table lookup, and a cloned byte payload linked into
// a pointer graph, with the garbage collector running on the spare core.

// calibrationRef is about the kernel's median time on the host the
// benchmark was defined on (2 vCPUs, Intel Xeon, Go 1.24). One reference
// second is one host second of that host, so the figures stay near host
// seconds.
const calibrationRef = 10 * time.Millisecond

// calibrationIters sizes one kernel run (about calibrationRef there).
const calibrationIters = 20000

// calibrationShare is the kernel time run after each unit, as a share of
// the unit's wall time.
const calibrationShare = 0.08

type calNode struct {
	payload []byte
	next    *calNode
}

type calEvent struct {
	at   uint64
	node *calNode
}

// calibrator times the kernel and keeps the allocations it made, so the
// run's allocation metrics can leave them out.
type calibrator struct {
	samples        []float64
	mallocs, bytes uint64
	sink           uint64
}

// measure collects the heap the cells left, then runs the kernel until
// its runs add up to budget (at least once), keeping each run's time.
func (c *calibrator) measure(budget time.Duration) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for spent := time.Duration(0); spent == 0 || spent < budget; {
		t := time.Now()
		c.sink += calibrationKernel(calibrationIters)
		d := time.Since(t)
		c.samples = append(c.samples, d.Seconds())
		spent += d
	}
	runtime.ReadMemStats(&after)
	c.mallocs += after.Mallocs - before.Mallocs
	c.bytes += after.TotalAlloc - before.TotalAlloc
}

// scale converts host seconds to reference seconds: calibrationRef over
// the median kernel time.
func (c *calibrator) scale() float64 {
	return calibrationRef.Seconds() / median(c.samples)
}

// calibrationKernel is a fixed, deterministic event loop: each step
// looks a node up by key, clones its payload onto the node it points to
// (the old payload becomes garbage), and schedules an event on a binary
// heap that pops once it holds 4096 events.
func calibrationKernel(iters int) uint64 {
	const nodes = 8192
	ring := make([]*calNode, nodes)
	for i := range ring {
		ring[i] = &calNode{payload: make([]byte, 96)}
	}
	byKey := make(map[uint64]*calNode, nodes)
	for i, n := range ring {
		n.next = ring[(i*7919+1)%nodes]
		byKey[uint64(i)*2654435761] = n
	}
	var heap []calEvent
	x, sink := uint64(88172645463325252), uint64(0)
	for it := 0; it < iters; it++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		n := byKey[(x%nodes)*2654435761]
		p := make([]byte, 96+x%64)
		copy(p, n.payload)
		p[0]++
		n.next.payload = p[:96]
		heap = append(heap, calEvent{at: x % 100000, node: n})
		for i := len(heap) - 1; i > 0; {
			up := (i - 1) / 2
			if heap[up].at <= heap[i].at {
				break
			}
			heap[up], heap[i] = heap[i], heap[up]
			i = up
		}
		if len(heap) <= 4096 {
			continue
		}
		top := heap[0]
		heap[0] = heap[len(heap)-1]
		heap = heap[:len(heap)-1]
		for i := 0; ; {
			l := 2*i + 1
			if l >= len(heap) {
				break
			}
			if r := l + 1; r < len(heap) && heap[r].at < heap[l].at {
				l = r
			}
			if heap[i].at <= heap[l].at {
				break
			}
			heap[i], heap[l] = heap[l], heap[i]
			i = l
		}
		sink += top.at + uint64(top.node.payload[0])
	}
	return sink
}

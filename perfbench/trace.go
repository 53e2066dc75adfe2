package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	mclass "mip6mcast/internal/metrics"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/scenario"
)

// tracer instruments the cells of a traced unit from the outside: it
// turns on per-tag handler timing in every region scheduler, and taps
// every link to keep a sample of transmitted frames for the codec replay.
// The units themselves attach a telemetry registry per traced timeline.
type tracer struct {
	seed int64
	// regions holds one frame sampler per scheduler region: taps run on
	// their link's region goroutine, so samplers are never shared.
	regions map[int]*frameSampler
}

func newTracer(seed int64) *tracer {
	return &tracer{seed: seed, regions: map[int]*frameSampler{}}
}

// attach is called from OnNetwork, before the timeline runs. A nil tracer
// (an untraced cell) attaches nothing.
func (t *tracer) attach(f *scenario.Network) {
	if t == nil {
		return
	}
	for _, s := range f.Scheds() {
		s.Instrument()
	}
	for _, l := range f.Net.Links {
		r := l.Sched().Region()
		fs := t.regions[r]
		if fs == nil {
			fs = newFrameSampler(t.seed + int64(r))
			t.regions[r] = fs
		}
		l.AddTap(fs.tap)
	}
}

// sampleCap is the reservoir size per traffic class and region.
const sampleCap = 256

// frameSampler keeps a uniform reservoir sample of the frames of each
// traffic class, and counts every frame by class.
type frameSampler struct {
	rng    *rand.Rand
	count  map[string]uint64
	sample map[string][][]byte
}

func newFrameSampler(seed int64) *frameSampler {
	return &frameSampler{rng: rand.New(rand.NewSource(seed)), count: map[string]uint64{}, sample: map[string][][]byte{}}
}

func (s *frameSampler) tap(ev netem.TxEvent) {
	b := frameClass(ev.Pkt, len(ev.Frame))
	n := s.count[b]
	s.count[b] = n + 1
	if len(s.sample[b]) < sampleCap {
		s.sample[b] = append(s.sample[b], append([]byte(nil), ev.Frame...))
	} else if j := s.rng.Int63n(int64(n + 1)); j < sampleCap {
		s.sample[b][j] = append([]byte(nil), ev.Frame...)
	}
}

// frameClass buckets a frame by its metrics.Class: tunnelled frames go to
// the tunnel class, every other frame to the class of its bytes.
func frameClass(pkt *ipv6.Packet, wireLen int) string {
	split := mclass.Split(pkt, wireLen)
	if _, ok := split[mclass.ClassTunnel]; ok {
		return mclass.ClassTunnel.String()
	}
	for c := range split {
		return c.String()
	}
	return mclass.ClassOther.String()
}

// codecFuncs are the replayed codec entry points.
var codecFuncs = []struct {
	name  string // metric prefix
	proto uint8  // innermost protocol it parses (0: every frame)
}{
	{"ipv6.decode", 0},
	{"ipv6.udp_parse", ipv6.ProtoUDP},
	{"icmpv6.parse", ipv6.ProtoICMPv6},
	{"pimdm.parse", ipv6.ProtoPIM},
}

// replayCodecs times the codec functions on the sampled frames and returns
// ns and allocations per frame, per class and weighted over all classes
// by how many frames of each class the traced cells sent.
func (t *tracer) replayCodecs() map[string]metric {
	count := map[string]uint64{}
	sample := map[string][][]byte{}
	for _, fs := range t.regions {
		for b, n := range fs.count {
			count[b] += n
			sample[b] = append(sample[b], fs.sample[b]...)
		}
	}
	out := map[string]metric{}
	type acc struct{ ns, allocs, weight float64 }
	total := make([]acc, len(codecFuncs))
	for _, class := range mclass.Classes() {
		b := class.String()
		frames := sample[b]
		var inner []ipv6.Packet
		for _, fr := range frames {
			if p, err := innermost(fr); err == nil {
				inner = append(inner, *p)
			}
		}
		for i, fn := range codecFuncs {
			var ops int
			var body func()
			if fn.proto == 0 {
				ops = len(frames)
				body = func() {
					for _, fr := range frames {
						_, _ = ipv6.Decode(fr)
					}
				}
			} else {
				var pkts []ipv6.Packet
				for _, p := range inner {
					if p.Proto == fn.proto {
						pkts = append(pkts, p)
					}
				}
				ops = len(pkts)
				body = parser(fn.proto, pkts)
			}
			var ns, allocs float64
			if ops > 0 {
				ns, allocs = timeOps(body, ops)
				w := float64(count[b]) * float64(ops) / float64(len(frames))
				total[i].ns += w * ns
				total[i].allocs += w * allocs
				total[i].weight += w
			}
			if fn.proto == 0 {
				out[fn.name+"_ns_per_frame."+b] = metric{ns, "ns"}
				out[fn.name+"_allocs_per_frame."+b] = metric{allocs, "count"}
			}
		}
	}
	for i, fn := range codecFuncs {
		var ns, allocs float64
		if a := total[i]; a.weight > 0 {
			ns, allocs = a.ns/a.weight, a.allocs/a.weight
		}
		out[fn.name+"_ns_per_frame"] = metric{ns, "ns"}
		out[fn.name+"_allocs_per_frame"] = metric{allocs, "count"}
	}
	return out
}

// innermost decodes a frame and every tunnel layer inside it.
func innermost(frame []byte) (*ipv6.Packet, error) {
	p, err := ipv6.Decode(frame)
	for err == nil && p.Proto == ipv6.ProtoIPv6 && p.Fragment == nil {
		var in *ipv6.Packet
		if in, err = ipv6.Decode(p.Payload); err == nil {
			p = in
		}
	}
	return p, err
}

func parser(proto uint8, pkts []ipv6.Packet) func() {
	return func() {
		for i := range pkts {
			p := &pkts[i]
			switch proto {
			case ipv6.ProtoUDP:
				_, _ = ipv6.ParseUDP(p.Hdr.Src, p.Hdr.Dst, p.Payload)
			case ipv6.ProtoICMPv6:
				_, _ = icmpv6.Parse(p.Hdr.Src, p.Hdr.Dst, p.Payload)
			case ipv6.ProtoPIM:
				_, _ = pimdm.Parse(p.Hdr.Src, p.Hdr.Dst, p.Payload)
			}
		}
	}
}

// timeOps runs body (ops operations per call) often enough to fill about
// 5 ms and returns ns and heap allocations per operation.
func timeOps(body func(), ops int) (ns, allocs float64) {
	body() // warm caches
	reps := 1
	for {
		t := time.Now()
		for i := 0; i < reps; i++ {
			body()
		}
		if time.Since(t) >= time.Millisecond || reps >= 1<<20 {
			break
		}
		reps *= 2
	}
	reps *= 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t := time.Now()
	for i := 0; i < reps; i++ {
		body()
	}
	d := time.Since(t)
	runtime.ReadMemStats(&after)
	n := float64(reps * ops)
	return float64(d.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}

// gcCounters are cumulative runtime/metrics readings.
type gcCounters struct {
	gcCPU, totalCPU, cycles float64
}

var gcSampleNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readGC() gcCounters {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindFloat64:
			return v.Float64()
		case metrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	return gcCounters{gcCPU: val(s[0].Value), totalCPU: val(s[1].Value), cycles: val(s[2].Value)}
}

func (a gcCounters) sub(b gcCounters) gcCounters {
	return gcCounters{a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.cycles - b.cycles}
}

func (a gcCounters) add(b gcCounters) gcCounters {
	return gcCounters{a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.cycles + b.cycles}
}

package mip6mcast

// Root-package benchmarks: the Figure 5 wire codec, the Table 1 approach
// comparison (run through the experiment registry, reporting each
// approach's rejoin delay as a custom metric), the DESIGN.md §5
// ablations, and the converged-forwarding and observability costs.
// The paper's tables and figures themselves come from `mip6sim
// -experiment <id>`. make bench runs BenchmarkApproachComparison,
// BenchmarkSteadyStateForwarding and BenchmarkObsOverhead from this file.

import (
	"testing"
	"time"

	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// BenchmarkF5SubOptionCodec measures the paper's Figure 5 wire format:
// encode+parse of a Multicast Group List sub-option inside a full Binding
// Update destination option inside an encoded IPv6 packet.
func BenchmarkF5SubOptionCodec(b *testing.B) {
	groups := []ipv6.Addr{
		ipv6.MustParseAddr("ff0e::101"),
		ipv6.MustParseAddr("ff0e::102"),
		ipv6.MustParseAddr("ff05::33"),
	}
	src := ipv6.MustParseAddr("2001:db8:6::99")
	dst := ipv6.MustParseAddr("2001:db8:4::1")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		bu := &ipv6.BindingUpdate{Ack: true, HomeReg: true, Sequence: uint16(i), Lifetime: 256, GroupList: groups}
		opt, err := bu.Marshal()
		if err != nil {
			b.Fatal(err)
		}
		pkt := &ipv6.Packet{
			Hdr:      ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
			DestOpts: []ipv6.Option{opt},
			Proto:    ipv6.ProtoNoNext,
		}
		wire, err := pkt.Encode()
		if err != nil {
			b.Fatal(err)
		}
		back, err := ipv6.Decode(wire)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ipv6.ParseBindingUpdate(back.DestOpts[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApproachComparison regenerates the T1 movement-scenario table
// across every registered approach (the paper's four plus the proxy
// hierarchy) and reports each one's rejoin delay.
func BenchmarkApproachComparison(b *testing.B) {
	var res ExpResult
	for i := 0; i < b.N; i++ {
		opt := FastMLDOptions(30)
		opt.Seed = int64(i + 1)
		var err error
		if res, err = RunExperiment("t1", ExpContext{Opt: opt}, nil); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Rows {
		b.ReportMetric(r.Values["join(s)"]*1000, r.Label+"-join-ms")
	}
}

// --- ablations (DESIGN.md §5) ------------------------------------------------

// BenchmarkAblationStateRefresh quantifies the RFC 3973 extension: data
// bytes wasted on the pruned branch with plain flood-and-prune (periodic
// re-floods) versus with State Refresh keeping prune state alive.
func BenchmarkAblationStateRefresh(b *testing.B) {
	run := func(seed int64, refresh time.Duration) uint64 {
		opt := DefaultOptions()
		opt.Seed = seed
		opt.PIM.PruneHoldtime = 30 * time.Second
		opt.PIM.DataTimeout = 20 * time.Minute
		opt.PIM.StateRefreshInterval = refresh
		r := NewRun(opt, LocalMembership, 100*time.Millisecond, 256)
		w5 := r.WatchLink("L5")
		w6 := r.WatchLink("L6")
		r.F.Run(10 * time.Minute)
		return w5.Bytes + w6.Bytes
	}
	var off, on uint64
	for i := 0; i < b.N; i++ {
		off = run(int64(i+1), 0)
		on = run(int64(i+1), 15*time.Second)
	}
	b.ReportMetric(float64(off), "refloodB-off")
	b.ReportMetric(float64(on), "refloodB-on")
	if on > 0 {
		b.ReportMetric(float64(off)/float64(on), "suppression-x")
	}
}

// BenchmarkAblationCodecVsNoCodec quantifies design decision 1: carrying
// encoded bytes on links (decode at every hop) versus passing parsed
// packets by reference.
func BenchmarkAblationCodecVsNoCodec(b *testing.B) {
	src := ipv6.MustParseAddr("2001:db8:1::1")
	dst := ipv6.MustParseAddr("ff0e::101")
	u := &ipv6.UDP{SrcPort: 9000, DstPort: 9000, Payload: make([]byte, 512)}
	pkt := &ipv6.Packet{
		Hdr:     ipv6.Header{Src: src, Dst: dst, HopLimit: 64},
		Proto:   ipv6.ProtoUDP,
		Payload: u.Marshal(src, dst),
	}
	b.Run("wire-codec-per-hop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wire, err := pkt.Encode()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ipv6.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clone-reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := pkt.Clone()
			q.Hdr.HopLimit--
		}
	})
}

// BenchmarkAblationParallelSweep quantifies design decision 2: replicate
// runs across goroutines versus sequential execution.
func BenchmarkAblationParallelSweep(b *testing.B) {
	body := func(i int) {
		opt := DefaultOptions()
		opt.Seed = int64(i + 1)
		r := NewRun(opt, LocalMembership, 100*time.Millisecond, 64)
		r.F.Run(30 * time.Second)
	}
	for _, w := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(w.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.RunParallel(8, w.workers, body)
			}
		})
	}
}

// BenchmarkSteadyStateForwarding measures the full-stack packet rate of the
// Figure 1 network in converged streaming state (virtual-seconds of network
// operation per wall-clock benchmark iteration).
func BenchmarkSteadyStateForwarding(b *testing.B) {
	opt := DefaultOptions()
	r := NewRun(opt, LocalMembership, 10*time.Millisecond, 256)
	r.F.Run(30 * time.Second) // converge
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.F.Run(time.Second) // 100 datagrams across the tree
	}
	b.StopTimer()
	b.ReportMetric(float64(r.F.Sched.Processed())/float64(b.N), "events/iter")
}

// BenchmarkObsOverhead quantifies the observability layer's cost on the
// same converged streaming workload as BenchmarkSteadyStateForwarding:
// "off" runs with no recorder (every hook is an untaken nil-check branch —
// this must stay within noise of the plain run), "on" records every state
// transition plus all link transmissions.
func BenchmarkObsOverhead(b *testing.B) {
	bench := func(b *testing.B, rec *obs.Recorder) {
		opt := DefaultOptions()
		opt.Obs = rec
		r := NewRun(opt, LocalMembership, 10*time.Millisecond, 256)
		r.F.Run(30 * time.Second) // converge
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.F.Run(time.Second)
		}
		b.StopTimer()
		b.ReportMetric(float64(r.F.Sched.Processed())/float64(b.N), "events/iter")
		if rec != nil {
			b.ReportMetric(float64(rec.Len())/float64(b.N), "recorded/iter")
		}
	}
	b.Run("off", func(b *testing.B) { bench(b, nil) })
	b.Run("on", func(b *testing.B) { bench(b, obs.NewRecorder(nil)) })
}

package main

import (
	"math"
	"time"

	"mip6mcast/internal/metrics"
)

// handlerTags are the scheduler handler tags the ledger reports; "" is
// reported as "untagged".
var handlerTags = []string{"link", "pim", "hpim", "mld", "mip", "telemetry", ""}

// tracedRun is the per-layer run. After a warm-up unit it alternates a
// plain and a traced run of the same unit — plain first on even steps,
// traced first on odd ones — until the budget is spent and every pool
// unit has run both ways at least once. Timings and process counters
// come from the plain units, handler-tag timing, telemetry readings and
// the codec sample from the traced ones.
func tracedRun(w *workload, seed int64, budget time.Duration, chk *checker) map[string]metric {
	chk.unit(w.unit(unitSeed(seed, 0), nil))
	tr := newTracer(seed)
	var (
		plain, traced []unit
		win           window
	)
	start := time.Now()
	for k := 0; k < w.pool || time.Since(start) < budget; k++ {
		s := unitSeed(seed, k%w.pool)
		runPlain := func() {
			ws := beginWindow()
			u := w.unit(s, nil)
			win.add(ws.end())
			chk.unit(u)
			plain = append(plain, u)
		}
		runTraced := func() {
			u := w.unit(s, tr)
			chk.unit(u)
			traced = append(traced, u)
		}
		if k%2 == 0 {
			runPlain()
			runTraced()
		} else {
			runTraced()
			runPlain()
		}
	}
	m := ledger(plain, traced, w.pool, win)
	for k, v := range tr.replayCodecs() {
		m[k] = v
	}
	return m
}

// ledger turns the plain and traced units into the per-layer metrics.
// Counts are per-cell means over the first pass through the pool (cycle),
// so they repeat exactly for a given seed; timings use every unit.
func ledger(plain, traced []unit, pool int, win window) map[string]metric {
	pc, tc := cellsOf(plain), cellsOf(traced)
	pcy, tcy := cellsOf(plain[:pool]), cellsOf(traced[:pool])
	m := map[string]metric{}
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		m[name] = metric{v, unit}
	}
	perCell := func(cells []cell, f func(layerSample) float64) float64 {
		var t float64
		for _, c := range cells {
			t += f(c.layer)
		}
		return t / float64(len(cells))
	}
	sum := func(cells []cell, f func(c cell) float64) float64 {
		var t float64
		for _, c := range cells {
			t += f(c)
		}
		return t
	}

	// sim: dispatch volume and cost, queue depth, handler time by tag,
	// sharded-kernel windows and parallelism.
	events := sum(pc, func(c cell) float64 { return float64(c.layer.stats.Dispatched) })
	plainWall := sum(pc, func(c cell) float64 { return c.wall.Seconds() })
	tracedWall := sum(tc, func(c cell) float64 { return c.wall.Seconds() })
	windows := sum(pc, func(c cell) float64 { return float64(c.layer.windows) })
	var hwm float64
	for _, c := range pcy {
		hwm = math.Max(hwm, float64(c.layer.stats.QueueHighWater))
	}
	put("sim.events", perCell(pcy, func(s layerSample) float64 { return float64(s.stats.Dispatched) }), "count")
	put("sim.ns_per_event", plainWall*1e9/events, "ns")
	put("sim.queue_hwm", hwm, "count")
	put("sim.handler_frac", sum(tc, func(c cell) float64 { return c.layer.stats.Wall.Seconds() })/tracedWall, "frac")
	for _, tag := range handlerTags {
		name := tag
		if name == "" {
			name = "untagged"
		}
		tagWall := sum(tc, func(c cell) float64 {
			for _, ts := range c.layer.stats.Tags {
				if ts.Tag == tag {
					return ts.Wall.Seconds()
				}
			}
			return 0
		})
		put("sim.tag_frac."+name, tagWall/tracedWall, "frac")
		put("sim.tag_events."+name, perCell(tcy, func(s layerSample) float64 {
			for _, ts := range s.stats.Tags {
				if ts.Tag == tag {
					return float64(ts.Events)
				}
			}
			return 0
		}), "count")
	}
	put("sim.kernel_windows", perCell(pcy, func(s layerSample) float64 { return float64(s.windows) }), "count")
	put("sim.events_per_window", events/windows, "count")
	put("sim.cpu_per_wall", win.cpu.Seconds()/win.wall.Seconds(), "ratio")

	// netem: link-layer volume, control share and impairment outcomes.
	class := func(c metrics.Class) func(layerSample) float64 {
		return func(s layerSample) float64 { return float64(s.classFrame(c)) }
	}
	txFrames := sum(pc, func(c cell) float64 { return float64(c.layer.txFrames) })
	var ctrl, all float64
	for _, c := range pcy {
		for cl, n := range c.layer.classFrames {
			switch metrics.Class(cl) {
			case metrics.ClassMLD, metrics.ClassNDP, metrics.ClassPIM, metrics.ClassMIPv6:
				ctrl += float64(n)
			}
			all += float64(n)
		}
	}
	put("netem.frames", perCell(pcy, func(s layerSample) float64 { return float64(s.txFrames) }), "count")
	put("netem.bytes", perCell(pcy, func(s layerSample) float64 { return float64(s.txBytes) }), "B")
	put("netem.frames_per_event", txFrames/events, "ratio")
	put("netem.ctrl_share", ctrl/all, "frac")
	put("netem.lost", perCell(pcy, func(s layerSample) float64 { return float64(s.lost) }), "count")
	put("netem.dup", perCell(pcy, func(s layerSample) float64 { return float64(s.dup) }), "count")
	put("netem.corrupted", perCell(pcy, func(s layerSample) float64 { return float64(s.corrupted) }), "count")

	// Protocol layers: per-class frame counts from the Accountant.
	put("ndp.frames", perCell(pcy, class(metrics.ClassNDP)), "count")
	put("mld.frames", perCell(pcy, class(metrics.ClassMLD)), "count")
	put("mipv6.signal_frames", perCell(pcy, class(metrics.ClassMIPv6)), "count")
	put("mipv6.tunnel_bytes", perCell(pcy, func(s layerSample) float64 { return float64(s.classByte(metrics.ClassTunnel)) }), "B")
	for _, eng := range []string{"pimdm", "hpimdm"} {
		eng := eng
		put(eng+".ctrl_frames", perCell(pcy, func(s layerSample) float64 {
			if s.engine != eng {
				return 0
			}
			return float64(s.classFrame(metrics.ClassPIM))
		}), "count")
	}
	put("engine.sg_high_water", perCell(tcy, func(s layerSample) float64 { return s.sgHighWater }), "count")
	put("mipv6.bindings_peak", perCell(tcy, func(s layerSample) float64 { return s.bindingsPeak }), "count")
	put("mldproxy.anchor_local_handovers", perCell(pcy, func(s layerSample) float64 { return float64(s.anchorLocal) }), "count")
	put("obs.records_per_cell", perCell(pcy, func(s layerSample) float64 { return float64(s.obsRecords) }), "count")

	// Set-up split and checkpointing.
	var gens, captures, setups, restores []float64
	for _, u := range traced {
		gens = append(gens, u.topoGen.Seconds())
	}
	for _, u := range plain {
		if u.capture > 0 {
			captures = append(captures, u.capture.Seconds())
		}
	}
	for _, c := range pc {
		setups = append(setups, c.setup.Seconds())
		if c.layer.restore > 0 {
			restores = append(restores, c.layer.restore.Seconds())
		}
	}
	gen := median(gens)
	put("topo.gen_s", gen, "s")
	put("scenario.build_s", math.Max(0, median(setups)-gen), "s")
	put("checkpoint.capture_s", median(captures), "s")
	put("checkpoint.restore_s", median(restores), "s")

	// Go runtime and the tracing cost itself.
	put("runtime.gc_cpu_frac", win.gc.gcCPU/win.gc.totalCPU, "frac")
	put("runtime.gc_cycles_per_cell", win.gc.cycles/float64(len(pc)), "count")
	put("trace.overhead_frac", median(walls(tc))/median(walls(pc))-1, "frac")
	return m
}

func cellsOf(units []unit) []cell {
	var cells []cell
	for _, u := range units {
		cells = append(cells, u.cells...)
	}
	return cells
}

func walls(cells []cell) []float64 {
	out := make([]float64, len(cells))
	for i, c := range cells {
		out[i] = c.wall.Seconds()
	}
	return out
}

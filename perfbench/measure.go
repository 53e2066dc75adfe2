package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// layerSample is what one finished cell's network reports about its
// layers. Every field is read after the cell ends, from public state.
type layerSample struct {
	engine string
	stats  sim.RunStats
	// windows is the sharded kernel's barrier-window count (0 unsharded).
	windows uint64
	// Per-class frame and byte counts from the network's Accountant.
	classFrames []uint64
	classBytes  []uint64
	// Link-level counters summed over every link (split halves included).
	txFrames, txBytes, lost, dup, corrupted uint64
	anchorLocal                             uint64
	obsRecords                              int
	// Telemetry-registry readings (traced cells only).
	sgHighWater, bindingsPeak float64
	restore                   time.Duration
}

// frames is the cell's simulated wire-frame count: the Accountant's frame
// counts summed over all classes (a tunnelled frame counts once for the
// tunnel class and once for its inner class).
func (s layerSample) frames() uint64 {
	var n uint64
	for _, f := range s.classFrames {
		n += f
	}
	return n
}

func (s layerSample) classFrame(c metrics.Class) uint64 {
	if int(c) < len(s.classFrames) {
		return s.classFrames[c]
	}
	return 0
}

func (s layerSample) classByte(c metrics.Class) uint64 {
	if int(c) < len(s.classBytes) {
		return s.classBytes[c]
	}
	return 0
}

func sampleNetwork(f *scenario.Network) layerSample {
	s := layerSample{engine: f.Opt.EngineName()}
	nc := len(metrics.Classes())
	s.classFrames = make([]uint64, nc)
	s.classBytes = make([]uint64, nc)
	for _, lc := range f.Acct.Snapshot() {
		for i := 0; i < nc; i++ {
			s.classFrames[i] += lc.Frames[i]
			s.classBytes[i] += lc.Bytes[i]
		}
	}
	for _, l := range f.Net.Links {
		s.txFrames += l.TxFrames
		s.txBytes += l.TxBytes
		s.lost += l.LostDeliveries
		s.dup += l.DupDeliveries
		s.corrupted += l.CorruptedDeliveries
	}
	if f.Kern != nil {
		s.windows = f.Kern.Windows()
	}
	s.anchorLocal, _ = f.HandoverCounts()
	s.obsRecords = f.Opt.Obs.Len()
	if reg := f.Opt.Telemetry; reg != nil {
		cols := reg.Columns()
		for _, row := range reg.Rows() {
			for i, name := range cols {
				switch name {
				case "engine/sg_high_water":
					s.sgHighWater = math.Max(s.sgHighWater, row.V[i])
				case "mipv6/bindings":
					s.bindingsPeak = math.Max(s.bindingsPeak, row.V[i])
				}
			}
		}
	}
	return s
}

// mergedRunStats folds the scheduler counters of every region.
func mergedRunStats(f *scenario.Network) sim.RunStats {
	var rs sim.RunStats
	for _, s := range f.Scheds() {
		rs = exp.MergeRunStats(rs, s.RunStats())
	}
	return rs
}

// window brackets a stretch of cells with process-level counters: heap
// allocations, CPU time and GC work.
type window struct {
	wall                time.Duration
	mallocs, allocBytes uint64
	cpu                 time.Duration
	gc                  gcCounters
}

type windowStart struct {
	t   time.Time
	ms  runtime.MemStats
	cpu time.Duration
	gc  gcCounters
}

func beginWindow() windowStart {
	var w windowStart
	runtime.ReadMemStats(&w.ms)
	w.cpu = processCPU()
	w.gc = readGC()
	w.t = time.Now()
	return w
}

func (w windowStart) end() window {
	wall := time.Since(w.t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gc := readGC()
	return window{
		wall:       wall,
		mallocs:    ms.Mallocs - w.ms.Mallocs,
		allocBytes: ms.TotalAlloc - w.ms.TotalAlloc,
		cpu:        processCPU() - w.cpu,
		gc:         gc.sub(w.gc),
	}
}

func (w *window) add(o window) {
	w.wall += o.wall
	w.mallocs += o.mallocs
	w.allocBytes += o.allocBytes
	w.cpu += o.cpu
	w.gc = w.gc.add(o.gc)
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

// timedRun is the end-to-end run: one untimed warm-up unit, then units
// cycling through the pool until the time budget is spent. After each
// unit the calibration kernel runs for a share of the unit's wall time;
// the times are scaled to reference seconds by the kernel's median over
// the whole run.
func timedRun(w *workload, seed int64, budget time.Duration, chk *checker) (map[string]metric, map[string]any) {
	chk.unit(w.unit(unitSeed(seed, 0), nil))
	runtime.GC()

	var cells []cell
	var cal calibrator
	ws := beginWindow()
	for k := 0; k == 0 || time.Since(ws.t) < budget; k++ {
		t := time.Now()
		u := w.unit(unitSeed(seed, k%w.pool), nil)
		unitWall := time.Since(t)
		chk.unit(u)
		cells = append(cells, u.cells...)
		cal.measure(time.Duration(calibrationShare * float64(unitWall)))
	}
	win := ws.end()

	walls := make([]float64, len(cells))
	setups := make([]float64, len(cells))
	var frames uint64
	var hostSeconds float64
	for i, c := range cells {
		walls[i] = c.wall.Seconds()
		setups[i] = c.setup.Seconds()
		hostSeconds += c.wall.Seconds()
		frames += c.layer.frames()
	}
	n := float64(len(cells))
	scale := cal.scale()
	m := map[string]metric{
		"cell_s":            {median(walls) * scale, "s"},
		"frames_per_s":      {float64(frames) / (hostSeconds * scale), "1/s"},
		"setup_s":           {median(setups) * scale, "s"},
		"allocs_per_cell":   {float64(win.mallocs-cal.mallocs) / n, "count"},
		"alloc_mb_per_cell": {float64(win.allocBytes-cal.bytes) / 1e6 / n, "MB"},
		"peak_rss_mb":       {peakRSSBytes() / 1e6, "MB"},
		"ok_frac":           {float64(chk.attempted-chk.failed) / float64(max(chk.attempted, 1)), "frac"},
	}
	extra := map[string]any{
		"cell_s_n": len(cells), "cell_host_s": median(walls),
		"calibration_s": median(cal.samples), "calibration_n": len(cal.samples),
	}
	if p, v, ok := tailPercentile(walls); ok {
		extra["cell_s_tail_pct"] = p
		extra["cell_s_tail"] = v * scale
	}
	return m, extra
}

// median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentile returns the highest of a fixed ladder of percentiles
// that still has at least ten samples above it, and its value.
func tailPercentile(xs []float64) (float64, float64, bool) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		idx := int(math.Ceil(p/100*float64(len(s)))) - 1
		if idx >= 0 && len(s)-1-idx >= 10 {
			return p, s[idx], true
		}
	}
	return 0, 0, false
}

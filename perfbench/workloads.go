package main

import (
	"fmt"
	"time"

	mip6mcast "mip6mcast"
	"mip6mcast/internal/checkpoint"
	"mip6mcast/internal/exp"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/telemetry"
	"mip6mcast/internal/topo"
)

// defaultSeed is the seed whose cells have stored reference rows.
const defaultSeed = 1

// A workload is a family of units. A unit is the smallest batch of cells
// one public entry point runs at once; a run cycles through pool units,
// each with its own seed derived from the run seed, so the same run seed
// always replays the same inputs.
type workload struct {
	name string
	pool int
	unit func(seed int64, tr *tracer) unit
}

// unit is the outcome of one unit: its cells plus unit-level costs.
type unit struct {
	cells []cell
	// capture is the checkpoint.Capture time (chaos-fork only).
	capture time.Duration
	// topoGen is the topology and workload generation time, measured by
	// repeating those calls outside the cell (traced units only).
	topoGen time.Duration
}

// cell is one experiment cell: one simulated timeline.
type cell struct {
	// key identifies the cell's inputs: "<unit seed>/<variant>".
	key   string
	wall  time.Duration
	setup time.Duration
	// rows are the simulated outputs the check compares.
	rows map[string]float64
	// err is non-empty when the cell failed: an error, a contained panic
	// or an invariant violation.
	err   string
	layer layerSample
}

var workloads = []*workload{
	{name: "fig1-approaches", pool: 8, unit: fig1Unit},
	{name: "grid-flood", pool: 4, unit: gridUnit},
	{name: "ba-hpim-sharded", pool: 8, unit: baUnit},
	{name: "chaos-fork", pool: 8, unit: chaosUnit},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// unitSeed derives the seed of pool unit k from the run seed.
func unitSeed(seed int64, k int) int64 { return exp.DeriveSeed(seed, k+1) }

// fig1Unit runs the paper's T1 movement scenario on the Figure 1 network
// under every registered approach: one cell per approach.
func fig1Unit(seed int64, tr *tracer) unit {
	opt := mip6mcast.DefaultOptions()
	opt.Seed = seed
	var u unit
	if tr != nil {
		t := time.Now()
		_ = topo.Figure1()
		u.topoGen = time.Since(t)
	}
	cells, res, err := runExp("t1", opt, nil, tr)
	u.cells = cells
	if err != nil {
		failAll(u.cells, err.Error())
		return u
	}
	for i := range u.cells {
		c := &u.cells[i]
		if i >= len(res.Rows) {
			c.key = fmt.Sprintf("%d/cell%d", seed, i)
			c.fail("no result row")
			continue
		}
		row := res.Rows[i]
		c.key = fmt.Sprintf("%d/%s", seed, row.Label)
		c.rows = row.Values
		// Every approach delivers the group and re-joins the moved
		// receiver within a second, losing only the datagrams in flight
		// around the move (the scenario sends 10 per second).
		if j := c.rows["join(s)"]; j <= 0 || j >= 1 {
			c.fail(fmt.Sprintf("receiver R3 re-joined after %v s, want (0, 1)", j))
		}
		if l := c.rows["lossR3"]; l > 10 {
			c.fail(fmt.Sprintf("receiver R3 lost %v datagrams, want at most 10", l))
		}
		if c.rows["data(kB)"] <= 0 {
			c.fail("no multicast data delivered")
		}
	}
	return u
}

// scaleParams are the scale-experiment cells of the two generated-topology
// workloads.
var (
	gridParams = exp.Params{
		"families": "grid", "routers": []int{100}, "mns": 400, "horizon": 30,
		"engine": "pimdm", "approach": "local-membership",
	}
	baParams = exp.Params{
		"families": "ba", "routers": []int{200}, "mns": 800, "horizon": 30,
		"engine": "hpimdm", "approach": "local-membership",
	}
)

// baShards configures the sharded kernel for ba-hpim-sharded.
func baShards(opt scenario.Options) scenario.Options {
	opt.Shards, opt.ShardWorkers, opt.CoreLinkDelay = 2, 2, 2*time.Millisecond
	return opt
}

func gridUnit(seed int64, tr *tracer) unit {
	return scaleUnit(seed, tr, gridParams, func(o scenario.Options) scenario.Options { return o })
}

func baUnit(seed int64, tr *tracer) unit { return scaleUnit(seed, tr, baParams, baShards) }

// scaleUnit runs one scale-experiment cell: generate the topology and the
// mobile-node workload, build, churn, quiesce and check invariants.
func scaleUnit(seed int64, tr *tracer, p exp.Params, tune func(scenario.Options) scenario.Options) unit {
	opt := tune(mip6mcast.DefaultOptions())
	opt.Seed = seed
	var u unit
	if tr != nil {
		u.topoGen = timeTopoGen(opt, p)
	}
	cells, _, err := runExp("scale", opt, p, tr)
	u.cells = cells
	if err != nil {
		failAll(u.cells, err.Error())
		return u
	}
	for i := range u.cells {
		c := &u.cells[i]
		c.key = fmt.Sprintf("%d/%s", seed, p["families"])
		if c.err == "" && c.rows["violations"] != 0 {
			c.fail(fmt.Sprintf("%v convergence invariant violations", c.rows["violations"]))
		}
	}
	if len(u.cells) != 1 {
		failAll(u.cells, fmt.Sprintf("scale unit ran %d cells, want 1", len(u.cells)))
	}
	return u
}

// timeTopoGen repeats the scale cell's topology and workload generation
// (topo.FromSpec, topo.PartitionGraph, topo.GenWorkload) with the cell's
// inputs and times it. The constants mirror the scale experiment's
// workload shape: two sources, half the mobile nodes members, a 20 s mean
// dwell and moves from t=15 s to the end of the churn window.
func timeTopoGen(opt scenario.Options, p exp.Params) time.Duration {
	t := time.Now()
	family := p["families"].(string)
	g, err := topo.FromSpec(family, p["routers"].([]int)[0], opt.Seed)
	if err != nil {
		return time.Since(t)
	}
	var linkRegion []int
	if opt.Shards > 1 {
		if part := topo.PartitionGraph(g, opt.Shards, opt.MobilityGroups); part.N > 1 {
			linkRegion = part.LinkRegion(g)
		}
	}
	const settle = 15 * time.Second
	_, _ = topo.GenWorkload(g, topo.WorkloadSpec{
		MNs: p["mns"].(int), Sources: 2, MemberFrac: 0.5, MeanDwell: 20 * time.Second,
		Start: settle, Horizon: settle + time.Duration(p["horizon"].(int))*time.Second,
		Seed: opt.Seed ^ 0x5ca1ab1e, LinkRegion: linkRegion,
	})
	return time.Since(t)
}

// runExp runs one registered experiment with Workers=1 and turns every
// completed timeline into a cell. Set-up time is the cell's wall time
// minus the time from the OnNetwork callback to the cell's end.
func runExp(name string, opt scenario.Options, p exp.Params, tr *tracer) ([]cell, exp.Result, error) {
	var (
		cells []cell
		w     netWatch
	)
	opt.OnNetwork = w.hook(tr)
	ctx := mip6mcast.ExpContext{
		Opt: opt, Replicates: 1, Workers: 1,
		Progress: func(cs exp.CellStats) {
			c := cell{wall: cs.Wall, err: cs.Err, rows: cs.Vals}
			if w.net != nil {
				c.setup = cs.Wall - time.Since(w.built)
				c.layer = sampleNetwork(w.net)
			}
			c.layer.stats = cs.Sched
			cells = append(cells, c)
			w.net = nil
		},
	}
	if tr != nil {
		ctx.Telemetry = func(int, int) *telemetry.Registry { return telemetry.NewRegistry() }
	}
	res, err := mip6mcast.RunExperiment(name, ctx, p)
	if err != nil && len(cells) == 0 {
		cells = []cell{{}} // the experiment never ran: count one failed cell
	}
	return cells, res, err
}

// netWatch remembers the network a cell built and when its build ended.
type netWatch struct {
	net   *scenario.Network
	built time.Time
}

// hook is the Options.OnNetwork callback: it records the network and
// attaches the tracer (a no-op for untraced cells).
func (w *netWatch) hook(tr *tracer) func(*scenario.Network) {
	return func(f *scenario.Network) {
		w.net, w.built = f, time.Now()
		tr.attach(f)
	}
}

// chaosUnit warms one chaos prefix, captures it with checkpoint.Capture,
// and forks each impairment cell from it with checkpoint.Restore and
// RunChaosCell — the sweep daemon's hot path. One cell per impairment.
func chaosUnit(seed int64, tr *tracer) (u unit) {
	names := mip6mcast.ChaosCells()
	defer func() {
		// A panic outside a cell (warm prefix, capture) fails the unit.
		if r := recover(); r != nil {
			u.cells = make([]cell, len(names))
			for i, n := range names {
				u.cells[i].key = fmt.Sprintf("%d/%s", seed, n)
			}
			failAll(u.cells, fmt.Sprintf("panic: %v", r))
		}
	}()
	var w netWatch
	base := mip6mcast.ChaosOptions(mip6mcast.DefaultOptions())
	base.Seed = seed
	base.OnNetwork = w.hook(tr)
	// Each build gets its own telemetry registry (one registry serves one
	// timeline); the warm prefix is traced too, so the checkpoint replays
	// the same event sequence as the traced fork.
	options := func() scenario.Options {
		o := base
		if tr != nil {
			o.Telemetry = telemetry.NewRegistry()
		}
		return o
	}
	if tr != nil {
		t := time.Now()
		_ = topo.Figure1()
		u.topoGen = time.Since(t)
	}
	warmed := mip6mcast.StartChaos(options())
	t := time.Now()
	cp := checkpoint.Capture(warmed.F, checkpoint.Meta{Experiment: "chaos-warm", Seed: seed, Engine: base.EngineName()})
	u.capture = time.Since(t)
	for _, name := range names {
		u.cells = append(u.cells, chaosCell(cp, name, seed, options, &w))
	}
	return u
}

func chaosCell(cp *checkpoint.Checkpoint, name string, seed int64, options func() scenario.Options, w *netWatch) (c cell) {
	c.key = fmt.Sprintf("%d/%s", seed, name)
	w.net = nil
	start := time.Now()
	var restore time.Duration
	defer func() {
		if r := recover(); r != nil {
			c.fail(fmt.Sprintf("panic: %v", r))
		}
		c.wall = time.Since(start)
		if w.net != nil {
			c.setup = w.built.Sub(start)
			c.layer = sampleNetwork(w.net)
			c.layer.stats = mergedRunStats(w.net)
		}
		c.layer.restore = restore
	}()
	var forked *mip6mcast.Run
	if _, err := checkpoint.Restore(cp, func() (*scenario.Network, error) {
		forked = mip6mcast.StartChaos(options())
		return forked.F, nil
	}); err != nil {
		c.fail("restore: " + err.Error())
		return c
	}
	restore = time.Since(start)
	out, err := mip6mcast.RunChaosCell(forked, name, "")
	if err != nil {
		c.fail(err.Error())
		return c
	}
	c.rows = map[string]float64{
		"violations": float64(len(out.Violations)),
		"conv(s)":    out.ConvTime,
		"deliv-R1":   out.DelivR1,
		"deliv-R3":   out.DelivR3,
		"pim(B)":     float64(out.PIMBytes),
		"lost":       float64(out.Lost),
		"dup":        float64(out.Dup),
		"corrupted":  float64(out.Corrupted),
	}
	if len(out.Violations) > 0 {
		c.fail(fmt.Sprintf("%d invariant violations, first: %s", len(out.Violations), out.Violations[0]))
	}
	return c
}

func (c *cell) fail(msg string) {
	if c.err == "" {
		c.err = msg
	}
}

func failAll(cells []cell, msg string) {
	for i := range cells {
		cells[i].fail(msg)
	}
}

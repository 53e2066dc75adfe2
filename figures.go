package mip6mcast

import (
	"time"

	"mip6mcast/internal/exp"
	"mip6mcast/internal/metrics"
	"mip6mcast/internal/pimdm"
	"mip6mcast/internal/scenario"
	"mip6mcast/internal/sim"
)

// The paper's figure experiments f1–f4 (DESIGN.md §4): each contrasts the
// paper's variants on the Figure 1 network and adds a proxy-hierarchy row
// or column. Table 1 and the §4.3/§4.4 sweeps live in table1_sweeps.go.

// F1Result captures the converged Figure 1 tree.
type F1Result struct {
	// DataBytesPerLink is multicast data carried per link over the run.
	DataBytesPerLink map[string]uint64
	// FloodFramesL5 counts data frames on the pruned branch (only the
	// pre-prune flood should appear).
	FloodFramesL5 int
	FramesL6      int
	// TreeAtD is router D's converged (S,G) view.
	TreeAtD []pimdm.SGInfo
	// Delivered counts datagrams per receiver; Sent is the CBR total.
	Delivered map[string]int
	Sent      uint64
}

var expF1 = &exp.Experiment{
	Name: "f1",
	Desc: "Figure 1: initial distribution tree (flood-and-prune convergence)",
	Run:  runExpF1,
}

func runExpF1(ctx exp.Context, p exp.Params) exp.Result {
	// Column 0 is the paper's flat build; column 1 rebuilds the same tree
	// with the edge routers peeled into MLD-proxy domains (approach #5) —
	// same delivery, aggregated state instead of per-proxy PIM state.
	approaches := []Approach{LocalMembership, ProxyHierarchy}
	cols := []string{"flat", "proxy"}
	var out [2]F1Result
	exp.ForEach(ctx, len(approaches), func(opt scenario.Options, i int) {
		out[i] = measureF1(opt, approaches[i])
	})
	val := func(get func(F1Result) float64) map[string]float64 {
		return map[string]float64{"flat": get(out[0]), "proxy": get(out[1])}
	}
	rows := []metrics.Row{
		{Label: "sent", Values: val(func(r F1Result) float64 { return float64(r.Sent) })},
	}
	for _, name := range []string{"R1", "R2", "R3"} {
		name := name
		rows = append(rows, metrics.Row{
			Label:  "delivered@" + name,
			Values: val(func(r F1Result) float64 { return float64(r.Delivered[name]) }),
		})
	}
	for _, l := range scenario.LinkNames() {
		l := l
		rows = append(rows, metrics.Row{
			Label:  "data@" + l + "(B)",
			Values: val(func(r F1Result) float64 { return float64(r.DataBytesPerLink[l]) }),
		})
	}
	rows = append(rows,
		metrics.Row{Label: "flood-frames@L5", Values: val(func(r F1Result) float64 { return float64(r.FloodFramesL5) })},
		metrics.Row{Label: "frames@L6", Values: val(func(r F1Result) float64 { return float64(r.FramesL6) })},
		metrics.Row{Label: "sg-entries@D", Values: val(func(r F1Result) float64 { return float64(len(r.TreeAtD)) })},
	)
	return exp.Result{
		Title:   "F1: initial distribution tree (paper Figure 1; flat vs proxy build)",
		Columns: cols,
		Rows:    rows,
	}
}

// measureF1 reproduces Figure 1: all hosts at home, S streaming to the
// group; PIM-DM floods, prunes Links 5/6, and settles on the L1–L4 tree.
func measureF1(opt Options, approach Approach) F1Result {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	l5 := r.WatchLink("L5")
	l6 := r.WatchLink("L6")
	for _, n := range scenario.LinkNames() {
		r.WatchLink(n)
	}
	r.F.Run(60 * time.Second)

	res := F1Result{
		DataBytesPerLink: map[string]uint64{},
		FloodFramesL5:    l5.Frames,
		FramesL6:         l6.Frames,
		TreeAtD:          r.F.Routers["D"].Engine.Entries(),
		Delivered:        map[string]int{},
		Sent:             r.CBR.Sent,
	}
	for _, n := range scenario.LinkNames() {
		res.DataBytesPerLink[n] = r.WatchLink(n).Bytes
	}
	for name, p := range r.Probes {
		res.Delivered[name] = p.Count()
	}
	return res
}

// F2Result quantifies the paper's Figure 2 discussion.
type F2Result struct {
	// JoinDelay is how long after attaching to Link 6 the receiver got its
	// next datagram.
	JoinDelay time.Duration
	Rejoined  bool
	// LeaveDelay is how long Router D kept forwarding onto Link 4 after
	// the receiver left (bounded by T_MLI = 260 s with defaults).
	LeaveDelay time.Duration
	// WastedBytes is multicast data transmitted onto Link 4 during the
	// leave delay (the paper's bandwidth-consumption criterion).
	WastedBytes uint64
	// Delivered on L6 after the move.
	DeliveredAfterMove int
}

var expF2 = &exp.Experiment{
	Name: "f2",
	Desc: "Figure 2: mobile receiver with local membership (join/leave delays)",
	Run:  runExpF2,
}

func runExpF2(ctx exp.Context, p exp.Params) exp.Result {
	// Rows 0/1 are the paper's report-policy contrast under local
	// membership; row 2 repeats the unsolicited-report move under the
	// proxy hierarchy, where L4→L6 is an anchor-local handover.
	var out [3]F2Result
	exp.ForEach(ctx, 3, func(opt scenario.Options, i int) {
		approach := LocalMembership
		if i == 2 {
			approach = ProxyHierarchy
		}
		out[i] = measureF2(opt, i != 1, approach)
	})
	labels := []string{"unsolicited-reports", "wait-for-query", "proxy-hierarchy"}
	cols := []string{"join(s)", "leave(s)", "waste(B)", "delivered-after"}
	rows := make([]metrics.Row, 0, len(out))
	for i, res := range out {
		rows = append(rows, metrics.Row{
			Label: labels[i],
			Values: map[string]float64{
				"join(s)":         res.JoinDelay.Seconds(),
				"leave(s)":        res.LeaveDelay.Seconds(),
				"waste(B)":        float64(res.WastedBytes),
				"delivered-after": float64(res.DeliveredAfterMove),
			},
		})
	}
	return exp.Result{
		Title:   "F2: mobile receiver, local membership (paper Figure 2)",
		Columns: cols,
		Rows:    rows,
	}
}

// measureF2 reproduces Figure 2: Receiver 3 moves from Link 4 to the
// pruned Link 6. unsolicitedReports selects the paper's recommended
// optimization; with it off the receiver waits for the next MLD Query.
func measureF2(opt Options, unsolicitedReports bool, approach Approach) F2Result {
	opt.HostMLD.ResendOnMove = unsolicitedReports
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	l4 := r.WatchLink("L4")
	// Run past the MLD startup-query phase so the no-unsolicited join path
	// waits for a regular periodic Query, as the paper's analysis assumes.
	r.F.Run(60 * time.Second)

	moveAt := r.MoveHost("R3", "L6")
	// Run past T_MLI plus slack so the leave delay completes, and past a
	// full query interval for the no-unsolicited join path.
	horizon := opt.MLD.ListenerInterval() + opt.MLD.QueryInterval + 60*time.Second
	r.F.Run(horizon)

	res := F2Result{}
	if d, ok := r.JoinDelay("R3", moveAt); ok {
		res.JoinDelay = d
		res.Rejoined = true
	}
	if l4.Last > moveAt {
		res.LeaveDelay = l4.Last.Sub(moveAt)
	}
	// Wasted bytes: data on L4 after the move (R3 was its only member).
	res.WastedBytes = l4.BytesAfter(moveAt)
	res.DeliveredAfterMove = r.Probes["R3"].CountBetween(moveAt, sim.Time(1<<62))
	return res
}

// F3Result quantifies Figure 3.
type F3Result struct {
	// JoinDelay after the move (should be ≈ binding registration, far
	// below the MLD-driven delays of F2).
	JoinDelay time.Duration
	Rejoined  bool
	// TunnelOverheadBytes across all links (encapsulation headers).
	TunnelOverheadBytes uint64
	// MeanHops the delivered datagrams traveled after the move, vs the
	// unicast-optimal router count from the sender's link.
	MeanHops    float64
	OptimalHops int
	// HATunneled counts datagrams the home agent put into the tunnel.
	HATunneled uint64
}

var expF3 = &exp.Experiment{
	Name: "f3",
	Desc: "Figure 3: mobile receiver via home-agent tunnel (both §4.3.2 variants)",
	Run:  runExpF3,
}

func runExpF3(ctx exp.Context, p exp.Params) exp.Result {
	variants := []HAVariant{VariantGroupListBU, VariantTunneledMLD}
	// The third row contrasts both tunnel variants with the proxy
	// hierarchy: R3's move lands below proxy A (domain B), so it rejoins
	// locally through the proxy tree — no tunnel, near-optimal hops.
	labels := []string{"group-list-BU", "tunneled-MLD", "proxy-hierarchy"}
	results := make([]F3Result, len(variants)+1)
	exp.ForEach(ctx, len(results), func(opt scenario.Options, i int) {
		if i < len(variants) {
			results[i] = measureF3(opt, variants[i])
		} else {
			results[i] = measureF3Run(opt, ProxyHierarchy)
		}
	})
	cols := []string{"join(s)", "hops", "optimal", "tun-ovh(B)", "ha-tunneled"}
	rows := make([]metrics.Row, 0, len(results))
	for i, res := range results {
		rows = append(rows, metrics.Row{
			Label: labels[i],
			Values: map[string]float64{
				"join(s)":     res.JoinDelay.Seconds(),
				"hops":        res.MeanHops,
				"optimal":     float64(res.OptimalHops),
				"tun-ovh(B)":  float64(res.TunnelOverheadBytes),
				"ha-tunneled": float64(res.HATunneled),
			},
		})
	}
	return exp.Result{
		Title:   "F3: mobile receiver via home-agent tunnel (paper Figure 3)",
		Columns: cols,
		Rows:    rows,
	}
}

// measureF3 reproduces Figure 3: Receiver 3 moves from Link 4 to Link 1
// and receives through its home agent (Router D) over the tunnel. The
// variant selects the paper's §4.3.2 signaling mechanism.
func measureF3(opt Options, variant HAVariant) F3Result {
	approach := UniTunnelHAToMN
	approach.Variant = variant
	return measureF3Run(opt, approach)
}

// measureF3Run drives the Figure 3 timeline (R3 moves L4→L1) under any
// receive approach; the proxy-hierarchy contrast row reuses it with
// tunnel-free metrics naturally reading zero.
func measureF3Run(opt Options, approach Approach) F3Result {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	r.F.Run(30 * time.Second)

	moveAt := r.MoveHost("R3", "L1")
	r.F.Run(120 * time.Second)

	res := F3Result{OptimalHops: r.OptimalRouterHops("L1", "L1")}
	if d, ok := r.JoinDelay("R3", moveAt); ok {
		res.JoinDelay = d
		res.Rejoined = true
	}
	res.TunnelOverheadBytes = r.F.Acct.TotalBytes(metrics.ClassTunnel)
	res.MeanHops = r.Probes["R3"].MeanHops(moveAt+sim.Time(20*time.Second), sim.Time(1<<62))
	ha := r.F.HomeAgentOf("R3")
	res.HATunneled = ha.MulticastTunneled
	return res
}

// F4Result quantifies Figure 4 and its contrast with local sending.
type F4Result struct {
	// MaxGapAfterMove is the worst delivery interruption any static
	// receiver saw around the sender's move.
	MaxGapAfterMove time.Duration
	// NewTreesBuilt counts PIM floods started after the move (reverse
	// tunneling keeps the original (S,G); local sending builds a new one).
	NewTreesBuilt uint64
	// PeakSGEntries is the maximum simultaneous (S,G) state across all
	// routers (stale trees linger for the 210 s data timeout).
	PeakSGEntries int
	// AssertsSent across all routers after the move.
	AssertsSent uint64
	// TunnelOverheadBytes spent on the reverse tunnel.
	TunnelOverheadBytes uint64
	// DeliveredAfterMove per receiver.
	DeliveredAfterMove map[string]int
}

var expF4 = &exp.Experiment{
	Name: "f4",
	Desc: "Figure 4: mobile sender, reverse tunnel vs local sending",
	Run:  runExpF4,
}

func runExpF4(ctx exp.Context, p exp.Params) exp.Result {
	// Rows 0/1 are the paper's send-mode contrast; row 2 moves the sender
	// under the proxy hierarchy, where L6 sits below proxy E and the new
	// source is up-forwarded into anchor D's existing domain.
	var out [3]F4Result
	exp.ForEach(ctx, 3, func(opt scenario.Options, i int) {
		switch i {
		case 2:
			out[i] = measureF4Run(opt, ProxyHierarchy)
		default:
			out[i] = measureF4(opt, i == 0)
		}
	})
	labels := []string{"reverse-tunnel", "local-send", "proxy-hierarchy"}
	cols := []string{"gap(s)", "newtrees", "peakSG", "asserts", "tun(B)", "recv-R1", "recv-R2", "recv-R3"}
	rows := make([]metrics.Row, 0, len(out))
	for i, res := range out {
		vals := map[string]float64{
			"gap(s)":   res.MaxGapAfterMove.Seconds(),
			"newtrees": float64(res.NewTreesBuilt),
			"peakSG":   float64(res.PeakSGEntries),
			"asserts":  float64(res.AssertsSent),
			"tun(B)":   float64(res.TunnelOverheadBytes),
		}
		for _, name := range []string{"R1", "R2", "R3"} {
			vals["recv-"+name] = float64(res.DeliveredAfterMove[name])
		}
		rows = append(rows, metrics.Row{Label: labels[i], Values: vals})
	}
	return exp.Result{
		Title:   "F4: mobile sender (paper Figure 4 vs local sending)",
		Columns: cols,
		Rows:    rows,
	}
}

// measureF4 reproduces Figure 4 (sendTunnel=true: Sender S moves to Link 6
// and reverse-tunnels to Router A) and the §4.2.2-A contrast
// (sendTunnel=false: S sends locally and PIM-DM builds a new tree).
func measureF4(opt Options, sendTunnel bool) F4Result {
	approach := LocalMembership
	if sendTunnel {
		approach = UniTunnelMNToHA
	}
	return measureF4Run(opt, approach)
}

// measureF4Run drives the Figure 4 timeline (S moves to L6) under any
// approach; the proxy-hierarchy row sends locally from below proxy E,
// which up-forwards to the anchor instead of re-flooding from scratch.
func measureF4Run(opt Options, approach Approach) F4Result {
	r := NewRun(opt, approach, 100*time.Millisecond, 64)
	peak := 0
	sim.NewTicker(r.F.Sched, time.Second, 0, func() {
		if n := r.F.TotalSGEntries(); n > peak {
			peak = n
		}
	})
	r.F.Run(30 * time.Second)

	before := r.F.MulticastStats()
	moveAt := r.MoveHost("S", "L6")
	r.F.Run(120 * time.Second)
	after := r.F.MulticastStats()

	res := F4Result{
		NewTreesBuilt:       after.FloodsStarted - before.FloodsStarted,
		PeakSGEntries:       peak,
		AssertsSent:         after.AssertsSent - before.AssertsSent,
		TunnelOverheadBytes: r.F.Acct.TotalBytes(metrics.ClassTunnel),
		DeliveredAfterMove:  map[string]int{},
	}
	end := moveAt + sim.Time(60*time.Second)
	for name, p := range r.Probes {
		res.DeliveredAfterMove[name] = p.CountBetween(moveAt, end)
		if g := p.MaxGap(moveAt-sim.Time(5*time.Second), end); time.Duration(g) > res.MaxGapAfterMove {
			res.MaxGapAfterMove = time.Duration(g)
		}
	}
	return res
}

package sim

import (
	"fmt"
	"sort"
	"time"
)

// This file is the sharded parallel kernel: one deterministic virtual
// timeline executed by several region Schedulers in lock-step windows.
//
// The synchronization is the classic conservative bounded-lag scheme
// (Chandy–Misra–Bryant style lookahead, expressed as synchronous time
// windows rather than null messages): if every cross-region interaction
// carries at least `lookahead` of virtual latency, then all events strictly
// before W = min(next event time over all regions) + lookahead are
// independent of anything another region has yet to do — each region may
// execute them without hearing from its neighbors. Cross-region frames
// become timestamped messages appended to per-destination outboxes during a
// window and merged into the destination queues at the barrier; since any
// message generated in the window was sent at or after min-next-event time,
// its arrival is at or after W and the merge is always safe.
//
// Determinism does not depend on the worker count: regions share nothing
// during a window (the race detector enforces this in CI), and the barrier
// merge orders messages by (source region, append order) before stamping
// destination sequence numbers.

// xmsg is one cross-region message: a callback to run at a virtual time in
// another region, carrying the sender's handler tag for attribution.
type xmsg struct {
	at   Time
	tag  string
	fn   func() // exactly one of fn and call is set
	call Caller
}

// Region returns the region index assigned by kernel wiring (0 when the
// scheduler is not part of a sharded run).
func (s *Scheduler) Region() int { return s.region }

// Post schedules fn at absolute time t on dst. Within one region (or in an
// unsharded run) it is Scheduler.At; across regions it appends to the
// sender's outbox, to be merged into dst's queue at the next window
// barrier. Cross-region posts must respect the kernel's lookahead: t has to
// be at least the sender's current time plus the configured lookahead.
func (s *Scheduler) Post(dst *Scheduler, t Time, fn func()) {
	if s == dst || s.outbox == nil {
		dst.At(t, fn)
		return
	}
	if fn == nil {
		panic("sim: Post called with nil func")
	}
	s.outbox[dst.region] = append(s.outbox[dst.region], xmsg{at: t, tag: s.curTag, fn: fn})
}

// PostCall is Post for a typed callback (see AtCall). A cross-region c
// runs on dst's goroutine, so it must hand any pooled state it carries to
// dst's side, never back to the sender's.
func (s *Scheduler) PostCall(dst *Scheduler, t Time, c Caller) {
	if s == dst || s.outbox == nil {
		dst.AtCall(t, c)
		return
	}
	if c == nil {
		panic("sim: PostCall called with nil Caller")
	}
	s.outbox[dst.region] = append(s.outbox[dst.region], xmsg{at: t, tag: s.curTag, call: c})
}

// NextEventTime returns the time of the earliest pending event.
func (s *Scheduler) NextEventTime() (Time, bool) {
	e := s.peek()
	if e == nil {
		return 0, false
	}
	return e.at, true
}

// runWindow executes all events strictly before limit and leaves the clock
// at limit. It is the per-region body of one kernel window.
func (s *Scheduler) runWindow(limit Time) {
	s.stopped = false
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at >= limit {
			break
		}
		s.Step()
	}
	if s.now < limit {
		s.now = limit
	}
}

// periodicHook is a barrier-driven sampler: fn runs single-threaded with
// every region clock equal to the due time, once per period.
type periodicHook struct {
	every time.Duration
	due   Time
	fn    func()
}

// driverAction is a one-shot scripted action at an exact virtual time; the
// kernel forces a barrier there and runs it single-threaded.
type driverAction struct {
	at  Time
	seq int // insertion order among actions at the same instant
	fn  func()
}

// Kernel drives a set of region schedulers as one deterministic timeline.
type Kernel struct {
	regions   []*Scheduler
	lookahead time.Duration
	workers   int

	folds   []func()
	hooks   []*periodicHook
	actions []driverAction
	actSeq  int

	base    Time
	windows uint64
}

// NewKernel wires regions into a sharded timeline. lookahead must be
// positive and no larger than the smallest cross-region latency the caller
// will use; workers bounds intra-window parallelism (<= 0 selects one per
// region). Region i of the wiring is regions[i]; their outboxes are sized
// here.
func NewKernel(regions []*Scheduler, lookahead time.Duration, workers int) *Kernel {
	if len(regions) == 0 {
		panic("sim: NewKernel with no regions")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: NewKernel lookahead %v must be positive", lookahead))
	}
	if workers <= 0 || workers > len(regions) {
		workers = len(regions)
	}
	k := &Kernel{regions: regions, lookahead: lookahead, workers: workers}
	for i, s := range regions {
		s.region = i
		s.outbox = make([][]xmsg, len(regions))
	}
	return k
}

// Regions returns the region schedulers in region order.
func (k *Kernel) Regions() []*Scheduler { return k.regions }

// Lookahead returns the conservative window slack.
func (k *Kernel) Lookahead() time.Duration { return k.lookahead }

// Now returns the kernel's barrier time. All region clocks equal it
// whenever the kernel is not inside RunUntil.
func (k *Kernel) Now() Time { return k.base }

// Windows reports how many synchronization windows have executed.
func (k *Kernel) Windows() uint64 { return k.windows }

// Processed sums events executed across all regions.
func (k *Kernel) Processed() uint64 {
	var n uint64
	for _, s := range k.regions {
		n += s.Processed()
	}
	return n
}

// OnBarrier registers a fold to run single-threaded at every window
// barrier, before hooks and driver actions. Cross-region link state
// (counters, peer mirrors) folds here.
func (k *Kernel) OnBarrier(fn func()) { k.folds = append(k.folds, fn) }

// Every registers a periodic probe: fn runs at every multiple of period
// (first at Now()+period) with all region clocks equal to the due time — a
// consistent cut. The kernel forces barriers at due times, so probes see
// exact-cadence timestamps.
func (k *Kernel) Every(period time.Duration, fn func()) {
	if period <= 0 {
		panic("sim: Kernel.Every with non-positive period")
	}
	k.hooks = append(k.hooks, &periodicHook{every: period, due: k.base.Add(period), fn: fn})
}

// At registers a one-shot driver action at absolute time t: the kernel
// forces a barrier there and runs fn single-threaded (scripted moves,
// crashes, impairment toggles). Times in the past run at the next barrier.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.base {
		t = k.base
	}
	k.actions = append(k.actions, driverAction{at: t, seq: k.actSeq, fn: fn})
	k.actSeq++
	sort.Slice(k.actions, func(a, b int) bool {
		if k.actions[a].at != k.actions[b].at {
			return k.actions[a].at < k.actions[b].at
		}
		return k.actions[a].seq < k.actions[b].seq
	})
}

// Schedule registers a driver action after a delay (see At).
func (k *Kernel) Schedule(d time.Duration, fn func()) { k.At(k.base.Add(d), fn) }

// nextForced returns the earliest forced-barrier time (hook due or driver
// action) or ok=false when none is registered.
func (k *Kernel) nextForced() (Time, bool) {
	var t Time
	ok := false
	for _, h := range k.hooks {
		if !ok || h.due < t {
			t, ok = h.due, true
		}
	}
	if len(k.actions) > 0 && (!ok || k.actions[0].at < t) {
		t, ok = k.actions[0].at, true
	}
	return t, ok
}

// drainOutboxes merges cross-region messages into their destination queues.
// Deterministic order: source regions ascending, then append order; each
// message gets a fresh destination sequence number, so the merged queue
// order is (arrival time, source region, send order).
func (k *Kernel) drainOutboxes() {
	for _, src := range k.regions {
		for di, msgs := range src.outbox {
			if len(msgs) == 0 {
				continue
			}
			dst := k.regions[di]
			for _, m := range msgs {
				if m.at < k.base {
					// A message due before the barrier means some
					// cross-region interaction had less virtual latency than
					// the configured lookahead — the conservative guarantee
					// is void and silently clamping would corrupt causality.
					panic(fmt.Sprintf("sim: cross-region message at %v arrived after barrier %v (lookahead %v too large)", m.at, k.base, k.lookahead))
				}
				prev := dst.PushTag(m.tag)
				dst.push(m.at, m.fn, m.call)
				dst.PopTag(prev)
			}
			src.outbox[di] = msgs[:0]
		}
	}
}

// barrier runs the single-threaded phase at base time t: merge messages,
// fold shared state, then due driver actions and periodic hooks in that
// order (scripted actions precede samplers at the same instant, matching
// the sequential build-order seq of scripted events).
func (k *Kernel) barrier(t Time) {
	k.drainOutboxes()
	for _, fn := range k.folds {
		fn()
	}
	for len(k.actions) > 0 && k.actions[0].at <= t {
		a := k.actions[0]
		k.actions = k.actions[1:]
		a.fn()
	}
	for _, h := range k.hooks {
		for h.due <= t {
			h.fn()
			h.due = h.due.Add(h.every)
		}
	}
	// Actions and hooks may have scheduled cross-region work directly; any
	// same-region scheduling went straight to the queues. A second drain
	// costs nothing when empty.
	k.drainOutboxes()
}

// RunUntil advances the timeline to deadline, executing every event at or
// before it (matching Scheduler.RunUntil's inclusive semantics). On return
// all region clocks equal deadline.
func (k *Kernel) RunUntil(deadline Time) {
	if deadline < k.base {
		return
	}
	for k.base < deadline {
		// Window end: min next event + lookahead, capped by the deadline
		// and the next forced barrier. Strictly above base because
		// lookahead > 0 and barrier processing at base already ran.
		w := deadline
		tmin := Time(0)
		have := false
		for _, s := range k.regions {
			if t, ok := s.NextEventTime(); ok && (!have || t < tmin) {
				tmin, have = t, true
			}
		}
		if have && tmin.Add(k.lookahead) < w {
			w = tmin.Add(k.lookahead)
		}
		if ft, ok := k.nextForced(); ok && ft < w {
			w = ft
		}
		if w <= k.base {
			// Forced barrier exactly at base (action registered for now by
			// a previous action): process and continue.
			k.barrier(k.base)
			continue
		}
		k.runRegions(func(s *Scheduler) { s.runWindow(w) })
		k.windows++
		k.base = w
		k.barrier(w)
	}
	// Closing pass: events exactly at the deadline (tickers on round
	// seconds, zero-delay chains they spawn) run region-parallel; anything
	// cross-region they generate arrives strictly later and stays queued.
	k.runRegions(func(s *Scheduler) { s.RunUntil(deadline) })
	k.barrier(deadline)
}

// Run advances the timeline by d (see RunUntil).
func (k *Kernel) Run(d time.Duration) { k.RunUntil(k.base.Add(d)) }

// runRegions executes body for every region, in parallel up to the worker
// budget. Regions with nothing to do before the window end still run (the
// body advances their clock), but sharing nothing they finish instantly.
func (k *Kernel) runRegions(body func(*Scheduler)) {
	RunParallel(len(k.regions), k.workers, func(i int) { body(k.regions[i]) })
}

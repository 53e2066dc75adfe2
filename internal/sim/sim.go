// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Scheduler owns a virtual clock and an event queue. Events scheduled for
// the same virtual time fire in the order they were scheduled (FIFO by
// sequence number), which together with a seeded random source makes every
// simulation run bit-reproducible.
//
// One goroutine drives one Scheduler. Parallelism comes at two levels:
// RunParallel runs independent replicates side by side, and a Kernel (see
// shard.go) splits one virtual timeline into region Schedulers that execute
// in parallel between conservative lookahead barriers, with output
// identical for any worker count.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as a duration since the start of
// the simulation. The zero Time is the simulation epoch.
type Time time.Duration

// Common virtual-time constants, mirroring the time package.
const (
	Nanosecond  Time = Time(time.Nanosecond)
	Microsecond Time = Time(time.Microsecond)
	Millisecond Time = Time(time.Millisecond)
	Second      Time = Time(time.Second)
	Minute      Time = Time(time.Minute)
	Hour        Time = Time(time.Hour)
)

// Duration converts t to a time.Duration since the simulation epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds since the epoch.
func (t Time) Seconds() float64 { return time.Duration(t).Seconds() }

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the time as seconds with millisecond precision, e.g. "12.345s".
func (t Time) String() string { return fmt.Sprintf("%.3fs", t.Seconds()) }

// Caller is a typed event callback. Scheduling a pooled record that
// implements Call (see AtCall and PostCall) costs no allocation, where a
// func literal capturing per-event state allocates one closure each time.
type Caller interface{ Call() }

// event is a scheduled callback. Events are pooled: once executed (or
// drained after cancellation) they return to the scheduler's free list and
// are reused by later At/Schedule calls. The generation counter invalidates
// stale Event handles across reuse.
type event struct {
	at     Time   // firing time; the queue slot's key may lag it (see extend)
	seq    uint64 // tie-break: FIFO among events at the same instant
	fn     func() // exactly one of fn and call is set
	call   Caller
	tag    string // handler tag inherited from the scheduling context
	queued bool   // waiting to fire; Cancel clears it, leaving a tombstone slot
	gen    uint64 // bumped on recycle; handles carry the gen they were issued at
}

// slot is one event-queue entry. It carries its ordering key inline, so
// heap comparisons never dereference the event. The key is the event's
// (at, seq) as of its last sift; a Timer extended in place (see extend)
// leaves the slot with an earlier, stale key, which peek refreshes once the
// slot reaches the top. A stale key never exceeds the event's own, so the
// heap still surfaces events in true (at, seq) order.
type slot struct {
	at  Time
	seq uint64
	e   *event
}

func (a slot) less(b slot) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of slots ordered by (at, seq). Slot i's
// children are 4i+1..4i+4: half the depth of a binary heap, with the
// children compared in one contiguous run.
type eventQueue []slot

func (q *eventQueue) push(x slot) {
	*q = append(*q, x)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// pop removes the top slot.
func (q *eventQueue) pop() {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = slot{}
	*q = h[:n]
	if n > 0 {
		h[:n].down(last)
	}
}

// down stores x at the top and sifts it down to its place.
func (h eventQueue) down(x slot) {
	i, n := 0, len(h)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < c+4 && j < n; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// Scheduler is a deterministic discrete-event scheduler. The zero value is
// not usable; create one with NewScheduler.
type Scheduler struct {
	now     Time
	queue   eventQueue
	seq     uint64
	seed    int64
	rng     *rand.Rand
	rootSrc *countingSource
	streams map[string]*rand.Rand
	// streamSrc holds each named stream's counted source, so checkpoints
	// can read (and restores verify) the stream's draw position.
	streamSrc map[string]*countingSource
	stopped   bool
	// region and outbox are set by kernel wiring (see shard.go): the
	// scheduler's region index and its per-destination-region mailboxes
	// for cross-region messages. outbox is nil in unsharded runs.
	region int
	outbox [][]xmsg
	// processed counts events executed; useful for kernel benchmarks and
	// runaway detection in tests.
	processed uint64

	// free is the recycled-event list: executed and drained-dead events
	// land here and are reused by At, so steady-state scheduling does not
	// allocate.
	free []*event

	// curTag is the handler tag attributed to events scheduled right now:
	// subsystems bracket their scheduling with PushTag/PopTag, and events
	// inherit the tag active while the currently-executing event runs.
	curTag string
	// hwm is the event-queue high-water mark (max observed queue length).
	hwm int
	// instr, when non-nil, accumulates per-tag wall-clock dispatch timing.
	instr *instr
	// labelCtx, when non-nil, enables runtime/pprof goroutine labels during
	// dispatch (see LabelProfiles): one cached label set per handler tag,
	// applied only when consecutive events carry different tags.
	labelCtx map[string]context.Context
	// curLabel is the tag whose label set is currently applied.
	curLabel string
}

// NewScheduler returns a scheduler whose random source is seeded with seed.
// Two schedulers built with the same seed and fed the same schedule calls
// produce identical runs.
func NewScheduler(seed int64) *Scheduler {
	rng, src := newCountedRand(seed)
	return &Scheduler{seed: seed, rng: rng, rootSrc: src}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Seed returns the seed the scheduler was constructed with.
func (s *Scheduler) Seed() int64 { return s.seed }

// Rand returns the scheduler's root deterministic random source. Simulation
// components must not share it: each consumer draws from its own named
// stream via RandFor, so that adding or removing one randomized component
// never shifts the draws of another. The root source remains for tests and
// ad-hoc tooling that own a whole timeline.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// RandFor returns the deterministic random stream for a named consumer
// ("pimdm-hello", "mld", "ndp", "timer-jitter", "netem-impair", ...). Each
// stream is seeded from (scheduler seed, stream name), so a stream's draw
// sequence depends only on the seed and that consumer's own draw count —
// enabling or disabling any other randomized component leaves it intact.
func (s *Scheduler) RandFor(stream string) *rand.Rand {
	if r, ok := s.streams[stream]; ok {
		return r
	}
	if s.streams == nil {
		s.streams = make(map[string]*rand.Rand)
		s.streamSrc = make(map[string]*countingSource)
	}
	r, src := newCountedRand(streamSeed(s.seed, stream))
	s.streams[stream] = r
	s.streamSrc[stream] = src
	return r
}

// Jitter draws a uniform duration in [0, max) from the named stream. A
// max <= 0 returns 0: degenerate configurations (zero response delay, zero
// jitter) must never feed a non-positive bound to Int63n, which panics.
func (s *Scheduler) Jitter(stream string, max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(s.RandFor(stream).Int63n(int64(max)))
}

// DeriveSeed derives an independent seed from a base seed and a name, with
// the same decorrelation guarantees as RandFor's streams. Kernel wiring uses
// it to give each shard region its own scheduler seed ("region-1",
// "region-2", ...); region 0 keeps the raw run seed so a one-region sharded
// timeline is identical to the sequential one.
func DeriveSeed(seed int64, name string) int64 { return streamSeed(seed, name) }

// streamSeed derives a stream's seed from the run seed and the stream name:
// FNV-1a over the name, then a splitmix64 finalizer over the sum. The
// finalizer decorrelates nearby run seeds, so replicate seeds derived by
// small arithmetic steps still get unrelated streams.
func streamSeed(seed int64, stream string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	z := uint64(seed) + h + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Processed reports how many events have executed so far.
func (s *Scheduler) Processed() uint64 { return s.processed }

// Pending reports how many slots the event queue holds: the events waiting
// to fire plus canceled ones not yet drained. A Timer extended in place
// keeps its one slot, so re-arming a running timer to a later expiry adds
// none.
func (s *Scheduler) Pending() int { return len(s.queue) }

// Schedule runs fn after delay d of virtual time. A negative delay is treated
// as zero (fn runs at the current instant, after already-queued events for
// that instant). It returns a handle that can cancel the event.
func (s *Scheduler) Schedule(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// At runs fn at absolute virtual time t. Times in the past are clamped to
// the present.
func (s *Scheduler) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: At called with nil func")
	}
	return s.push(t, fn, nil)
}

// AtCall runs c.Call() at absolute virtual time t. It is At for typed
// callbacks and shares its (time, sequence) ordering: an AtCall and an At
// issued in some order fire in that order at equal times.
func (s *Scheduler) AtCall(t Time, c Caller) Event {
	if c == nil {
		panic("sim: AtCall called with nil Caller")
	}
	return s.push(t, nil, c)
}

// push queues an event running fn or c (exactly one is non-nil).
func (s *Scheduler) push(t Time, fn func(), c Caller) Event {
	if t < s.now {
		t = s.now
	}
	var e *event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.fn, e.call = fn, c
	} else {
		e = &event{fn: fn, call: c}
	}
	s.key(e, t)
	s.queue.push(slot{at: e.at, seq: e.seq, e: e})
	if len(s.queue) > s.hwm {
		s.hwm = len(s.queue)
	}
	return Event{e: e, gen: e.gen}
}

// key gives e the time, sequence number and tag that scheduling it at t
// right now takes, and marks it queued.
func (s *Scheduler) key(e *event, t Time) {
	e.at, e.seq, e.tag, e.queued = t, s.seq, s.curTag, true
	s.seq++
}

// extend moves the pending event ev to time t, no earlier than its current
// time, without touching the queue. The event takes the key a fresh At(t)
// would, so it fires exactly where a cancel-and-reschedule would put it;
// its slot keeps the older key until peek re-keys it at the top. It reports
// false, changing nothing, if ev is not pending or t is earlier.
func (s *Scheduler) extend(ev Event, t Time) bool {
	if t < s.now {
		t = s.now
	}
	if !ev.Pending() || t < ev.e.at {
		return false
	}
	s.key(ev.e, t)
	return true
}

// recycle returns a popped event to the free list, invalidating any
// outstanding handles to it.
func (s *Scheduler) recycle(e *event) {
	e.gen++
	e.fn = nil
	e.call = nil
	e.tag = ""
	e.queued = false
	s.free = append(s.free, e)
}

// Stop halts the run loop after the current event returns.
func (s *Scheduler) Stop() { s.stopped = true }

// Step executes the single next event, advancing the clock to it. It reports
// whether an event was executed.
func (s *Scheduler) Step() bool {
	e := s.peek()
	if e == nil {
		return false
	}
	s.queue.pop()
	s.now = e.at
	s.processed++
	s.curTag = e.tag
	fn, c, tag := e.fn, e.call, e.tag
	// Recycle before running: the callback may reschedule and reuse
	// this event object, which is fine — the handle generations already
	// diverge.
	s.recycle(e)
	if s.labelCtx != nil && tag != s.curLabel {
		s.applyLabel(tag)
	}
	var start time.Time
	if s.instr != nil {
		start = time.Now()
	}
	if fn != nil {
		fn()
	} else {
		c.Call()
	}
	if s.instr != nil {
		s.instr.record(tag, time.Since(start))
	}
	s.curTag = ""
	return true
}

// RunUntil executes events in order until the queue is empty, Stop is called,
// or the next event would fire after deadline. The clock is left at the time
// of the last executed event, or advanced to deadline if it is later.
func (s *Scheduler) RunUntil(deadline Time) {
	s.stopped = false
	for !s.stopped {
		e := s.peek()
		if e == nil || e.at > deadline {
			break
		}
		s.Step()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// RunFor runs the simulation for d of virtual time from the current instant.
func (s *Scheduler) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Run executes all queued events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// peek returns the next event to fire and leaves it queued. On the way it
// drains canceled slots and re-keys extended ones, so the returned event
// sits in the top slot under its true key. Neither counts as a dispatch.
func (s *Scheduler) peek() *event {
	for len(s.queue) > 0 {
		top := s.queue[0]
		e := top.e
		switch {
		case !e.queued:
			s.queue.pop()
			s.recycle(e)
		case top.seq != e.seq:
			s.queue.down(slot{at: e.at, seq: e.seq, e: e})
		default:
			return e
		}
	}
	return nil
}

// Event is a cancelable handle to a scheduled callback. It is a small value
// (no heap allocation per scheduled event); the zero Event is an inert
// handle on which Cancel and Pending report false. Handles stay safe after
// their event fires: the underlying object is recycled for later events,
// and a stale handle simply becomes inert.
type Event struct {
	e   *event
	gen uint64
}

// live reports whether the handle still refers to the event it was issued
// for (the underlying object may have been recycled since).
func (ev Event) live() bool { return ev.e != nil && ev.e.gen == ev.gen }

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether the event was still
// pending.
func (ev Event) Cancel() bool {
	if !ev.Pending() {
		return false
	}
	ev.e.queued = false
	return true
}

// Pending reports whether the event is still queued to fire.
func (ev Event) Pending() bool {
	return ev.live() && ev.e.queued
}

// When returns the virtual time the event fires. It is only meaningful
// while the event is pending; once fired or canceled it returns 0.
func (ev Event) When() Time {
	if !ev.live() {
		return 0
	}
	return ev.e.at
}

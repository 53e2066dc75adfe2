package sim

import "time"

// Timer is a restartable virtual-time timer with the Reset/Stop semantics of
// time.Timer, built on Scheduler events. Protocol state machines (MLD group
// membership timers, PIM (S,G) expiry, prune delays, binding lifetimes) are
// expressed with Timers.
//
// The zero value is not usable; create one with NewTimer or the Scheduler's
// AfterFunc-style helpers.
type Timer struct {
	s     *Scheduler
	fn    func()
	ev    Event
	armed bool
}

// NewTimer returns a stopped timer that will run fn on the scheduler when it
// expires.
func NewTimer(s *Scheduler, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil func")
	}
	return &Timer{s: s, fn: fn}
}

// AfterFunc creates a timer and starts it with duration d.
func AfterFunc(s *Scheduler, d time.Duration, fn func()) *Timer {
	t := NewTimer(s, fn)
	t.Reset(d)
	return t
}

// Reset (re)arms the timer to fire after d. Any previously pending expiry is
// canceled first, so a Timer fires at most once per Reset.
func (t *Timer) Reset(d time.Duration) {
	if d < 0 {
		d = 0
	}
	t.ResetAt(t.s.now.Add(d))
}

// ResetAt (re)arms the timer to fire at absolute time at. Extending a
// pending expiry (at no earlier than it) moves the queued event in place
// rather than canceling it and queueing another, so a timer that every
// data packet resets holds one queue slot, not one per reset. Both paths
// give the expiry the sequence number and tag of a fresh schedule, so the
// firing order is the same either way.
func (t *Timer) ResetAt(at Time) {
	if t.armed && t.s.extend(t.ev, at) {
		return
	}
	t.Stop()
	t.ev = t.s.AtCall(at, (*timerFire)(t))
	t.armed = true
}

// timerFire and tickerTick are a Timer's expiry and a Ticker's tick as
// typed events: scheduling the method value t.fire would allocate a
// closure on every Reset, and data packets reset (S,G) expiry timers.
type (
	timerFire  Timer
	tickerTick Ticker
)

func (f *timerFire) Call()  { (*Timer)(f).fire() }
func (f *tickerTick) Call() { (*Ticker)(f).tick() }

func (t *Timer) fire() {
	t.ev = Event{}
	t.armed = false
	t.fn()
}

// Stop disarms the timer. It reports whether the timer was running.
func (t *Timer) Stop() bool {
	if !t.armed {
		return false
	}
	was := t.ev.Cancel()
	t.ev = Event{}
	t.armed = false
	return was
}

// Running reports whether the timer is armed.
func (t *Timer) Running() bool { return t.armed && t.ev.Pending() }

// Expiry returns the virtual time at which the timer will fire. It is only
// meaningful while Running.
func (t *Timer) Expiry() Time {
	if !t.armed {
		return 0
	}
	return t.ev.When()
}

// Remaining returns how much virtual time is left before expiry, or zero if
// the timer is not running.
func (t *Timer) Remaining() time.Duration {
	if !t.Running() {
		return 0
	}
	return t.ev.When().Sub(t.s.Now())
}

// Ticker repeatedly invokes a callback at a fixed virtual-time period, with
// optional uniform jitter. Periodic protocol chores (MLD Queries, PIM Hellos,
// Binding Update refreshes, CBR traffic sources) are expressed with Tickers.
type Ticker struct {
	s       *Scheduler
	period  time.Duration
	jitter  time.Duration
	fn      func()
	ev      Event
	stopped bool
}

// NewTicker returns a started ticker firing every period. If jitter > 0 each
// interval is lengthened by a uniform random amount in [0, jitter) drawn from
// the scheduler's deterministic source. The first firing happens after one
// (jittered) period; call FireNow for an immediate first tick.
func NewTicker(s *Scheduler, period time.Duration, jitter time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: NewTicker with non-positive period")
	}
	t := &Ticker{s: s, period: period, jitter: jitter, fn: fn}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	t.ev = t.s.AtCall(t.s.now.Add(t.period+t.s.Jitter("timer-jitter", t.jitter)), (*tickerTick)(t))
}

func (t *Ticker) tick() {
	t.ev = Event{}
	t.fn()
	// fn may have stopped the ticker; only rearm if still live.
	if !t.stopped {
		t.arm()
	}
}

// FireNow runs the callback immediately (at the current instant) without
// disturbing the periodic schedule. A stopped ticker's callback does not
// run.
func (t *Ticker) FireNow() {
	if t.stopped {
		return
	}
	t.fn()
}

// SetPeriod changes the period for subsequent ticks. On a running ticker
// the currently pending tick is rescheduled relative to now; on a stopped
// ticker only the stored period changes — the ticker stays stopped.
func (t *Ticker) SetPeriod(period time.Duration) {
	if period <= 0 {
		panic("sim: SetPeriod with non-positive period")
	}
	t.period = period
	if t.stopped {
		return
	}
	// Within the tick callback no event is pending; the rearm after fn
	// returns picks up the new period.
	if t.ev.Pending() {
		t.ev.Cancel()
		t.arm()
	}
}

// Stop halts the ticker. The callback will not run again.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
	t.ev = Event{}
}

// Running reports whether the ticker is still active.
func (t *Ticker) Running() bool { return !t.stopped }

package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// refSched is a naive reference scheduler: pending events in a flat list
// scanned for the minimum (at, seq), and every timer reset done as cancel
// and reschedule. The differential test drives it in lock-step with a real
// Scheduler, whose Timers extend a pending expiry in place instead.
type refSched struct {
	now   Time
	seq   uint64
	tag   string
	evs   []refEvent
	fires []int // per timer: expiries so far
	fired []fireRec
}

type refEvent struct {
	at  Time
	seq uint64
	tag string
	id  int // >= 0 for plain events, -(k+1) for timer k
}

type fireRec struct {
	id int
	at Time
}

func (r *refSched) push(at Time, id int) {
	if at < r.now {
		at = r.now
	}
	r.evs = append(r.evs, refEvent{at: at, seq: r.seq, tag: r.tag, id: id})
	r.seq++
}

// find returns the index of the pending event with the given id, or -1.
func (r *refSched) find(id int) int {
	for i, e := range r.evs {
		if e.id == id {
			return i
		}
	}
	return -1
}

// remove deletes the pending event with the given id; false if none.
func (r *refSched) remove(id int) bool {
	i := r.find(id)
	if i < 0 {
		return false
	}
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	return true
}

func (r *refSched) stopTimer(k int) bool { return r.remove(-(k + 1)) }

func (r *refSched) resetTimer(k int, at Time) {
	r.stopTimer(k)
	r.push(at, -(k + 1))
}

func (r *refSched) expiry(k int) (Time, bool) {
	if i := r.find(-(k + 1)); i >= 0 {
		return r.evs[i].at, true
	}
	return 0, false
}

func (r *refSched) pending() []PendingEvent {
	out := make([]PendingEvent, 0, len(r.evs))
	for _, e := range r.evs {
		out = append(out, PendingEvent{At: e.at, Seq: e.seq, Tag: e.tag})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// next returns the index of the earliest pending event, or -1.
func (r *refSched) next() int {
	m := -1
	for i, e := range r.evs {
		if m < 0 || e.at < r.evs[m].at || e.at == r.evs[m].at && e.seq < r.evs[m].seq {
			m = i
		}
	}
	return m
}

func (r *refSched) step() bool {
	m := r.next()
	if m < 0 {
		return false
	}
	e := r.evs[m]
	r.evs = append(r.evs[:m], r.evs[m+1:]...)
	r.now = e.at
	r.fired = append(r.fired, fireRec{e.id, e.at})
	if e.id < 0 {
		k := -e.id - 1
		r.fires[k]++
		if rearmsOnFire(r.fires[k]) {
			prev := r.tag
			r.tag = e.tag // events inherit the dispatching event's tag
			r.resetTimer(k, r.now.Add(timerPeriod(k)))
			r.tag = prev
		}
	}
	return true
}

func (r *refSched) runUntil(deadline Time) {
	for {
		m := r.next()
		if m < 0 || r.evs[m].at > deadline {
			break
		}
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// rearmsOnFire decides whether a timer re-arms itself from inside its n-th
// expiry, exercising the push path of a Reset on a timer not running.
func rearmsOnFire(n int) bool { return n%2 == 1 }

func timerPeriod(k int) time.Duration { return time.Duration(k+1) * time.Millisecond }

// TestTimerExtendMatchesCancelAndPush runs random sequences of Schedule,
// AtCall, Cancel, Timer.Reset (to earlier, equal and later times), Stop,
// Step and RunUntil against refSched. Extending a timer in place must be
// invisible: the same firing order (id, at), SeqCounter, PendingEvents,
// clock and timer state after every operation.
func TestTimerExtendMatchesCancelAndPush(t *testing.T) {
	const nTimers = 3
	tags := []string{"", "pim", "mld", "link"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler(seed)
		ref := &refSched{fires: make([]int, nTimers)}
		var fired []fireRec
		var handles []Event
		timers := make([]*Timer, nTimers)
		fires := make([]int, nTimers)
		for k := range timers {
			k := k
			timers[k] = NewTimer(s, func() {
				fired = append(fired, fireRec{-(k + 1), s.Now()})
				fires[k]++
				if rearmsOnFire(fires[k]) {
					timers[k].Reset(timerPeriod(k))
				}
			})
		}

		for op := 0; op < 300; op++ {
			tag := tags[rng.Intn(len(tags))]
			prev := s.PushTag(tag)
			ref.tag = tag
			var desc string
			switch c := rng.Intn(10); {
			case c < 2: // Schedule or AtCall a plain event
				id := len(handles)
				d := time.Duration(rng.Intn(6)) * time.Millisecond
				if c == 0 {
					handles = append(handles, s.Schedule(d, func() { fired = append(fired, fireRec{id, s.Now()}) }))
				} else {
					handles = append(handles, s.AtCall(s.Now().Add(d), &recordCall{s: s, fired: &fired, id: id}))
				}
				ref.push(ref.now.Add(d), id)
				desc = fmt.Sprintf("schedule %d +%v", id, d)
			case c == 2: // Cancel a random handle, pending or not
				if len(handles) == 0 {
					break
				}
				id := rng.Intn(len(handles))
				got, want := handles[id].Cancel(), ref.remove(id)
				if got != want {
					t.Fatalf("seed %d op %d: Cancel(%d) = %v, ref %v", seed, op, id, got, want)
				}
				desc = fmt.Sprintf("cancel %d", id)
			case c < 6: // Reset a timer: earlier, equal or later than its expiry
				k := rng.Intn(nTimers)
				at := ref.now.Add(time.Duration(rng.Intn(6)) * time.Millisecond)
				if exp, ok := ref.expiry(k); ok {
					switch rng.Intn(3) {
					case 0:
						at = exp - Time(rng.Intn(3))*Millisecond
					case 1:
						at = exp
					default:
						at = exp + Time(rng.Intn(3))*Millisecond
					}
				}
				timers[k].ResetAt(at)
				ref.resetTimer(k, at)
				desc = fmt.Sprintf("reset timer %d to %v", k, at)
			case c == 6: // Stop a timer
				k := rng.Intn(nTimers)
				got, want := timers[k].Stop(), ref.stopTimer(k)
				if got != want {
					t.Fatalf("seed %d op %d: timer %d Stop = %v, ref %v", seed, op, k, got, want)
				}
				desc = fmt.Sprintf("stop timer %d", k)
			case c < 9: // Step
				s.PopTag(prev)
				ref.tag = ""
				got, want := s.Step(), ref.step()
				prev = s.PushTag("")
				if got != want {
					t.Fatalf("seed %d op %d: Step = %v, ref %v", seed, op, got, want)
				}
				desc = "step"
			default: // RunUntil a near deadline
				s.PopTag(prev)
				ref.tag = ""
				d := time.Duration(rng.Intn(4)) * time.Millisecond
				s.RunFor(d)
				ref.runUntil(ref.now.Add(d))
				prev = s.PushTag("")
				desc = fmt.Sprintf("run for %v", d)
			}
			s.PopTag(prev)

			if !reflect.DeepEqual(fired, ref.fired) {
				t.Fatalf("seed %d op %d (%s): fired\n%v\nref\n%v", seed, op, desc, fired, ref.fired)
			}
			if s.SeqCounter() != ref.seq || s.Now() != ref.now {
				t.Fatalf("seed %d op %d (%s): seq/now = %d/%v, ref %d/%v", seed, op, desc, s.SeqCounter(), s.Now(), ref.seq, ref.now)
			}
			if got, want := s.PendingEvents(), ref.pending(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d op %d (%s): PendingEvents\n%v\nref\n%v", seed, op, desc, got, want)
			}
			for k, tm := range timers {
				exp, ok := ref.expiry(k)
				if tm.Running() != ok || tm.Expiry() != exp {
					t.Fatalf("seed %d op %d (%s): timer %d running/expiry = %v/%v, ref %v/%v",
						seed, op, desc, k, tm.Running(), tm.Expiry(), ok, exp)
				}
			}
		}
		s.Run()
		ref.runUntil(Time(1 << 62))
		if !reflect.DeepEqual(fired, ref.fired) {
			t.Fatalf("seed %d: final firing order differs\n%v\nref\n%v", seed, fired, ref.fired)
		}
		if s.Processed() != uint64(len(fired)) {
			t.Fatalf("seed %d: Processed = %d, fired %d", seed, s.Processed(), len(fired))
		}
	}
}

type recordCall struct {
	s     *Scheduler
	fired *[]fireRec
	id    int
}

func (c *recordCall) Call() { *c.fired = append(*c.fired, fireRec{c.id, c.s.Now()}) }

// A timer pushed later by every one of 10k resets, as an (S,G) data timeout
// is by every forwarded datagram, keeps a single queue slot, and re-keying
// that slot as it reaches the top is not a dispatch.
func TestTimerResetKeepsQueueFlat(t *testing.T) {
	s := NewScheduler(1)
	s.Instrument()
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	for i := 0; i < 10000; i++ {
		tm.Reset(time.Second + time.Duration(i)*time.Microsecond)
		if i%100 == 0 {
			s.RunFor(time.Microsecond) // peek sees the stale top slot
		}
	}
	if got := s.Pending(); got != 1 {
		t.Fatalf("Pending = %d after 10k later resets, want 1", got)
	}
	if got := s.QueueHighWater(); got != 1 {
		t.Errorf("QueueHighWater = %d, want 1", got)
	}
	want := tm.Expiry()
	s.Run()
	if fired != 1 || s.Now() != want {
		t.Fatalf("fired %d times, last at %v; want once at %v", fired, s.Now(), want)
	}
	if rs := s.RunStats(); rs.Dispatched != 1 || len(rs.Tags) != 1 || rs.Tags[0].Events != 1 {
		t.Errorf("dispatched %d, tags %+v; want one timed dispatch", rs.Dispatched, rs.Tags)
	}
}

// On the sharded kernel the window end is computed from NextEventTime, so
// a timer extended past its first expiry must report the new time there,
// and still fire exactly at it.
func TestKernelSeesExtendedTimerExpiry(t *testing.T) {
	a, b := NewScheduler(1), NewScheduler(2)
	k := NewKernel([]*Scheduler{a, b}, 10*time.Millisecond, 2)
	var firedAt Time
	tm := AfterFunc(a, time.Second, func() { firedAt = a.Now() })
	tm.Reset(3 * time.Second)
	if got, ok := a.NextEventTime(); !ok || got != Time(3*time.Second) {
		t.Fatalf("NextEventTime = %v, %v; want 3s", got, ok)
	}
	k.RunUntil(Time(2 * time.Second))
	if firedAt != 0 {
		t.Fatalf("extended timer fired early at %v", firedAt)
	}
	if a.Processed() != 0 {
		t.Fatalf("re-key counted as a dispatch: Processed = %d", a.Processed())
	}
	tm.ResetAt(Time(4 * time.Second))
	if got, _ := a.NextEventTime(); got != Time(4*time.Second) {
		t.Fatalf("NextEventTime after second extend = %v, want 4s", got)
	}
	k.RunUntil(Time(5 * time.Second))
	if firedAt != Time(4*time.Second) || a.Processed() != 1 {
		t.Fatalf("fired at %v after %d dispatches; want once at 4s", firedAt, a.Processed())
	}
}

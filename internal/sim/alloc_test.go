//go:build !race

// Allocation budgets for the scheduler hot path. Excluded under -race: the
// race runtime instruments allocations and the counts no longer reflect the
// production build. scripts/check.sh runs these in a separate non-race pass.

package sim

import (
	"testing"
	"time"
)

// TestStepAllocFree pins the zero-allocation event loop: with the event free
// list warm, Schedule + Step must not allocate. A regression here (e.g. the
// Event handle escaping to the heap again) multiplies across every event of
// every run.
func TestStepAllocFree(t *testing.T) {
	s := NewScheduler(1)
	fn := func() {}
	// Warm the event pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step allocates %v objects/op with a warm pool; want 0", allocs)
	}
}

// TestStepAllocFreeWithLabels pins the pprof-label path: once each tag's
// label set is cached, switching labels between events must not allocate —
// LabelProfiles is meant to stay on for whole profiled runs.
func TestStepAllocFreeWithLabels(t *testing.T) {
	s := NewScheduler(1)
	s.LabelProfiles()
	fn := func() {}
	schedule := func(tag string) {
		prev := s.PushTag(tag)
		s.Schedule(time.Microsecond, fn)
		s.PopTag(prev)
	}
	// Warm the pool and both tags' cached label sets.
	for i := 0; i < 64; i++ {
		schedule("a")
		s.Step()
		schedule("b")
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		schedule("a")
		s.Step()
		schedule("b")
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("Schedule+Step with label switching allocates %v objects/op; want 0", allocs)
	}
}

// TestAtCallAllocFree pins the typed-callback path the link data plane and
// Timer use: scheduling a pooled Caller and a Timer reset must not allocate
// (a func value built per event, such as a method value, would).
func TestAtCallAllocFree(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	c := &appendCall{order: &order}
	tm := NewTimer(s, func() {})
	for i := 0; i < 64; i++ {
		s.AtCall(s.Now(), c)
		tm.Reset(time.Microsecond)
		s.Step()
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		order = order[:0]
		s.AtCall(s.Now(), c)
		tm.Reset(time.Microsecond)
		s.Step()
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("AtCall+Timer.Reset+Step allocates %v objects/op with a warm pool; want 0", allocs)
	}
}

// TestTimerExtendAllocFree pins the in-place extend: pushing a running
// timer's expiry later, and re-keying its slot when it reaches the top of
// the queue, must not allocate.
func TestTimerExtendAllocFree(t *testing.T) {
	s := NewScheduler(1)
	tm := NewTimer(s, func() {})
	tm.Reset(time.Millisecond)
	step := func() {
		tm.ResetAt(tm.Expiry() + Time(time.Microsecond))
		s.NextEventTime() // re-keys the stale top slot
	}
	for i := 0; i < 64; i++ {
		step()
	}
	allocs := testing.AllocsPerRun(1000, step)
	if allocs != 0 {
		t.Errorf("Timer extend + re-key allocates %v objects/op; want 0", allocs)
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d after extends, want 1", s.Pending())
	}
}

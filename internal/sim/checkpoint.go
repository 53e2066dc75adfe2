package sim

import (
	"math/rand"
	"sort"
)

// Checkpoint support: the scheduler exposes a declarative view of its
// live state — clock, sequence counter, the pending event queue as
// (time, seq, tag) specs, and the draw position of every named random
// stream — so a timeline checkpoint can record exactly where a run
// stands and a restore can verify that deterministic re-execution
// reproduced the same point. Closures themselves are never serialized:
// restore rebuilds the scenario through the original construction path
// and fast-forwards, then compares this view against the checkpoint.

// countingSource wraps a rand.Source64 and counts draws. Both Int63 and
// Uint64 delegate unchanged, so wrapping never alters a stream's value
// sequence — golden traces recorded before checkpointing existed stay
// byte-identical. The draw count is the stream's restorable position:
// two runs of the same seed are at the same point in a stream if and
// only if the counts match.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	return c.src.Int63()
}

func (c *countingSource) Uint64() uint64 {
	c.draws++
	return c.src.Uint64()
}

func (c *countingSource) Seed(seed int64) {
	c.draws = 0
	c.src.Seed(seed)
}

// newCountedRand builds a *rand.Rand over a counted source and returns
// both. rand.NewSource always returns a Source64.
func newCountedRand(seed int64) (*rand.Rand, *countingSource) {
	cs := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	return rand.New(cs), cs
}

// StreamPos is the position of one named random stream: how many draws
// its underlying source has produced. The root source is named "".
type StreamPos struct {
	Name  string `json:"name"`
	Draws uint64 `json:"draws"`
}

// StreamPositions returns the draw position of the root source and of
// every named stream materialized so far, sorted by name (root first).
// Positions are comparable across runs of the same seed: equal
// positions mean the streams will produce identical futures.
func (s *Scheduler) StreamPositions() []StreamPos {
	out := make([]StreamPos, 0, len(s.streams)+1)
	out = append(out, StreamPos{Name: "", Draws: s.rootSrc.draws})
	names := make([]string, 0, len(s.streams))
	for name := range s.streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		out = append(out, StreamPos{Name: name, Draws: s.streamSrc[name].draws})
	}
	return out
}

// AdvanceStream fast-forwards the named stream ("" for the root source)
// to the given draw position, materializing it if needed. It is a
// restore aid for tooling that replays a stream without replaying the
// run; it panics if the stream is already past the position (a stream
// cannot rewind).
func (s *Scheduler) AdvanceStream(name string, draws uint64) {
	var cs *countingSource
	if name == "" {
		cs = s.rootSrc
	} else {
		s.RandFor(name)
		cs = s.streamSrc[name]
	}
	if cs.draws > draws {
		panic("sim: AdvanceStream cannot rewind stream " + name)
	}
	for cs.draws < draws {
		cs.Uint64()
	}
}

// PendingEvent is the declarative view of one queued event: when it
// fires, its FIFO tie-break sequence number, and the handler tag it was
// scheduled under. The callback itself is not part of the view — it is
// a pure function of the (deterministic) construction and execution
// history that scheduled it.
type PendingEvent struct {
	At  Time   `json:"t_ns"`
	Seq uint64 `json:"seq"`
	Tag string `json:"tag,omitempty"`
}

// PendingEvents snapshots the live (non-canceled) queued events sorted
// by (time, seq) — the exact order they would fire in. An extended Timer
// reports its event's own key, not the stale one its queue slot may hold.
// Checkpoints record this as the re-armable timer/delivery schedule; a
// verified restore must reproduce it entry for entry.
func (s *Scheduler) PendingEvents() []PendingEvent {
	out := make([]PendingEvent, 0, len(s.queue))
	for _, q := range s.queue {
		e := q.e
		if !e.queued {
			continue
		}
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

// SeqCounter returns the next event sequence number — the total number
// of events ever scheduled. Together with Processed and the pending
// queue it pins the scheduler's position in the timeline.
func (s *Scheduler) SeqCounter() uint64 { return s.seq }

// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine owns a virtual clock and a priority queue of events. Events
// scheduled for the same instant fire in the order they were scheduled, so a
// run is a pure function of its inputs and RNG seeds. Lanes (FIFO streams of
// constant-delay events) and Timers (re-armable timeouts) share one queue
// entry among many logical events without changing their firing order.
//
// All network, protocol and adversary code in this repository executes
// inside a single Engine; parallelism is obtained by running independent
// engines (one per trial) on separate goroutines, never by sharing one
// engine.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp in nanoseconds since the start of the run.
type Time int64

// Duration mirrors time.Duration so call sites can use familiar literals
// (e.g. 5*sim.Microsecond) without importing package time.
type Duration = time.Duration

// Convenience re-exports of common units.
const (
	Nanosecond  = time.Nanosecond
	Microsecond = time.Microsecond
	Millisecond = time.Millisecond
	Second      = time.Second
)

// MaxTime is the largest representable virtual timestamp.
const MaxTime = Time(math.MaxInt64)

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t expressed in seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// String formats the timestamp as a duration from the epoch.
func (t Time) String() string { return Duration(t).String() }

type event struct {
	at  Time
	seq uint64 // schedule order; breaks ties deterministically
	do  func()
}

// before is the queue order: earliest timestamp first, scheduling order as
// the tiebreak. seq is unique, so the order is total — which is what makes
// the engine deterministic regardless of the queue's internal layout.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a hand-rolled 4-ary min-heap of value-typed events. It is
// the engine's hottest data structure — every packet hop pushes and pops
// several events — so it avoids container/heap's interface dispatch and
// per-event boxing: events live inline in the slice and sift moves use a
// hole instead of pairwise swaps. A 4-ary layout halves the tree depth of a
// binary heap, trading cheap in-cache-line sibling scans for expensive
// level hops.
type eventQueue []event

const heapArity = 4

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	*q = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the closure to the GC
	h = h[:n]
	*q = h
	if n > 0 {
		i := 0
		for {
			c := heapArity*i + 1
			if c >= n {
				break
			}
			end := c + heapArity
			if end > n {
				end = n
			}
			min := c
			for k := c + 1; k < end; k++ {
				if h[k].before(&h[min]) {
					min = k
				}
			}
			if !h[min].before(&last) {
				break
			}
			h[i] = h[min]
			i = min
		}
		h[i] = last
	}
	return top
}

// Engine is a single-threaded discrete-event scheduler. The zero value is
// ready to use. An Engine must not be accessed from multiple goroutines.
type Engine struct {
	now     Time
	heap    eventQueue
	seq     uint64
	stopped bool
	ran     uint64

	// pos is the key of the last event fired, or the RunUntil frontier once
	// every event up to its deadline has fired. Every event keyed at or
	// before pos has run; Passed compares against it.
	pos Mark
}

// Mark is the queue key of one logical event: its virtual time and the
// sequence number reserved when it was scheduled. Marks are totally ordered
// the same way the queue is.
type Mark struct {
	At  Time
	Seq uint64
}

func (m Mark) before(o Mark) bool {
	if m.At != o.At {
		return m.At < o.At
	}
	return m.Seq < o.Seq
}

// New returns a fresh engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many queue entries have fired so far: one per
// plain event or lane item, plus any timer entry that came up early.
func (e *Engine) Processed() uint64 { return e.ran }

// Pending reports how many entries are waiting in the queue. A Lane holds
// one entry for all of its items and a Timer at most a few, so this counts
// queue entries, not logical events.
func (e *Engine) Pending() int { return len(e.heap) }

// At schedules do to run at virtual time t. Scheduling in the past panics:
// it always indicates a protocol bug, and silently reordering time would
// invalidate every measurement downstream.
func (e *Engine) At(t Time, do func()) {
	m := e.Reserve(t)
	e.heap.push(event{at: m.At, seq: m.Seq, do: do})
}

// Reserve takes the key an event scheduled at t would get now, without
// queueing anything. Passed later tells whether that event would have fired.
// Reserving in the past panics, as At does. A reserved mark does not keep
// Run going: a caller whose mark must not outlast the run queues a later
// event, as a link does with each frame's arrival after its departure.
func (e *Engine) Reserve(t Time) Mark {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	return Mark{At: t, Seq: e.seq}
}

// Passed reports whether an event keyed m would already have fired: true
// from inside the event at m and ever after.
func (e *Engine) Passed(m Mark) bool { return !e.pos.before(m) }

// After schedules do to run d from now. Negative d is clamped to zero.
func (e *Engine) After(d Duration, do func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now.Add(d), do)
}

// Stop makes Run and RunUntil return after the currently firing event.
func (e *Engine) Stop() { e.stopped = true }

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	if len(e.heap) == 0 {
		return false
	}
	ev := e.heap.pop()
	e.now = ev.at
	e.pos = Mark{At: ev.at, Seq: ev.seq}
	e.ran++
	ev.do()
	return true
}

// Run fires events until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then advances the clock
// to deadline (if the queue drained earlier) and returns.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if len(e.heap) == 0 || e.heap[0].at > deadline {
			break
		}
		e.Step()
	}
	// Unless stopped early, every event keyed up to the deadline — queued
	// or only reserved — is now past.
	if f := (Mark{At: deadline, Seq: e.seq}); !e.stopped && !f.before(e.pos) {
		e.pos = f
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor is shorthand for RunUntil(Now().Add(d)).
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now.Add(d)) }

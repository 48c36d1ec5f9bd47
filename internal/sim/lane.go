package sim

import "fmt"

// Lane is a FIFO of typed items whose times never decrease — a link, a
// switch pipeline or a host stack adding a constant delay. However many
// items wait in it, the lane holds one queue entry, keyed by its head item,
// so the engine's heap stays as shallow as the number of busy lanes.
//
// Each item keeps the key it would have had as a plain event: At reserves
// its sequence number at the call, and the lane's queue entry carries the
// head item's (time, seq). Firing order is therefore exactly that of
// scheduling every item with Engine.At.
//
// Items live in a Ring, so a lane that never drains stays bounded by its
// peak occupancy.
type Lane[T any] struct {
	eng   *Engine
	fire  func(T)
	next  func() // fireHead, bound once so queueing allocates nothing
	items Ring[laneItem[T]]
}

type laneItem[T any] struct {
	Mark
	v T
}

// NewLane returns an empty lane on e that hands each item to fire at its
// time.
func NewLane[T any](e *Engine, fire func(T)) *Lane[T] {
	l := &Lane[T]{eng: e, fire: fire}
	l.next = l.fireHead
	return l
}

// At queues v to fire at t. t must not precede the lane's last item: a
// decreasing time panics, as scheduling in the past does on the engine.
func (l *Lane[T]) At(t Time, v T) {
	if l.items.Len() > 0 {
		if last := l.items.Back().At; t < last {
			panic(fmt.Sprintf("sim: lane item at %v before the lane's last item at %v", t, last))
		}
	}
	m := l.eng.Reserve(t)
	l.items.Push(laneItem[T]{Mark: m, v: v})
	if l.items.Len() == 1 {
		l.eng.heap.push(event{at: m.At, seq: m.Seq, do: l.next})
	}
}

// After queues v to fire d from now. Negative d is clamped to zero.
func (l *Lane[T]) After(d Duration, v T) { l.At(l.eng.now.Add(max(d, 0)), v) }

// fireHead is the lane's queue entry: it pops the head item, re-queues the
// entry under the next item's key, then fires the popped item.
func (l *Lane[T]) fireHead() {
	it := l.items.PopFront()
	if l.items.Len() > 0 {
		h := l.items.Front()
		l.eng.heap.push(event{at: h.At, seq: h.Seq, do: l.next})
	}
	l.fire(it.v)
}

// Timer is a re-armable one-shot callback: a retransmission timeout pushed
// back on every acknowledgement. Each Reset reserves a fresh key, as
// scheduling a new event would, but reuses the entry already queued when
// that entry is due no later than the new deadline; the entry re-queues
// itself under the live key when it comes up early. The callback fires only
// at the live key, so it fires exactly when the last of a fresh event per
// Reset, each checked against a generation, would have.
//
// Superseded per-Reset events would still keep the engine busy until the
// latest of them; a timer does the same with one silent entry at the
// latest key it ever reserved, so a drained run ends at the same virtual
// time either way.
type Timer struct {
	eng  *Engine
	fire func()
	next func() // fireEntry, bound once

	live    Mark // the deadline, while armed
	armed   bool
	horizon Mark // the latest key any Reset reserved

	// queued holds the keys of this timer's queue entries. An entry is
	// added only below every queued one, so the slice is descending and the
	// last key is the next to come up.
	queued []Mark
}

// NewTimer returns a disarmed timer on e that calls fire when it expires.
func NewTimer(e *Engine, fire func()) *Timer {
	t := &Timer{eng: e, fire: fire}
	t.next = t.fireEntry
	return t
}

// Reset arms the timer to fire d from now, replacing any earlier deadline.
// Negative d is clamped to zero.
func (t *Timer) Reset(d Duration) {
	t.live = t.eng.Reserve(t.eng.now.Add(max(d, 0)))
	t.armed = true
	if t.horizon.before(t.live) {
		t.horizon = t.live
	}
	t.queue(t.live)
}

// Stop disarms the timer. Its queued entries stay queued and expire
// silently.
func (t *Timer) Stop() { t.armed = false }

// queue makes sure an entry comes up at or before k.
func (t *Timer) queue(k Mark) {
	if n := len(t.queued); n > 0 && !k.before(t.queued[n-1]) {
		return
	}
	t.queued = append(t.queued, k)
	t.eng.heap.push(event{at: k.At, seq: k.Seq, do: t.next})
}

func (t *Timer) fireEntry() {
	n := len(t.queued) - 1
	k := t.queued[n]
	t.queued = t.queued[:n]
	if t.armed {
		if k == t.live {
			t.armed = false
			t.fire()
		} else {
			t.queue(t.live) // the deadline moved later: k < live
		}
	}
	if len(t.queued) == 0 && k.before(t.horizon) {
		t.queue(t.horizon)
	}
}

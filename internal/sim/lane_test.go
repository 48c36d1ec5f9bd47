package sim

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

// scheduler is the surface the differential test drives: once through
// lanes, timers and reserved marks, once through a reference built only
// from Engine.At plus generation checks — the pre-lane engine.
type scheduler interface {
	eng() *Engine
	lane(k int, t Time, id int)
	reset(k int, d Duration, id int)
	stop(k int)
	reserve(t Time)
	passed() int // reserved marks whose events would have fired
}

const (
	nLanes  = 2
	nTimers = 2
)

// script is one generated run. Ops are consumed in order, at top level and
// from inside firing callbacks, so both schedulers take the same ops at
// the same points only while their firing orders agree.
type script struct {
	ops  []op
	next int
	s    scheduler
	log  []string
	id   int
	last [nLanes]Time // last time queued on each lane
}

type op struct {
	Kind, Arg, D uint8
}

func (sc *script) fired(what string, id int) {
	e := sc.s.eng()
	sc.log = append(sc.log, fmt.Sprintf("%s%d@%d passed=%d", what, id, e.Now(), sc.s.passed()))
	if id%3 != 0 {
		return
	}
	// Every third callback takes an op from inside the event: nested
	// scheduling, timer re-arms from the timer itself, Stop mid-run.
	if sc.next < len(sc.ops) {
		o := sc.ops[sc.next]
		sc.next++
		sc.apply(o, false)
	}
}

func (sc *script) apply(o op, top bool) {
	e := sc.s.eng()
	d := Duration(o.D % 16)
	sc.id++
	id := sc.id
	switch o.Kind % 7 {
	case 0:
		e.At(e.Now().Add(d), func() { sc.fired("at", id) })
	case 1:
		k := int(o.Arg) % nLanes
		t := max(e.Now(), sc.last[k]).Add(d)
		sc.last[k] = t
		sc.s.lane(k, t, id)
	case 2:
		sc.s.reset(int(o.Arg)%nTimers, d, id)
	case 3:
		sc.s.stop(int(o.Arg) % nTimers)
	case 4:
		// A mark is always followed by a later event, as a frame's
		// departure is by its arrival; Run need not reach a bare mark.
		t := e.Now().Add(d)
		sc.s.reserve(t)
		e.At(t.Add(1), func() { sc.fired("arrival", id) })
	case 5:
		if top {
			e.RunUntil(e.Now().Add(d))
			sc.log = append(sc.log, fmt.Sprintf("until@%d passed=%d", e.Now(), sc.s.passed()))
		} else {
			e.Stop()
		}
	case 6:
		if top {
			e.Run()
			sc.log = append(sc.log, fmt.Sprintf("run@%d passed=%d", e.Now(), sc.s.passed()))
		}
	}
}

func (sc *script) play() []string {
	for sc.next < len(sc.ops) {
		o := sc.ops[sc.next]
		sc.next++
		sc.apply(o, true)
	}
	sc.s.eng().Run()
	sc.log = append(sc.log, fmt.Sprintf("end@%d passed=%d", sc.s.eng().Now(), sc.s.passed()))
	return sc.log
}

// impl schedules through the lane/timer/mark machinery under test.
type impl struct {
	e      *Engine
	lanes  [nLanes]*Lane[int]
	timers [nTimers]*Timer
	tid    [nTimers]int
	marks  []Mark
}

func newImpl(sc *script) *impl {
	r := &impl{e: New()}
	for k := range r.lanes {
		r.lanes[k] = NewLane(r.e, func(id int) { sc.fired("lane", id) })
	}
	for k := range r.timers {
		r.timers[k] = NewTimer(r.e, func() { sc.fired("timer", r.tid[k]) })
	}
	return r
}

func (r *impl) eng() *Engine               { return r.e }
func (r *impl) lane(k int, t Time, id int) { r.lanes[k].At(t, id) }
func (r *impl) stop(k int)                 { r.timers[k].Stop() }
func (r *impl) reserve(t Time)             { r.marks = append(r.marks, r.e.Reserve(t)) }
func (r *impl) reset(k int, d Duration, id int) {
	r.tid[k] = id
	r.timers[k].Reset(d)
}

func (r *impl) passed() int {
	n := 0
	for _, m := range r.marks {
		if r.e.Passed(m) {
			n++
		}
	}
	return n
}

// ref is the reference: every lane item, timer arm and reserved mark is a
// plain event; stale timer events are skipped by generation.
type ref struct {
	e     *Engine
	sc    *script
	gen   [nTimers]uint64
	armed [nTimers]bool
	fired []bool
}

func (r *ref) eng() *Engine { return r.e }

func (r *ref) lane(k int, t Time, id int) {
	r.e.At(t, func() { r.sc.fired("lane", id) })
}

func (r *ref) reset(k int, d Duration, id int) {
	r.gen[k]++
	r.armed[k] = true
	g := r.gen[k]
	r.e.After(d, func() {
		if g == r.gen[k] && r.armed[k] {
			r.armed[k] = false
			r.sc.fired("timer", id)
		}
	})
}

func (r *ref) stop(k int) {
	r.gen[k]++
	r.armed[k] = false
}

func (r *ref) reserve(t Time) {
	i := len(r.fired)
	r.fired = append(r.fired, false)
	r.e.At(t, func() { r.fired[i] = true })
}

func (r *ref) passed() int {
	n := 0
	for _, f := range r.fired {
		if f {
			n++
		}
	}
	return n
}

// TestLaneTimerMatchPlainEvents checks that lanes, timers and reserved
// marks fire — and report Passed — exactly as plain events would, across
// mixed At, lane At, Timer Reset/Stop, RunUntil chunks and Stop.
func TestLaneTimerMatchPlainEvents(t *testing.T) {
	check := func(ops []op) bool {
		a := &script{ops: ops}
		a.s = newImpl(a)
		b := &script{ops: ops}
		b.s = &ref{e: New(), sc: b}
		got, want := a.play(), b.play()
		if !reflect.DeepEqual(got, want) {
			t.Logf("ops %v\n got  %v\n want %v", ops, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestLaneRingBoundedByPeak keeps a lane busy for 10^5 items — it never
// drains — and checks its ring stays within twice its peak occupancy. A
// lane that appended to a slice would grow with the item count instead.
func TestLaneRingBoundedByPeak(t *testing.T) {
	e := New()
	const depth, items = 37, 100_000
	var l *Lane[int]
	peak, fired := 0, 0
	l = NewLane(e, func(int) {
		fired++
		if fired+l.items.Len() < items {
			l.After(depth, 0)
		}
		peak = max(peak, l.items.Len())
	})
	for i := 0; i < depth; i++ {
		l.At(Time(i), i)
	}
	peak = l.items.Len()
	e.Run()
	if fired != items {
		t.Fatalf("fired %d items, want %d", fired, items)
	}
	if len(l.items.buf) > 2*peak {
		t.Fatalf("ring capacity %d exceeds twice the peak occupancy %d", len(l.items.buf), peak)
	}
	if e.Pending() != 0 || l.items.Len() != 0 {
		t.Fatalf("Pending() = %d, Len() = %d after drain", e.Pending(), l.items.Len())
	}
}

func TestLaneDecreasingTimePanics(t *testing.T) {
	e := New()
	l := NewLane(e, func(int) {})
	l.At(100, 1)
	defer func() {
		if recover() == nil {
			t.Error("queueing before the lane's last item did not panic")
		}
	}()
	l.At(50, 2)
}

// TestLaneHoldsOneQueueEntry pins the point of lanes: Pending counts queue
// entries, one per busy lane however many items it holds.
func TestLaneHoldsOneQueueEntry(t *testing.T) {
	e := New()
	l := NewLane(e, func(int) {})
	for i := 0; i < 10; i++ {
		l.At(Time(i), i)
	}
	tm := NewTimer(e, func() {})
	for i := 0; i < 10; i++ {
		tm.Reset(Duration(5 + i)) // each deadline later: the entry is reused
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2 (one lane, one timer)", e.Pending())
	}
	e.Run()
	if e.Now() != 14 {
		t.Fatalf("Now() = %v, want 14 (the last deadline)", e.Now())
	}
}

// TestPassedOrdersMarksLikeEvents pins Passed at its edges: an event at the
// mark's time sees it passed only if scheduled after it, and RunUntil to
// the mark's time passes it even with nothing queued there.
func TestPassedOrdersMarksLikeEvents(t *testing.T) {
	e := New()
	var early, inBefore, inAfter bool
	e.At(5, func() { early = e.Passed(Mark{At: 10, Seq: 2}) })
	e.At(10, func() { inBefore = e.Passed(Mark{At: 10, Seq: 3}) })
	m := e.Reserve(10)
	e.At(10, func() { inAfter = e.Passed(m) })
	if m != (Mark{At: 10, Seq: 3}) {
		t.Fatalf("Reserve(10) = %+v, want the third key", m)
	}
	e.Run()
	if early || inBefore || !inAfter {
		t.Fatalf("Passed at 5 = %v, in the event before the mark = %v, after it = %v; want false, false, true", early, inBefore, inAfter)
	}

	e = New()
	m = e.Reserve(10)
	e.RunUntil(9)
	if e.Passed(m) {
		t.Fatal("RunUntil(9) passed a mark at 10")
	}
	e.RunUntil(10)
	if !e.Passed(m) {
		t.Fatal("RunUntil(10) did not pass a mark at 10")
	}
}

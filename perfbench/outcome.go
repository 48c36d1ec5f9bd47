package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"math"

	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/sim"
)

// pattern is the deterministic payload source. Dial k sends
// buf[off(k) : off(k)+size] with its first hdrLen bytes replaced by k, so a
// receiver learns whose bytes it holds and checks every one of them.
type pattern struct {
	buf  []byte
	size int
}

const (
	hdrLen        = 8
	patternSpread = 4093 // distinct start offsets; prime, so nearby dials differ
)

func newPattern(seed uint64, size int) *pattern {
	rng := sim.NewRNG(seed).Stream("perfbench-payload")
	buf := make([]byte, size+patternSpread)
	for i := range buf {
		buf[i] = byte(rng.Uint64())
	}
	return &pattern{buf: buf, size: size}
}

func (p *pattern) off(id int) int { return int(uint64(id) * 977 % patternSpread) }

// fill writes dial id's payload into dst, which must hold p.size bytes.
func (p *pattern) fill(dst []byte, id int) []byte {
	dst = dst[:p.size]
	copy(dst, p.buf[p.off(id):])
	binary.BigEndian.PutUint64(dst, uint64(id))
	return dst
}

// receiver checks one accepted stream's bytes against the sender's pattern
// as they arrive, and keeps the harness's goodput bookkeeping.
type receiver struct {
	pat         *pattern
	id          int // dial whose payload this is; -1 until the header is in
	hdr         [hdrLen]byte
	got         int
	bad         bool
	first, last sim.Time
}

func (r *receiver) feed(b []byte, now sim.Time) {
	if r.got == 0 {
		r.first = now
	}
	r.last = now
	for len(b) > 0 && r.got < hdrLen {
		r.hdr[r.got] = b[0]
		b = b[1:]
		r.got++
		if r.got == hdrLen {
			r.id = int(binary.BigEndian.Uint64(r.hdr[:]))
		}
	}
	if len(b) == 0 {
		return
	}
	o := r.pat.off(r.id) + r.got
	if r.id < 0 || r.got+len(b) > r.pat.size || !bytes.Equal(b, r.pat.buf[o:o+len(b)]) {
		r.bad = true
	}
	r.got += len(b)
}

// dialClass is how a dial was answered.
type dialClass uint8

const (
	unanswered dialClass = iota
	established
	refused  // typed mic.ErrOverloaded
	timedOut // typed mic.ErrSetupTimeout
	failedErr
)

func classify(err error) dialClass {
	switch {
	case err == nil:
		return established
	case errors.Is(err, mic.ErrOverloaded):
		return refused
	case errors.Is(err, mic.ErrSetupTimeout):
		return timedOut
	default:
		return failedErr
	}
}

// dialRec is one dial's virtual outcome.
type dialRec struct {
	issued, estab sim.Time
	class         dialClass
	answers       int
	flows         int      // m-flows of the established stream
	recvd         int      // verified payload bytes that reached the responder
	bad           bool     // a delivered byte differed from the pattern
	done          sim.Time // when the last payload byte arrived
}

// outcome is the virtual-time result of one instance: what the modelled
// data centre did, independent of the host. Same seed, same outcome.
type outcome struct {
	seed      uint64
	dials     []dialRec
	recvs     []*receiver // in accept order
	retries   uint64      // client re-dials
	closeErrs int         // CloseChannel calls the MC rejected
	firstErr  string      // first untyped dial error
	telemetry string      // the MC's Telemetry() rendering
	cnt       counters
}

// recorder collects one instance's outcome from the workload's callbacks.
type recorder struct {
	eng     *sim.Engine
	tr      *tracer
	pat     *pattern
	payload []byte // scratch; Stream.Send copies it
	out     *outcome
	streams []*mic.Stream // every stream opened, for the retransmit counters
	clients []*mic.Client // every client, for the re-dial count
}

func newRecorder(eng *sim.Engine, seed uint64, pat *pattern, tr *tracer) *recorder {
	r := &recorder{eng: eng, tr: tr, pat: pat, out: &outcome{seed: seed}}
	if pat != nil {
		r.payload = make([]byte, pat.size)
	}
	return r
}

// issue opens a dial record stamped with the current virtual time.
func (r *recorder) issue() int {
	r.out.dials = append(r.out.dials, dialRec{issued: r.eng.Now()})
	return len(r.out.dials) - 1
}

// answer records a dial's reply. A second reply for one dial is a
// correctness failure, caught by check.
func (r *recorder) answer(id int, s *mic.Stream, err error) {
	d := &r.out.dials[id]
	d.answers++
	d.class = classify(err)
	switch d.class {
	case established:
		d.estab = r.eng.Now()
		if s != nil {
			d.flows = s.FlowCount()
			r.streams = append(r.streams, s)
		}
	case failedErr:
		if r.out.firstErr == "" {
			r.out.firstErr = err.Error()
		}
	}
}

// send pushes dial id's payload down its stream.
func (r *recorder) send(id int, s *mic.Stream) {
	sp := r.tr.begin("mic.Stream.Send", int64(id))
	s.Send(r.pat.fill(r.payload, id))
	r.tr.end(sp)
}

// accept is the responder-side Listen callback.
func (r *recorder) accept(s *mic.Stream) {
	rv := &receiver{pat: r.pat, id: -1}
	r.out.recvs = append(r.out.recvs, rv)
	r.streams = append(r.streams, s)
	s.OnData(func(b []byte) { rv.feed(b, r.eng.Now()) })
}

// finish completes the outcome once the engine has stopped.
func (r *recorder) finish(w *world, p *probe) *outcome {
	w.mc.StopProber()
	o := r.out
	for _, c := range r.clients {
		o.retries += c.DialRetryCount
	}
	o.telemetry = w.mc.Telemetry().String()
	o.cnt = readCounters(w, p, r.streams)
	for _, rv := range o.recvs {
		if rv.id < 0 || rv.id >= len(o.dials) {
			continue
		}
		d := &o.dials[rv.id]
		d.recvd += rv.got
		d.bad = d.bad || rv.bad
		d.done = max(d.done, rv.last)
	}
	return o
}

// failedOp reports whether a dial counts against ops_failed_ratio: it went
// unanswered, ended in an untyped error, or was established but did not
// deliver its payload intact.
func (d *dialRec) failedOp(payload int) bool {
	switch d.class {
	case unanswered, failedErr:
		return true
	case established:
		return payload > 0 && (d.bad || d.recvd != payload)
	}
	return false
}

// digest hashes the virtual results of a set of instances. Identical
// inputs give an identical digest on any host; drift in any virtual result
// changes it.
func digest(outs []*outcome) [sha256.Size]byte {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	for _, o := range outs {
		put(o.seed, uint64(len(o.dials)), uint64(len(o.recvs)), o.retries, uint64(o.closeErrs))
		for _, d := range o.dials {
			put(uint64(d.issued), uint64(d.estab), uint64(d.class), uint64(d.answers), uint64(d.flows),
				uint64(d.recvd), boolBit(d.bad), uint64(d.done))
		}
		for _, rv := range o.recvs {
			put(uint64(rv.id), uint64(rv.got), uint64(rv.first), uint64(rv.last))
		}
		c := o.cnt
		put(c.events, c.pendingPeak, c.switchRx, c.cacheHits, c.tableMisses, c.evicted, c.delivered, c.lost,
			c.txPackets, c.retransmits, c.planHits, c.planMisses, c.refusals, c.missReinstalls, c.rulesEvicted,
			c.flowMods, c.batches, c.batchedMods, c.sbRetrans)
		h.Write([]byte(o.firstErr))
		h.Write([]byte(o.telemetry))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// virt is the pooled virtual-time summary of one repetition's instances.
type virt struct {
	goodput           float64 // mean per-stream receive goodput, Mbps
	dialP50, dialTail float64 // ms, established dials only
	dialN, beyond     int     // latency samples, and how many lie above the tail
	chPerSec          float64 // established channels per virtual second of makespan
	dials, ok         int
	refused, failed   int // typed refusals + timeouts; failed operations
	badStreams        int // streams that delivered a wrong byte
	dupAnswers        int // dials answered more than once
	closeErrs         int // CloseChannel calls the MC rejected
	bytesChecked      int64
	cnt               counters
}

func summarize(outs []*outcome, wl *workload) virt {
	var v virt
	var lat metrics.Sample
	var good metrics.Sample
	var makespan float64
	for _, o := range outs {
		first, last := sim.Time(math.MaxInt64), sim.Time(0)
		ok := 0
		for i := range o.dials {
			d := &o.dials[i]
			v.dials++
			first = min(first, d.issued)
			if d.answers > 1 {
				v.dupAnswers++
			}
			if d.failedOp(wl.payload) {
				v.failed++
			}
			switch d.class {
			case refused, timedOut:
				v.refused++
			case established:
				ok++
				last = max(last, d.estab)
				lat.Add(d.estab.Sub(d.issued).Seconds() * 1e3)
			}
		}
		for _, rv := range o.recvs {
			v.bytesChecked += int64(rv.got)
			if rv.bad {
				v.badStreams++
			}
		}
		v.ok += ok
		v.closeErrs += o.closeErrs
		if ok > 0 && last > first {
			makespan += last.Sub(first).Seconds()
		}
		for _, g := range wl.goodput(o) {
			good.Add(g)
		}
		v.cnt.add(o.cnt)
	}
	v.goodput = good.Mean()
	v.dialN = lat.N()
	v.dialP50 = lat.Percentile(50)
	v.dialTail = lat.Percentile(wl.tail)
	v.beyond = int(float64(v.dialN) * (1 - wl.tail/100))
	if makespan > 0 {
		v.chPerSec = float64(v.ok) / makespan
	}
	return v
}

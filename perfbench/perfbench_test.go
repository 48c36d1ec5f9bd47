package main

import (
	"bytes"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"

	"mic/internal/chaos"
	"mic/internal/sim"
)

// The benchmark must measure the program the paper figures measure: for a
// fixed seed its virtual outputs equal the harness function behind each
// workload's figure.
func TestWorkloadsMatchHarness(t *testing.T) {
	cases := []struct {
		wl    *workload
		seeds []uint64
	}{
		{bulkMIC, []uint64{3}},
		{stormChurn, []uint64{1, 7}},
		{dialStorm, []uint64{1}},
	}
	for _, c := range cases {
		for _, seed := range c.seeds {
			if testing.Short() && c.wl == dialStorm {
				t.Logf("skipping %s in short mode: k=16 set-up takes seconds", c.wl.name)
				continue
			}
			out, _, err := runInstance(c.wl, seed, patternFor(c.wl, seed), newTracer(false))
			if err != nil {
				t.Fatalf("%s seed %d: %v", c.wl.name, seed, err)
			}
			if err := c.wl.equivalent(out); err != nil {
				t.Errorf("%s seed %d: %v", c.wl.name, seed, err)
			}
		}
	}
}

// Stepping the engine, or running it in RunUntil chunks, fires events in
// the order Run and RunUntil would, and tracing observes without steering:
// the outcome is the same.
func TestDrivingKeepsFiringOrder(t *testing.T) {
	for _, wl := range []*workload{bulkMIC, stormChurn} {
		const seed = 5
		pat := patternFor(wl, seed)
		driven, _, err := runInstance(wl, seed, pat, newTracer(true))
		if err != nil {
			t.Fatal(err)
		}
		plain := runPlain(t, wl, seed, pat)
		driven.cnt.pendingPeak, plain.cnt.pendingPeak = 0, 0 // only the probe samples the queue
		if digest([]*outcome{driven}) != digest([]*outcome{plain}) {
			t.Errorf("%s: driving by Step/chunks changed the outcome", wl.name)
		}
	}
}

// runPlain runs one instance with the engine's own Run or RunUntil.
func runPlain(t *testing.T, wl *workload, seed uint64, pat *pattern) *outcome {
	t.Helper()
	tr := newTracer(false)
	w, _, err := build(wl.fabric(seed), tr)
	if err != nil {
		t.Fatal(err)
	}
	var in []chaos.Dial
	if wl.inputs != nil {
		if in, err = wl.inputs(w.g, seed); err != nil {
			t.Fatal(err)
		}
	}
	rec := newRecorder(w.eng, seed, pat, tr)
	wl.begin(w, in, rec)
	if wl.horizon == 0 {
		w.eng.Run()
	} else {
		w.eng.RunUntil(sim.Time(wl.horizon))
	}
	return rec.finish(w, newProbe())
}

func patternFor(wl *workload, seed uint64) *pattern {
	if wl.payload == 0 {
		return nil
	}
	return newPattern(seed, wl.payload)
}

func TestReceiverChecksEveryByte(t *testing.T) {
	pat := newPattern(9, 5000)
	payload := func(id int) []byte { return append([]byte(nil), pat.fill(make([]byte, pat.size), id)...) }
	feed := func(b []byte) *receiver {
		r := &receiver{pat: pat, id: -1}
		for len(b) > 0 {
			n := min(len(b), 3+len(b)%700) // uneven chunks, splitting the header too
			r.feed(b[:n], 1)
			b = b[n:]
		}
		return r
	}
	if r := feed(payload(42)); r.bad || r.id != 42 || r.got != pat.size {
		t.Fatalf("intact payload: bad=%v id=%d got=%d", r.bad, r.id, r.got)
	}
	corrupt := payload(42)
	corrupt[4321] ^= 1
	if r := feed(corrupt); !r.bad {
		t.Error("a flipped byte went unnoticed")
	}
	other := payload(43)
	copy(other, payload(42)[:hdrLen]) // dial 43's bytes under dial 42's header
	if r := feed(other); !r.bad {
		t.Error("another dial's bytes went unnoticed")
	}
	if r := feed(append(payload(42), 0)); !r.bad {
		t.Error("an extra byte went unnoticed")
	}
}

//go:noinline
func allocateForProfile() [][]byte {
	var keep [][]byte
	for i := 0; i < 256; i++ {
		keep = append(keep, make([]byte, 64<<10))
	}
	return keep
}

func TestParseProfileFindsStacks(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()
	keep := allocateForProfile()
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	v := prof.valueIndex("alloc_space")
	if v < 0 {
		t.Fatalf("sample types %v lack alloc_space", prof.sampleTypes)
	}
	var got int64
	for _, s := range prof.samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".allocateForProfile") {
				got += s.values[v]
				break
			}
		}
	}
	if want := int64(len(keep)) * 64 << 10; got < want {
		t.Errorf("allocateForProfile charged %d bytes, want at least %d", got, want)
	}
}

func TestPkgOf(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.mallocgc", "mic/internal/netsim.(*Network).send.func1", "mic/internal/sim.(*Engine).Step"}, "netsim"},
		{[]string{"mic/internal/sim.(*eventQueue).pop", "mic/internal/sim.(*Engine).Step", "main.drive"}, "sim"},
		{[]string{"runtime.memmove", "main.(*receiver).feed"}, "main"},
		{[]string{"runtime.scanobject", "runtime.gcBgMarkWorker"}, "runtime"},
	} {
		if got := pkgOf(c.stack); got != c.want {
			t.Errorf("pkgOf(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

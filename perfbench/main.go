// Command perfbench is the repository benchmark. It builds seeded MIC
// workloads from the layers' public constructors, times set-up apart from
// the run on the host clock, reports the modelled data centre's results on
// the virtual clock, checks every delivered byte, and prints one JSON
// result line last. With -trace 1 it adds a traced phase whose spans, CPU
// profile and allocation profile give the per-layer numbers.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	python3 perfbench/run.py --workload bulk-mic --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"mic/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bulk-mic, dial-storm or storm-churn")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "host seconds of measurement")
	trace := fs.Int("trace", 0, "1 adds the traced phase and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl := workloadByName(*name)
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload bulk-mic|dial-storm|storm-churn, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	res, err := bench(wl, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// result is the last line of the report.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// hostSample is one instance's host cost: CPU time as measured, wall
// time for the report.
type hostSample struct {
	st                 setupTimes
	run                time.Duration
	setupWall, runWall time.Duration
	alloc              uint64 // bytes allocated during set-up and run
	heapPeak           uint64 // peak live heap, bytes
	events             uint64
}

// measurement is one phase: repetitions of the workload's instance set
// until the budget is spent.
type measurement struct {
	outs          []*outcome // the first repetition's virtual outcomes
	samples       []hostSample
	reps          int
	deterministic bool // every repetition gave the first one's digest
}

func measure(wl *workload, seed uint64, pat *pattern, budget time.Duration, tr *tracer) (*measurement, error) {
	seeds := wl.seeds(seed)
	m := &measurement{deterministic: true}
	var want [32]byte
	start := time.Now()
	for m.reps == 0 || time.Since(start) < budget {
		outs := make([]*outcome, len(seeds))
		for i, s := range seeds {
			out, hs, err := runInstance(wl, s, pat, tr)
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", wl.name, s, err)
			}
			outs[i] = out
			m.samples = append(m.samples, hs)
		}
		if d := digest(outs); m.reps == 0 {
			m.outs, want = outs, d
		} else if d != want {
			m.deterministic = false
		}
		m.reps++
	}
	return m, nil
}

// runInstance builds and runs one seeded instance from a collected heap.
// setup_s covers the layers' constructors; run_s covers the workload's
// first call into a layer up to quiescence or the virtual horizon. Input
// generation (chaos) lies outside both.
func runInstance(wl *workload, seed uint64, pat *pattern, tr *tracer) (*outcome, hostSample, error) {
	runtime.GC()
	p := newProbe()
	a0 := p.read()
	sp := tr.begin("instance", -1)
	defer tr.end(sp)
	wall := time.Now()
	w, st, err := build(wl.fabric(seed), tr)
	if err != nil {
		return nil, hostSample{}, err
	}
	setupWall := time.Since(wall)
	a1 := p.read()
	var in []chaos.Dial
	if wl.inputs != nil {
		if in, err = wl.inputs(w.g, seed); err != nil {
			return nil, hostSample{}, err
		}
	}
	rec := newRecorder(w.eng, seed, pat, tr)
	a2 := p.read()
	rsp := tr.begin("run", -1)
	wall, cpu := time.Now(), cpuTime()
	wl.begin(w, in, rec)
	drive(w.eng, wl.horizon, p, tr)
	run, runWall := cpuTime()-cpu, time.Since(wall)
	tr.end(rsp)
	a3 := p.read()
	out := rec.finish(w, p)
	return out, hostSample{
		st: st, run: run, setupWall: setupWall, runWall: runWall,
		alloc: a1 - a0 + a3 - a2, heapPeak: p.heapPeak, events: w.eng.Processed(),
	}, nil
}

// bench runs the phases, prints the report and returns the result line.
func bench(wl *workload, seed uint64, budget time.Duration, traced bool, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "perfbench workload=%s seed=%d seconds=%g trace=%v\n", wl.name, seed, budget.Seconds(), boolBit(traced))
	fmt.Fprintf(out, "machine %s\n", machine())
	var pat *pattern
	if wl.payload > 0 {
		pat = newPattern(seed, wl.payload)
	}
	phase := budget
	if traced {
		phase = budget / 2
	}
	m, err := measure(wl, seed, pat, phase, newTracer(false))
	if err != nil {
		return nil, err
	}
	v := summarize(m.outs, wl)
	res := &result{Attempted: v.dials, Failed: v.failed, Metrics: map[string]metricValue{}}
	rep := &reporter{out: out, res: res}
	fmt.Fprintf(out, "conditions instances_per_repetition=%d repetitions=%d host_samples=%d virt_dial_n=%d tail=p%g beyond_tail=%d horizon=%v close_errors=%d\n",
		wl.subSeeds, m.reps, len(m.samples), v.dialN, wl.tail, v.beyond, wl.horizon, v.closeErrs)

	if !traced {
		endToEnd(rep, wl, m, v)
	} else {
		tr := newTracer(true)
		prof, err := startProfiler()
		if err != nil {
			return nil, err
		}
		tm, err := measure(wl, seed, pat, phase, tr)
		if err != nil {
			_, _ = prof.stop() // the phase's error is the one to report
			return nil, err
		}
		split, err := prof.stop()
		if err != nil {
			return nil, err
		}
		stem := fmt.Sprintf("%s-seed%d", wl.name, seed)
		dir := filepath.Join(".bench_build", "trace")
		if err := writeArtifacts(dir, stem, tr, split); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace spans=%d written=%s\n", len(tr.spans), filepath.Join(dir, stem+".{spans.jsonl,cpu.pprof}"))
		perLayer(rep, m, tm, tr, split, v)
	}

	fmt.Fprintf(out, "digest sha256=%x\n", digest(m.outs))
	res.Correct = checks(out, wl, m, v)
	return res, nil
}

// reporter prints metric lines and fills the result's metrics.
type reporter struct {
	out io.Writer
	res *result
}

// metric reports a value under name. Only JSON-visible metrics go into the
// result line; others are printed for reading.
func (r *reporter) metric(name string, v float64, unit, note string, inJSON bool) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	fmt.Fprintf(r.out, "metric %-28s %14.6g %-6s %s\n", name, v, unit, note)
	if inJSON {
		r.res.Metrics[name] = metricValue{Value: v, Unit: unit}
	}
}

func endToEnd(r *reporter, wl *workload, m *measurement, v virt) {
	var setup, runT, setupWall, runWall, alloc, heap []float64
	for _, s := range m.samples {
		setup = append(setup, s.st.total().Seconds())
		runT = append(runT, s.run.Seconds())
		setupWall = append(setupWall, s.setupWall.Seconds())
		runWall = append(runWall, s.runWall.Seconds())
		alloc = append(alloc, float64(s.alloc)/1e6)
		heap = append(heap, float64(s.heapPeak)/1e6)
	}
	n := fmt.Sprintf("(median of %d instances)", len(m.samples))
	r.metric("setup_s", median(setup), "s", "process CPU "+n, true)
	r.metric("run_s", median(runT), "s", "process CPU "+n, true)
	r.metric("setup_wall_s", median(setupWall), "s", "wall clock; printed, not gated", false)
	r.metric("run_wall_s", median(runWall), "s", "wall clock; printed, not gated", false)
	r.metric("host_alloc_mb", median(alloc), "MB", n, true)
	r.metric("heap_peak_mb", median(heap), "MB", n, true)
	if wl.payload > 0 {
		r.metric("virt_goodput_mbps", v.goodput, "Mbps", "(mean per stream; printed, not gated)", false)
	}
	r.metric("virt_dial_p50_ms", v.dialP50, "ms", fmt.Sprintf("(n=%d)", v.dialN), true)
	r.metric("virt_dial_tail_ms", v.dialTail, "ms", fmt.Sprintf("(p%g, n=%d, %d beyond)", wl.tail, v.dialN, v.beyond), true)
	r.metric("virt_channels_per_s", v.chPerSec, "1/s", fmt.Sprintf("(%d channels)", v.ok), true)
	r.metric("ops_failed_ratio", ratio(v.failed, v.dials), "ratio", fmt.Sprintf("(%d/%d; printed, gated as ops_ok_ratio)", v.failed, v.dials), false)
	r.metric("ops_ok_ratio", 1-ratio(v.failed, v.dials), "ratio", "", true)
	r.metric("dial_refused_ratio", ratio(v.refused, v.dials), "ratio", fmt.Sprintf("(%d/%d; printed, gated as dial_admit_ratio)", v.refused, v.dials), false)
	r.metric("dial_admit_ratio", 1-ratio(v.refused, v.dials), "ratio", "", true)
}

func perLayer(r *reporter, m, tm *measurement, tr *tracer, split *layerSplit, v virt) {
	c := v.cnt
	var runNs, events float64
	var topoS, netS, ctrlS, stackS, untracedRun, tracedRun []float64
	for _, s := range m.samples {
		runNs += float64(s.run.Nanoseconds())
		events += float64(s.events)
		topoS = append(topoS, s.st.topo.Seconds())
		netS = append(netS, s.st.netsim.Seconds())
		ctrlS = append(ctrlS, s.st.control.Seconds())
		stackS = append(stackS, s.st.stacks.Seconds())
		untracedRun = append(untracedRun, s.run.Seconds())
	}
	for _, s := range tm.samples {
		tracedRun = append(tracedRun, s.run.Seconds())
	}
	r.metric("sim.events", float64(c.events), "count", "", true)
	r.metric("sim.pending_peak", float64(c.pendingPeak), "count", "", true)
	r.metric("sim.ns_per_event", runNs/events, "ns", "(untraced run CPU time over events)", true)
	r.metric("netsim.switch_rx", float64(c.switchRx), "count", "", true)
	r.metric("netsim.drop_ratio", ratio64(c.lost, c.lost+c.delivered), "ratio", "", true)
	r.metric("flowtable.fastpath_ratio", ratio64(c.cacheHits, c.switchRx), "ratio", "", true)
	r.metric("flowtable.misses", float64(c.tableMisses), "count", "", true)
	r.metric("flowtable.evictions", float64(c.evicted), "count", "", true)
	r.metric("transport.tx_packets", float64(c.txPackets), "count", "", true)
	r.metric("transport.retransmits", float64(c.retransmits), "count", "", true)
	est := tr.durations("mic.Client.Dial", "mic.MC.EstablishChannel", "mic.Client.CloseChannel", "mic.MC.CloseChannel")
	total := 0.0
	for _, d := range est {
		total += d
	}
	r.metric("mic.establish_us_p50", median(est)/1e3, "us", fmt.Sprintf("(%d calls)", len(est)), true)
	r.metric("mic.establish_us_total", total/1e3/float64(tm.reps), "us", "(per repetition)", true)
	r.metric("mic.plan_cache_hit_ratio", ratio64(c.planHits, c.planHits+c.planMisses), "ratio", "", true)
	r.metric("mic.refusals", float64(c.refusals), "count", "", true)
	r.metric("mic.miss_reinstalls", float64(c.missReinstalls), "count", "", true)
	r.metric("mic.rules_evicted", float64(c.rulesEvicted), "count", "", true)
	r.metric("ctrlplane.flow_mods", float64(c.flowMods), "count", "", true)
	r.metric("ctrlplane.mods_per_batch", ratio64(c.batchedMods, c.batches), "count", "", true)
	r.metric("ctrlplane.retransmits", float64(c.sbRetrans), "count", "", true)
	r.metric("setup.topo_s", median(topoS), "s", "", true)
	r.metric("setup.netsim_s", median(netS), "s", "", true)
	r.metric("setup.control_s", median(ctrlS), "s", "", true)
	r.metric("setup.stacks_s", median(stackS), "s", "", true)
	cpu, alloc := shares(split.cpu), split.alloc
	allocByLayer := map[string]float64{}
	for pkg, b := range alloc {
		allocByLayer[layerOf(pkg)] += b
	}
	for _, l := range append(append([]string(nil), layers...), "other") {
		r.metric(l+".self_share", cpu[l], "ratio", "", true)
		r.metric(l+".alloc_mb", allocByLayer[l]/1e6/float64(tm.reps), "MB", "(per repetition)", true)
	}
	for _, pkg := range sortedKeys(split.cpu) {
		fmt.Fprintf(r.out, "cpu-by-package   %-12s %.4f\n", pkg, split.cpu[pkg]/sum(split.cpu))
	}
	for _, pkg := range sortedKeys(alloc) {
		fmt.Fprintf(r.out, "alloc-by-package %-12s %.3f MB per repetition\n", pkg, alloc[pkg]/1e6/float64(tm.reps))
	}
	r.metric("trace.run_s", median(tracedRun), "s", "(traced run CPU time, median per instance)", true)
	r.metric("trace.overhead_s", median(tracedRun)-median(untracedRun), "s", "(traced minus untraced run_s)", true)
}

// checks prints the correctness checks and reports whether all passed.
func checks(out io.Writer, wl *workload, m *measurement, v virt) bool {
	ok := true
	check := func(name string, pass bool, format string, args ...any) {
		state := "ok"
		if !pass {
			state, ok = "FAIL", false
		}
		fmt.Fprintf(out, "check %-12s %s: %s\n", name, state, fmt.Sprintf(format, args...))
	}
	answered := 0
	for _, o := range m.outs {
		for _, d := range o.dials {
			if d.answers > 0 {
				answered++
			}
		}
	}
	check("payload", v.badStreams == 0, "%d streams delivered a wrong byte; %d bytes verified", v.badStreams, v.bytesChecked)
	check("answered", v.dupAnswers == 0, "%d/%d dials answered, %d more than once (unanswered count as failed ops)", answered, v.dials, v.dupAnswers)
	check("determinism", m.deterministic, "%d repetitions, one digest", m.reps)
	err := wl.equivalent(m.outs[0])
	detail := fmt.Sprintf("seed %d matches the harness", m.outs[0].seed)
	if err != nil {
		detail = err.Error()
	}
	check("equivalence", err == nil, "%s", detail)
	return ok
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

func ratio(a, b int) float64 { return ratio64(uint64(a), uint64(b)) }

func ratio64(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func sum(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v
	}
	return t
}

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one dial share its Dial id.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Dial   int64  `json:"dial"`     // dial the call belongs to, -1 if none
	Start  int64  `json:"start_ns"` // host ns since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory. When off, begin and end return at once, so
// the untraced run pays one branch per layer boundary.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
	open  []int32 // open spans, innermost last: the parent of the next one
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

func (t *tracer) begin(name string, dial int64) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Dial: dial, Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int32) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// phase returns the process CPU time fn takes, recording it as a span when
// tracing. Set-up phases are timed this way in every run, since setup_s is
// their sum.
func (t *tracer) phase(name string, fn func() error) (time.Duration, error) {
	sp := t.begin(name, -1)
	start := cpuTime()
	err := fn()
	d := cpuTime() - start
	t.end(sp)
	return d, err
}

// durations returns the host durations of the spans with the given names.
func (t *tracer) durations(names ...string) []float64 {
	var ds []float64
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				ds = append(ds, float64(s.End-s.Start))
			}
		}
	}
	return ds
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layers are the measured layers: this repository's packages under
// mic/internal, plus the Go runtime (allocator, GC, scheduler).
var layers = []string{"sim", "netsim", "flowtable", "packet", "transport", "mic", "ctrlplane", "maga", "topo", "runtime"}

// pkgOf names the package a profile sample is charged to: the package of
// its innermost mic/internal frame; "main" when there is none but the
// benchmark's own code is on the stack; otherwise "runtime" (GC workers,
// scheduler).
func pkgOf(stack []string) string {
	const prefix = "mic/internal/"
	inBench := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, prefix); ok {
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				rest = rest[:i]
			}
			return rest
		}
		inBench = inBench || strings.HasPrefix(fn, "main.")
	}
	if inBench {
		return "main"
	}
	return "runtime"
}

// layerOf maps a package to its measured layer, or "other" for the
// benchmark itself and the helper packages (addr, bytequeue, metrics, ...).
func layerOf(pkg string) string {
	for _, l := range layers {
		if l == pkg {
			return l
		}
	}
	return "other"
}

// byPackage sums one sample value per package.
func byPackage(p *profile, value int) map[string]float64 {
	m := map[string]float64{}
	for _, s := range p.samples {
		if value < len(s.values) {
			m[pkgOf(s.stack)] += float64(s.values[value])
		}
	}
	return m
}

// profiler records a CPU profile and the allocation profile's growth over
// the traced phase.
type profiler struct {
	cpu          bytes.Buffer
	allocsBefore map[string]float64
}

func startProfiler() (*profiler, error) {
	p := &profiler{}
	var err error
	if p.allocsBefore, err = allocBytesByPackage(); err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(&p.cpu); err != nil {
		return nil, err
	}
	return p, nil
}

// layerSplit is the traced phase's per-package CPU samples and allocated
// bytes.
type layerSplit struct {
	cpu, alloc map[string]float64
	cpuRaw     []byte // the CPU profile, for go tool pprof
}

func (p *profiler) stop() (*layerSplit, error) {
	pprof.StopCPUProfile()
	prof, err := parseProfile(p.cpu.Bytes())
	if err != nil {
		return nil, err
	}
	v := prof.valueIndex("cpu")
	if v < 0 {
		return nil, fmt.Errorf("cpu profile has no cpu value")
	}
	after, err := allocBytesByPackage()
	if err != nil {
		return nil, err
	}
	alloc := map[string]float64{}
	for pkg, b := range after {
		alloc[pkg] = b - p.allocsBefore[pkg]
	}
	return &layerSplit{cpu: byPackage(prof, v), alloc: alloc, cpuRaw: p.cpu.Bytes()}, nil
}

// allocBytesByPackage reads the cumulative allocation profile. The GC
// first publishes every allocation made so far.
func allocBytesByPackage() (map[string]float64, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	prof, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	v := prof.valueIndex("alloc_space")
	if v < 0 {
		return nil, fmt.Errorf("allocation profile has no alloc_space value")
	}
	return byPackage(prof, v), nil
}

// shares folds per-package totals into the measured layers plus "other",
// as fractions of the whole.
func shares(m map[string]float64) map[string]float64 {
	total := 0.0
	for _, v := range m {
		total += v
	}
	out := map[string]float64{}
	for pkg, v := range m {
		if total > 0 {
			out[layerOf(pkg)] += v / total
		}
	}
	return out
}

// sortedKeys lists a map's keys in order, for stable report lines.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// writeArtifacts stores the traced phase's spans and CPU profile under dir.
func writeArtifacts(dir, stem string, t *tracer, split *layerSplit) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := t.write(filepath.Join(dir, stem+".spans.jsonl")); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".cpu.pprof"), split.cpuRaw, 0o644)
}

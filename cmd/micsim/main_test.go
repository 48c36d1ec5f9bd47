package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden reports under testdata/")

// scenarioSize is the payload every scenario below moves, except mckill's.
const scenarioSize = 1 << 20

// reportScenarios are the reports the determinism and golden tests pin,
// each run at seed 7.
var reportScenarios = []struct {
	name string
	run  func(w io.Writer, seed uint64) error
}{
	{"chaos", func(w io.Writer, seed uint64) error {
		return chaosReport(w, false, 0, 15, 3, 2, 1, scenarioSize, seed)
	}},
	{"lossy", func(w io.Writer, seed uint64) error {
		return lossyReport(w, false, 0, 15, 3, 2, 1, scenarioSize, seed)
	}},
	// mckill gets a 4 MB payload so the transfer is still mid-flight when
	// the controller dies at 30ms — the takeover must happen under load.
	{"mckill", func(w io.Writer, seed uint64) error {
		return mckillReport(w, false, 0, 15, 3, 2, 1, 4*scenarioSize, seed)
	}},
	// partition exercises the lease/fencing paths: mgmt cuts, step-downs,
	// epoch bumps, Hello fan-out, and stale-write rejection at switches.
	{"partition", func(w io.Writer, seed uint64) error {
		return partitionReport(w, false, 0, 15, 3, 2, 1, scenarioSize, seed)
	}},
	// storm exercises the admission/backoff paths: token-bucket drains,
	// queue shedding, degraded-F admissions, seeded retry jitter.
	{"storm", func(w io.Writer, seed uint64) error {
		return stormReport(w, false, 0, 15, 3, 4, 1, scenarioSize, seed)
	}},
}

// TestScenarioReportsAreDeterministic is the regression net under miclint:
// the same seed must produce byte-identical reports — fault schedules,
// repair traces, health counters, throughput figures and all — across
// repeated in-process runs. Any unordered map iteration, wall-clock read,
// or global-rand draw on a simulated path shows up here as a diff.
func TestScenarioReportsAreDeterministic(t *testing.T) {
	for _, sc := range reportScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var first, second bytes.Buffer
			if err := sc.run(&first, 7); err != nil {
				t.Fatalf("first run: %v", err)
			}
			if err := sc.run(&second, 7); err != nil {
				t.Fatalf("second run: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Errorf("scenario %s is nondeterministic:\n%s", sc.name, firstDiff(first.String(), second.String()))
			}
		})
	}
}

// TestScenarioReportsMatchGolden pins each scenario's seed-7 report to the
// committed bytes in testdata/, so virtual-time drift between commits fails
// here instead of only between two runs of one commit. Regenerate with
// `go test ./cmd/micsim -run MatchGolden -update` and justify the diff.
func TestScenarioReportsMatchGolden(t *testing.T) {
	for _, sc := range reportScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var got bytes.Buffer
			if err := sc.run(&got, 7); err != nil {
				t.Fatalf("run: %v", err)
			}
			path := filepath.Join("testdata", sc.name+"-seed7.golden")
			if *update {
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("scenario %s drifted from %s:\n%s", sc.name, path, firstDiff(string(want), got.String()))
			}
		})
	}
}

// TestScenarioReportsVaryBySeed guards the test above against vacuity: a
// report that ignored the seed entirely would pass the identity check.
func TestScenarioReportsVaryBySeed(t *testing.T) {
	var a, b bytes.Buffer
	if err := chaosReport(&a, false, 0, 15, 3, 2, 1, 1<<20, 7); err != nil {
		t.Fatalf("seed 7: %v", err)
	}
	if err := chaosReport(&b, false, 0, 15, 3, 2, 1, 1<<20, 8); err != nil {
		t.Fatalf("seed 8: %v", err)
	}
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("chaos reports for different seeds are identical; the scenario is not consuming the seed")
	}
}

// firstDiff renders the first differing line of two reports.
func firstDiff(a, b string) string {
	al, bl := bytes.Split([]byte(a), []byte("\n")), bytes.Split([]byte(b), []byte("\n"))
	for i := 0; i < len(al) && i < len(bl); i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("reports differ in length: %d vs %d lines", len(al), len(bl))
}

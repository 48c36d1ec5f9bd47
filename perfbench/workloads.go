package main

import (
	"fmt"
	"reflect"
	"time"

	"mic/internal/chaos"
	"mic/internal/harness"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/topo"
)

// workload is one seeded benchmark input. A repetition runs subSeeds
// instances, seeded seed, seed+1000003, ...; the program under test sees
// only the generated fabric and dial schedule.
type workload struct {
	name     string
	subSeeds int
	tail     float64       // dial-latency tail percentile
	horizon  time.Duration // virtual horizon; 0 runs to quiescence
	payload  int           // bytes each established dial sends; 0 for none

	fabric func(seed uint64) fabric
	// inputs generates the dial schedule, outside the timed phases.
	inputs func(g *topo.Graph, seed uint64) ([]chaos.Dial, error)
	// begin issues or schedules the workload's operations.
	begin func(w *world, in []chaos.Dial, rec *recorder)
	// goodput lists one instance's per-stream receive goodput, Mbps.
	goodput func(o *outcome) []float64
	// equivalent re-runs the harness function behind the workload's paper
	// figure and compares its virtual outputs with the benchmark's.
	equivalent func(o *outcome) error
}

func (wl *workload) seeds(seed uint64) []uint64 {
	s := make([]uint64, wl.subSeeds)
	for i := range s {
		s[i] = seed + uint64(i)*1000003
	}
	return s
}

var workloads = []*workload{bulkMIC, dialStorm, stormChurn}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// --- bulk-mic: the Fig 9(b) top cell ---

const (
	bulkFlows = 8
	bulkMNs   = 3
	bulkBytes = 2 << 20
)

// bulkMIC carries eight concurrent MIC-TCP channels on disjoint cross-pod
// host pairs of a k=4 fat-tree, each pushing a 2 MiB payload, to
// quiescence: harness.MultiFlowAvgThroughput(MIC-TCP, 8 flows).
var bulkMIC = &workload{
	name:     "bulk-mic",
	subSeeds: 13, // 104 dials: enough for a p90 with ten samples beyond it
	tail:     90,
	payload:  bulkBytes,
	fabric: func(seed uint64) fabric {
		return fabric{arity: 4, mc: mic.Config{Seed: seed + 1}, stacks: true}
	},
	begin: func(w *world, _ []chaos.Dial, rec *recorder) {
		hosts := w.g.Hosts()
		for i := 0; i < bulkFlows; i++ {
			mic.Listen(w.stacks[hosts[8+i]], uint16(8000+i), false, rec.accept)
		}
		for i := 0; i < bulkFlows; i++ {
			client := mic.NewClient(w.stacks[hosts[i]], w.mc)
			client.Opts.MNs = bulkMNs
			rec.clients = append(rec.clients, client)
			id := rec.issue()
			sp := rec.tr.begin("mic.Client.Dial", int64(id))
			client.Dial(w.stacks[hosts[8+i]].Host.IP.String(), uint16(8000+i), func(s *mic.Stream, err error) {
				rec.answer(id, s, err)
				if err == nil {
					rec.send(id, s)
				}
			})
			rec.tr.end(sp)
		}
	},
	goodput: bulkGoodput,
	equivalent: func(o *outcome) error {
		want, err := harness.MultiFlowAvgThroughput(harness.SchemeMICTCP, bulkFlows, bulkBytes, o.seed)
		if err != nil {
			return err
		}
		var got metrics.Sample
		for _, g := range bulkGoodput(o) {
			got.Add(g)
		}
		if got.N() != bulkFlows || got.Mean() != want {
			return fmt.Errorf("MultiFlowAvgThroughput = %v Mbps, perfbench %v Mbps over %d flows", want, got.Mean(), got.N())
		}
		return nil
	},
}

// bulkGoodput is MultiFlowAvgThroughput's per-flow figure: payload bits
// over the time from establishment to the last byte's arrival.
func bulkGoodput(o *outcome) []float64 {
	var g []float64
	for _, d := range o.dials {
		if d.class == established && d.recvd >= bulkBytes {
			g = append(g, float64(bulkBytes)*8/d.done.Sub(d.estab).Seconds()/1e6)
		}
	}
	return g
}

// --- dial-storm: control-plane set-up throughput on a large fabric ---

const (
	dialStormArity  = 16
	dialStormPairs  = 32
	dialStormRate   = 2000 // dials/s, below the k16 flow-ID exhaustion knee
	dialStormWindow = 3 * time.Second
	dialStormMax    = 8192
	dialStormMFlows = 2
	dialStormMNs    = 3
	dialStormHold   = 5 * time.Millisecond
)

// dialStorm drives an open-loop Poisson EstablishChannel storm, with no
// transport, against one Mimic Controller on a k=16 fat-tree; channels
// close after a short hold so flow IDs recycle. Its virtual outputs equal
// a one-shard harness.RunSetupBench on the same storm.
var dialStorm = &workload{
	name:     "dial-storm",
	subSeeds: 1,
	tail:     99,
	fabric: func(seed uint64) fabric {
		return fabric{
			arity:     dialStormArity,
			mc:        mic.Config{MNs: dialStormMNs, MFlows: dialStormMFlows, Seed: seed},
			fitWidths: true,
		}
	},
	inputs: func(g *topo.Graph, seed uint64) ([]chaos.Dial, error) {
		return chaos.SetupStorm(g, seed, chaos.StormConfig{
			Pairs: dialStormPairs, Rate: dialStormRate, Window: dialStormWindow, MaxDials: dialStormMax,
		})
	},
	begin: func(w *world, in []chaos.Dial, rec *recorder) {
		for _, d := range in {
			d := d
			w.eng.After(d.At, func() {
				id := rec.issue()
				sp := rec.tr.begin("mic.MC.EstablishChannel", int64(id))
				w.mc.EstablishChannel(w.g.Node(d.From).IP, w.g.Node(d.To).IP.String(), mic.ChannelOptions{}, func(info *mic.ChannelInfo, err error) {
					rec.answer(id, nil, err)
					if err != nil {
						return
					}
					w.eng.After(dialStormHold, func() {
						sp := rec.tr.begin("mic.MC.CloseChannel", int64(id))
						if err := w.mc.CloseChannel(info.ID, nil); err != nil {
							rec.out.closeErrs++
						}
						rec.tr.end(sp)
					})
				})
				rec.tr.end(sp)
			})
		}
	},
	goodput: func(*outcome) []float64 { return nil },
	equivalent: func(o *outcome) error {
		want, err := harness.RunSetupBench(harness.SetupBenchOptions{
			Seed: o.seed, Arity: dialStormArity, Shards: 1,
			Pairs: dialStormPairs, Rate: dialStormRate, Window: dialStormWindow, MaxDials: dialStormMax,
			MFlows: dialStormMFlows, MNs: dialStormMNs, Hold: dialStormHold,
		})
		if err != nil {
			return err
		}
		got := &harness.SetupBenchResult{
			Dials:       len(o.dials),
			CacheHits:   o.cnt.planHits,
			CacheMisses: o.cnt.planMisses,
			Batches:     o.cnt.batches,
			BatchedMods: o.cnt.batchedMods,
		}
		var lat metrics.Sample
		first, last := o.dials[0].issued, o.dials[0].issued
		for _, d := range o.dials {
			if d.class != established {
				got.Failed++
				continue
			}
			got.OK++
			lat.Add(d.estab.Sub(d.issued).Seconds() * 1e3)
			last = max(last, d.estab)
		}
		if last > first {
			makespan := last.Sub(first).Seconds()
			got.MakespanMs = makespan * 1e3
			got.ChannelsPerSec = float64(got.OK) / makespan
		}
		got.P50Ms, got.P99Ms = lat.Percentile(50), lat.Percentile(99)
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("RunSetupBench = %+v, perfbench %+v", *want, *got)
		}
		return nil
	},
}

// --- storm-churn: admission shedding, eviction and transport churn ---

const (
	churnMFlows  = 4
	churnMNs     = 3
	churnRate    = 4000 // dials/s: four times the admission rate
	churnWindow  = 50 * time.Millisecond
	churnHold    = 25 * time.Millisecond
	churnTimeout = 250 * time.Millisecond
	churnPort    = 80
	churnBytes   = 32 << 10
)

// churnAdmission is the s9 overload configuration: a 1000/s token bucket,
// LRU eviction of idle m-flow rules and a 24-rule per-switch budget.
var churnAdmission = mic.AdmissionConfig{
	Enabled: true, Rate: 1000, Burst: 8,
	QueueLimit: 32, QueueDeadline: 10 * time.Millisecond,
	EvictIdle: true, SwitchRuleBudget: 24,
}

// stormChurn is harness.RunStorm at 4x the admission rate: a k=4 fabric
// with capacity-48 flow tables, a Poisson dial storm in which every dial
// is a fresh client that retries on refusal, and admitted MIC-TCP streams
// that send 32 KiB and close 25 ms later, run to a 5 s virtual horizon.
var stormChurn = &workload{
	name:     "storm-churn",
	subSeeds: 96,
	tail:     99,
	horizon:  5 * time.Second,
	payload:  churnBytes,
	fabric: func(seed uint64) fabric {
		return fabric{
			arity: 4,
			net:   netsim.Config{FlowTableCapacity: 48},
			mc: mic.Config{
				MNs: churnMNs, MFlows: churnMFlows, MulticastFanout: 1,
				Seed: seed, Admission: churnAdmission,
			},
			stacks: true,
		}
	},
	inputs: func(g *topo.Graph, seed uint64) ([]chaos.Dial, error) {
		return chaos.SetupStorm(g, seed, chaos.StormConfig{Pairs: 8, Rate: churnRate, Window: churnWindow})
	},
	begin: func(w *world, in []chaos.Dial, rec *recorder) {
		listening := make(map[topo.NodeID]bool)
		for _, d := range in {
			if !listening[d.To] {
				listening[d.To] = true
				mic.Listen(w.stacks[d.To], churnPort, false, rec.accept)
			}
		}
		for i, d := range in {
			i, d := i, d
			w.eng.After(d.At, func() {
				client := mic.NewClientSeeded(w.stacks[d.From], w.mc, uint64(i)+1)
				client.Opts = mic.ChannelOptions{MFlows: churnMFlows}
				client.SetupTimeout = churnTimeout
				rec.clients = append(rec.clients, client)
				id := rec.issue()
				target := w.stacks[d.To].Host.IP.String()
				sp := rec.tr.begin("mic.Client.Dial", int64(id))
				client.Dial(target, churnPort, func(s *mic.Stream, err error) {
					rec.answer(id, s, err)
					if err != nil {
						return
					}
					rec.send(id, s)
					w.eng.After(churnHold, func() {
						sp := rec.tr.begin("mic.Client.CloseChannel", int64(id))
						s.Close()
						if err := client.CloseChannel(target, nil); err != nil {
							rec.out.closeErrs++
						}
						rec.tr.end(sp)
					})
				})
				rec.tr.end(sp)
			})
		}
	},
	goodput: churnGoodput,
	equivalent: func(o *outcome) error {
		want, err := harness.RunStorm(harness.StormOptions{Seed: o.seed, Rate: churnRate, Admission: churnAdmission})
		if err != nil {
			return err
		}
		got := &harness.StormResult{Dials: len(o.dials), FirstFailure: o.firstErr, Retries: o.retries}
		var lat, good, achieved metrics.Sample
		for _, d := range o.dials {
			got.Answered += d.answers
			switch d.class {
			case established:
				lat.Add(d.estab.Sub(d.issued).Seconds() * 1e3)
				achieved.Add(float64(d.flows))
				if d.flows < churnMFlows {
					got.Degraded++
				} else {
					got.OK++
				}
			case refused:
				got.Refused++
			case timedOut:
				got.TimedOut++
			case failedErr:
				got.Failed++
			}
		}
		for _, g := range churnGoodput(o) {
			good.Add(g)
		}
		got.P99DialMs, got.GoodputMbps, got.AchievedF = lat.Percentile(99), good.Mean(), achieved.Mean()
		if want.Counters.String() != o.telemetry {
			return fmt.Errorf("RunStorm telemetry %q, perfbench %q", want.Counters.String(), o.telemetry)
		}
		want.Counters = nil
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("RunStorm = %+v, perfbench %+v", *want, *got)
		}
		return nil
	},
}

// churnGoodput is RunStorm's per-stream figure, over the streams whose
// payload fully arrived, in accept order.
func churnGoodput(o *outcome) []float64 {
	var g []float64
	for _, rv := range o.recvs {
		if rv.got >= churnBytes && rv.last > rv.first {
			g = append(g, float64(rv.got)*8/rv.last.Sub(rv.first).Seconds()/1e6)
		}
	}
	return g
}

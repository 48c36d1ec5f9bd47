package harness

import (
	"fmt"
	"time"

	"mic/internal/chaos"
	"mic/internal/metrics"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

func init() {
	register(Experiment{
		ID:    "s8",
		Title: "Controller failover: goodput and setup blackout across an MC kill",
		Run:   runS8Failover,
	})
}

// s8Outcome is one failover trial's measurements.
type s8Outcome struct {
	goodput    float64 // Mbps of the bulk transfer, across the kill
	blackoutMs float64 // latency of a channel setup issued at the kill instant
	stale      float64 // stale-epoch rules left on switches after takeover
}

// runS8Failover regenerates the failover figure: a bulk transfer is
// mid-flight when the active controller is killed (the chaos failover
// scenario also cuts a link just before the kill, so the controller dies
// mid-repair). Three variants: MIC F=1, MIC F=4, and F=4 with the takeover
// reconciliation pass disabled. Goodput shows the data plane riding through
// the headless window on installed rules; the blackout column is the setup
// latency of a channel requested at the kill instant — it absorbs the full
// heartbeat-detection + journal-replay + reconciliation window; the stale
// column is the differential audit after takeover, non-zero only for the
// ablation.
func runS8Failover(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := 4 << 20
	if cfg.Quick {
		size = 1 << 20
	}
	variants := []struct {
		name        string
		mflows      int
		noReconcile bool
	}{
		{"mic_f1", 1, false},
		{"mic_f4", 4, false},
		{"mic_f4_noreconcile", 4, true},
	}
	tbl := metrics.NewTable("variant", "goodput_mbps", "setup_blackout_ms", "stale_rules_after")
	for _, v := range variants {
		var good, blk, stale metrics.Sample
		var firstErr error
		for i := 0; i < cfg.Trials; i++ {
			seed := cfg.Seed + uint64(i)*1000003
			o, err := s8Trial(v.mflows, v.noReconcile, size, seed)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			good.Add(o.goodput)
			blk.Add(o.blackoutMs)
			stale.Add(o.stale)
		}
		if good.N() == 0 && firstErr != nil {
			return nil, fmt.Errorf("s8 %s: %w", v.name, firstErr)
		}
		tbl.AddRow(v.name, good.Mean(), blk.Mean(), stale.Mean())
	}
	return &Result{
		ID: "s8", Title: "Goodput and setup blackout across a controller kill", Table: tbl,
		Notes: []string{
			"the chaos failover scenario cuts one uplink 1ms before the kill so the primary dies mid-repair, then cuts a second uplink while the cluster is headless and restarts the dead host later",
			"goodput barely dips: switches keep forwarding on installed rules through the blackout; the F=1 channel rides one path, F=4 spreads the cut across four",
			"setup_blackout_ms: a dial issued at the kill instant waits out heartbeat-miss detection, journal replay and switch reconciliation before the promoted standby answers — this is the control-plane outage the data plane never sees",
			"stale_rules_after: post-takeover differential audit of every switch against the rebuilt intent; zero with reconciliation, non-zero for the ablation because the dead life's rules are never purged",
		},
	}, nil
}

// s8Trial runs one controller-kill trial and reports goodput, the blackout
// probe's setup latency, and the post-takeover audit's stale-rule count.
func s8Trial(mflows int, noReconcile bool, size int, seed uint64) (s8Outcome, error) {
	g, err := topo.FatTree(4)
	if err != nil {
		return s8Outcome{}, err
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	cl, err := mic.NewCluster(net, mic.Config{
		MNs: 3, MFlows: mflows, Seed: seed,
		AutoRepair: true, RepairMaxRetries: 20,
	}, mic.ClusterConfig{DisableReconcile: noReconcile})
	if err != nil {
		return s8Outcome{}, err
	}
	var stacks []*transport.Stack
	for _, hid := range g.Hosts() {
		stacks = append(stacks, transport.NewStack(net.Host(hid)))
	}

	got := 0
	var start, end sim.Time
	mic.Listen(stacks[15], 80, false, func(s *mic.Stream) {
		s.OnData(func(b []byte) {
			got += len(b)
			if got >= size && end == 0 {
				end = eng.Now()
			}
		})
	})
	data := payload(size)
	client := mic.NewClient(stacks[0], cl)
	var dialErr error
	client.Dial(stacks[15].Host.IP.String(), 80, func(s *mic.Stream, err error) {
		if err != nil {
			dialErr = err
			return
		}
		start = eng.Now()
		s.Send(data)
	})

	sched, err := chaos.FailoverScenario(g, seed, chaos.FailoverConfig{
		From: g.Hosts()[0], To: g.Hosts()[15],
	})
	if err != nil {
		return s8Outcome{}, err
	}
	var killAt time.Duration
	for _, f := range sched {
		if f.Kind == chaos.MCKill {
			killAt = f.At
		}
	}
	chaos.NewRunner(net, nil).Play(sched)

	// The blackout probe: a second tenant asks for a channel at the very
	// moment the controller dies. Its setup latency is the control-plane
	// outage window.
	mic.Listen(stacks[12], 80, false, func(s *mic.Stream) {})
	var probeIssued, probeDone sim.Time
	eng.After(killAt, func() {
		probeIssued = eng.Now()
		probe := mic.NewClient(stacks[3], cl)
		probe.Dial(stacks[12].Host.IP.String(), 80, func(s *mic.Stream, err error) {
			if err != nil {
				dialErr = err
				return
			}
			probeDone = eng.Now()
		})
	})

	eng.RunUntil(sim.Time(10 * time.Second))
	cl.Stop()
	eng.Run()
	if dialErr != nil {
		return s8Outcome{}, dialErr
	}
	if probeDone == 0 {
		return s8Outcome{}, fmt.Errorf("harness: blackout probe dial never completed")
	}
	staleN, _ := cl.Audit()
	return s8Outcome{
		goodput:    s7Goodput(got, start, end, eng.Now()),
		blackoutMs: time.Duration(probeDone-probeIssued).Seconds() * 1e3,
		stale:      float64(staleN),
	}, nil
}

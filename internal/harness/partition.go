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
		ID:    "s11",
		Title: "Partition tolerance: dial blackout and zombie-primary containment",
		Run:   runS11Partition,
	})
}

// s11Outcome is one management-partition trial's measurements.
type s11Outcome struct {
	splitBlackoutMs  float64 // dial issued as the symmetric split's lease expires
	zombieBlackoutMs float64 // dial issued at the asymmetric-partition onset
	staleRules       float64 // flow-table audit's stale count after every cut heals
	divergent        float64 // journal appends from a fenced (deposed) master
	rejects          float64 // switch-side mutations refused for a stale epoch
}

// runS11Partition regenerates the partition-tolerance figure. The chaos
// partition scenario drives a two-member cluster through a symmetric
// controller split, an asymmetric zombie-primary partition (the active loses
// only its outbound management paths, so it keeps believing it is master),
// and a full heal — with a fabric link cut mid-zombie-window so the deposed
// and the legitimate active race to repair the same channel.
//
// Two variants: fencing on (leases force the cut-off active to step down
// before any standby's takeover window opens; epoch-stamped writes are
// refused by switches once a newer master says Hello) and the fencing-off
// ablation (mastership is decided by reachability alone). The ablation is
// the control: it must show the split-brain damage — stale rules surviving
// the heal and zombie writes landing in the journal — that the lease/epoch
// protocol exists to prevent.
func runS11Partition(cfg RunConfig) (*Result, error) {
	cfg = cfg.withDefaults()
	size := 4 << 20
	if cfg.Quick {
		size = 1 << 20
	}
	variants := []struct {
		name           string
		disableFencing bool
	}{
		{"mic_fencing", false},
		{"mic_nofencing", true},
	}
	tbl := metrics.NewTable("variant", "split_blackout_ms", "zombie_blackout_ms", "stale_rules_after", "journal_divergent", "switch_rejects")
	for _, v := range variants {
		var sblk, zblk, stale, div, rej metrics.Sample
		var firstErr error
		for i := 0; i < cfg.Trials; i++ {
			seed := cfg.Seed + uint64(i)*1000003
			o, err := s11Trial(v.disableFencing, size, seed)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			sblk.Add(o.splitBlackoutMs)
			zblk.Add(o.zombieBlackoutMs)
			stale.Add(o.staleRules)
			div.Add(o.divergent)
			rej.Add(o.rejects)
		}
		if sblk.N() == 0 && firstErr != nil {
			return nil, fmt.Errorf("s11 %s: %w", v.name, firstErr)
		}
		tbl.AddRow(v.name, sblk.Mean(), zblk.Mean(), stale.Mean(), div.Mean(), rej.Mean())
	}
	return &Result{
		ID: "s11", Title: "Dial blackout and stale state across management partitions", Table: tbl,
		Notes: []string{
			"split_blackout_ms: a channel requested as the symmetric split expires the active's lease; the step-down-then-takeover handover bounds it by lease duration plus takeover plus one retry quantum — the figure's availability claim",
			"zombie_blackout_ms: a channel requested the instant the asymmetric partition opens; the fenced cluster refuses to serve until the successor has reconciled the fabric it can actually reach, so this probe rides out the partition window — the availability price of refusing split-brain, and the one column where the unfenced ablation can look better",
			"stale_rules_after: differential flow-table audit once every cut heals; zero with fencing because the lease forces the zombie to quiesce and switch-side epoch rejection kills anything it still sends, non-zero for the ablation because both masters repair the same fabric cut and neither purges the other's rules",
			"journal_divergent: appends stamped with a fencing epoch below the journal's high-water mark — a deposed master writing as if it were still in charge; the lease protocol keeps this at zero by quiescing before the takeover window opens",
			"switch_rejects: mutations refused by switches for carrying a stale epoch; the backstop only engages when fencing is on — the ablation's zero here is the vulnerability, not a virtue",
		},
	}, nil
}

// s11Trial runs one partition storm and reports the blackout probe's setup
// latency plus the post-heal safety counters.
func s11Trial(disableFencing bool, size int, seed uint64) (s11Outcome, error) {
	g, err := topo.FatTree(4)
	if err != nil {
		return s11Outcome{}, err
	}
	eng := sim.New()
	net := netsim.New(eng, g, netsim.Config{})
	cl, err := mic.NewCluster(net, mic.Config{
		MNs: 3, MFlows: 2, Seed: seed,
		AutoRepair: true, RepairMaxRetries: 20,
	}, mic.ClusterConfig{DisableFencing: disableFencing})
	if err != nil {
		return s11Outcome{}, err
	}
	var stacks []*transport.Stack
	for _, hid := range g.Hosts() {
		stacks = append(stacks, transport.NewStack(net.Host(hid)))
	}

	// The bulk transfer keeps a channel installed across all three acts so
	// the mid-partition fabric cut has something to force a repair race over.
	got := 0
	mic.Listen(stacks[15], 80, false, func(s *mic.Stream) {
		s.OnData(func(b []byte) { got += len(b) })
	})
	data := payload(size)
	client := mic.NewClient(stacks[0], cl)
	var dialErr error
	client.Dial(stacks[15].Host.IP.String(), 80, func(s *mic.Stream, err error) {
		if err != nil {
			dialErr = err
			return
		}
		s.Send(data)
	})

	sched, err := chaos.PartitionScenario(g, seed, chaos.PartitionConfig{
		From: g.Hosts()[0], To: g.Hosts()[15],
	})
	if err != nil {
		return s11Outcome{}, err
	}
	// The symmetric split opens at the earliest MgmtCut, the asymmetric act
	// at the latest (act 3 is all heals).
	splitAt := sched[len(sched)-1].At
	var zombieAt time.Duration
	for _, f := range sched {
		if f.Kind == chaos.MgmtCut {
			if f.At < splitAt {
				splitAt = f.At
			}
			if f.At > zombieAt {
				zombieAt = f.At
			}
		}
	}
	chaos.NewRunner(net, nil).Play(sched)

	// Probe 1: a dial timed to land as the split expires the founding
	// active's lease — the handover window the lease+takeover bound covers.
	lease := time.Duration(mic.DefaultHeartbeatMisses) * mic.DefaultHeartbeatInterval
	mic.Listen(stacks[12], 80, false, func(s *mic.Stream) {})
	var splitIssued, splitDone sim.Time
	eng.After(splitAt+lease, func() {
		splitIssued = eng.Now()
		probe := mic.NewClient(stacks[3], cl)
		probe.Dial(stacks[12].Host.IP.String(), 80, func(s *mic.Stream, err error) {
			if err != nil {
				dialErr = err
				return
			}
			splitDone = eng.Now()
		})
	})

	// Probe 2: a second tenant dials at the exact instant the now-active
	// controller is partitioned from its peer and half the fabric.
	mic.Listen(stacks[13], 80, false, func(s *mic.Stream) {})
	var zombieIssued, zombieDone sim.Time
	eng.After(zombieAt, func() {
		zombieIssued = eng.Now()
		probe := mic.NewClient(stacks[5], cl)
		probe.Dial(stacks[13].Host.IP.String(), 80, func(s *mic.Stream, err error) {
			if err != nil {
				dialErr = err
				return
			}
			zombieDone = eng.Now()
		})
	})

	eng.RunUntil(sim.Time(2 * time.Second))
	cl.Stop()
	eng.Run()
	if dialErr != nil {
		return s11Outcome{}, dialErr
	}
	if splitDone == 0 || zombieDone == 0 {
		return s11Outcome{}, fmt.Errorf("harness: partition blackout probe never completed")
	}
	staleN, _ := cl.Audit()
	var rejects uint64
	for _, sw := range net.Switches() {
		rejects += sw.StaleRejected
	}
	return s11Outcome{
		splitBlackoutMs:  time.Duration(splitDone-splitIssued).Seconds() * 1e3,
		zombieBlackoutMs: time.Duration(zombieDone-zombieIssued).Seconds() * 1e3,
		staleRules:       float64(staleN),
		divergent:        float64(cl.Journal.Divergent),
		rejects:          float64(rejects),
	}, nil
}

package main

import (
	"reflect"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"mic/internal/maga"
	"mic/internal/mic"
	"mic/internal/netsim"
	"mic/internal/sim"
	"mic/internal/topo"
	"mic/internal/transport"
)

// fabric describes the data centre one instance simulates.
type fabric struct {
	arity     int           // fat-tree k
	net       netsim.Config // link and flow-table model
	mc        mic.Config
	fitWidths bool // size the MAGA label fields to the fabric (large k)
	stacks    bool // attach a transport stack to every host
}

// world is one built instance: topology, engine, fabric, the Mimic
// Controller and, for transport workloads, one stack per host.
type world struct {
	g      *topo.Graph
	eng    *sim.Engine
	net    *netsim.Network
	mc     *mic.MC
	stacks map[topo.NodeID]*transport.Stack
}

// setupTimes are the process CPU costs of building one world.
type setupTimes struct{ topo, netsim, control, stacks time.Duration }

func (s setupTimes) total() time.Duration { return s.topo + s.netsim + s.control + s.stacks }

// build constructs a world from the layers' public constructors, timing
// each layer's share of set-up.
func build(f fabric, tr *tracer) (*world, setupTimes, error) {
	w := &world{}
	var st setupTimes
	var err error
	if st.topo, err = tr.phase("setup.topo", func() (err error) {
		w.g, err = topo.FatTree(f.arity)
		return err
	}); err != nil {
		return nil, st, err
	}
	st.netsim, _ = tr.phase("setup.netsim", func() error {
		w.eng = sim.New()
		w.net = netsim.New(w.eng, w.g, f.net)
		return nil
	})
	if st.control, err = tr.phase("setup.control", func() (err error) {
		cfg := f.mc
		if f.fitWidths {
			cfg.Widths = maga.FitWidths(len(w.g.Switches()))
		}
		w.mc, err = mic.NewMC(w.net, cfg)
		return err
	}); err != nil {
		return nil, st, err
	}
	st.stacks, _ = tr.phase("setup.stacks", func() error {
		if !f.stacks {
			return nil
		}
		w.stacks = make(map[topo.NodeID]*transport.Stack)
		for _, h := range w.g.Hosts() {
			w.stacks[h] = transport.NewStack(w.net.Host(h))
		}
		return nil
	})
	return w, st, nil
}

// cpuTime is the process's CPU time so far: user plus system, over all
// threads, so the GC's work on the spare core counts. The host metrics use
// it rather than the wall clock because it leaves out time the hypervisor
// or other tenants take from this process; on a shared host that time
// swings run_s by tens of percent between runs.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// probe watches the engine queue and the Go heap while an instance runs.
type probe struct {
	pendingPeak int
	heapPeak    uint64 // peak live heap seen, bytes
	nextHeap    uint64 // engine event count at which the heap is next read
	rt          []rtmetrics.Sample
}

// heapEvery is how many events pass between heap reads. The live-heap
// figure only changes when a GC cycle ends, so sparse reads lose little.
const heapEvery = 1 << 14

func newProbe() *probe {
	return &probe{rt: []rtmetrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read folds the live heap after the last GC into the peak and returns the
// bytes allocated so far.
func (p *probe) read() (allocs uint64) {
	rtmetrics.Read(p.rt)
	p.heapPeak = max(p.heapPeak, p.rt[0].Value.Uint64())
	return p.rt[1].Value.Uint64()
}

func (p *probe) look(eng *sim.Engine) {
	p.pendingPeak = max(p.pendingPeak, eng.Pending())
	if eng.Processed() >= p.nextHeap {
		p.read()
		p.nextHeap = eng.Processed() + heapEvery
	}
}

// chunk is the virtual step of horizon-bounded runs.
const chunk = time.Millisecond

// drive fires the engine's events: one Step at a time to quiescence when
// horizon is zero, otherwise in RunUntil chunks up to the virtual horizon.
// Both fire events in exactly the order Run and RunUntil would.
func drive(eng *sim.Engine, horizon time.Duration, p *probe, tr *tracer) {
	sp := tr.begin("sim.Engine", -1)
	defer tr.end(sp)
	if horizon == 0 {
		for eng.Step() {
			p.look(eng)
		}
		return
	}
	end := sim.Time(horizon)
	for t := eng.Now(); t < end; {
		t = min(t.Add(chunk), end)
		eng.RunUntil(t)
		p.look(eng)
	}
}

// counters are the layers' public counters, read when an instance ends.
// They are virtual-time results: the same seed gives the same values.
type counters struct {
	events, pendingPeak                       uint64
	switchRx, cacheHits, tableMisses, evicted uint64
	delivered, lost                           uint64
	txPackets, retransmits                    uint64
	planHits, planMisses                      uint64
	refusals, missReinstalls, rulesEvicted    uint64
	flowMods, batches, batchedMods, sbRetrans uint64
}

func (c *counters) add(o counters) {
	c.events += o.events
	c.pendingPeak = max(c.pendingPeak, o.pendingPeak)
	c.switchRx += o.switchRx
	c.cacheHits += o.cacheHits
	c.tableMisses += o.tableMisses
	c.evicted += o.evicted
	c.delivered += o.delivered
	c.lost += o.lost
	c.txPackets += o.txPackets
	c.retransmits += o.retransmits
	c.planHits += o.planHits
	c.planMisses += o.planMisses
	c.refusals += o.refusals
	c.missReinstalls += o.missReinstalls
	c.rulesEvicted += o.rulesEvicted
	c.flowMods += o.flowMods
	c.batches += o.batches
	c.batchedMods += o.batchedMods
	c.sbRetrans += o.sbRetrans
}

func readCounters(w *world, p *probe, streams []*mic.Stream) counters {
	c := counters{events: w.eng.Processed(), pendingPeak: uint64(p.pendingPeak)}
	for _, sw := range w.net.Switches() {
		c.switchRx += sw.RxPackets
		c.cacheHits += sw.CacheHits
		c.tableMisses += sw.Misses
		c.evicted += sw.Table.EvictedIdle + sw.Table.EvictedHard + sw.Table.EvictedCapacity
	}
	for _, h := range w.net.Hosts() {
		c.txPackets += h.TxPackets
	}
	st := w.net.Stats
	c.delivered = st.Delivered
	c.lost = st.Dropped + st.LostDown + st.LostFault + st.Corrupted + st.TableMiss
	for _, s := range streams {
		c.retransmits += uint64(s.Retransmits() + connRetransmits(s))
	}
	c.planHits, c.planMisses = w.mc.PathCacheHits, w.mc.PathCacheMisses
	tel := w.mc.Telemetry()
	c.refusals = tel.Get("dials_shed") + tel.Get("channels_refused")
	c.missReinstalls = tel.Get("miss_reinstalls")
	c.rulesEvicted = tel.Get("mflow_rules_evicted")
	c.flowMods, c.batches, c.batchedMods, c.sbRetrans = w.mc.Ch.FlowMods, w.mc.Ch.Batches, w.mc.Ch.BatchedMods, w.mc.Ch.Retransmits
	return c
}

// connRetransmits sums transport.Conn.Retransmits over a stream's m-flow
// connections. mic.Stream does not export its connections, so they are
// read by reflection; if the layout changes the sum is 0 and only the
// stream's own slice re-sends are counted.
func connRetransmits(s *mic.Stream) int64 {
	conns := reflect.ValueOf(s).Elem().FieldByName("conns")
	if conns.Kind() != reflect.Slice {
		return 0
	}
	var n int64
	for i := 0; i < conns.Len(); i++ {
		c := conns.Index(i)
		for c.Kind() == reflect.Interface || c.Kind() == reflect.Pointer {
			c = c.Elem()
		}
		if c.Kind() != reflect.Struct {
			continue
		}
		if f := c.FieldByName("Retransmits"); f.Kind() == reflect.Int64 {
			n += f.Int()
		}
	}
	return n
}

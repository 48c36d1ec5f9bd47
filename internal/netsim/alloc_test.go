package netsim

import (
	"testing"

	"mic/internal/addr"
	"mic/internal/flowtable"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// TestSwitchDatapathAllocFree enforces the allocation-free steady state on
// the switch datapath: drawing a packet from the pool, filling headers and
// payload, a microflow-cache-hit lookup, in-place set-field/MPLS rewrites,
// and release back to the pool must not allocate.
func TestSwitchDatapathAllocFree(t *testing.T) {
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	net := New(sim.New(), g, Config{})
	sw := net.Switch(g.Switches()[0])
	dst := net.Host(g.Hosts()[1])

	// An MN-style rule: rewrite the label and MACs, then output.
	sw.Table.Insert(&flowtable.Entry{
		Priority: 10,
		Match:    flowtable.Match{Mask: flowtable.MatchIPDst, IPDst: dst.IP},
		Actions: []flowtable.Action{
			flowtable.SetMPLS(42),
			flowtable.SetEthDst(dst.MAC),
		},
	}, 0)

	pool := net.PacketPool()
	seg := make([]byte, 1460)
	src := net.Host(g.Hosts()[0])

	forward := func() bool {
		p := pool.Get()
		p.SrcMAC, p.DstMAC = src.MAC, addr.Broadcast
		p.SrcIP, p.DstIP = src.IP, dst.IP
		p.Proto, p.TTL = packet.ProtoTCP, 64
		p.SrcPort, p.DstPort = 40000, 80
		p.SetPayload(seg)
		e, hit := sw.Table.Lookup(p, 0, 0)
		if e == nil {
			p.Release()
			return false
		}
		for _, a := range e.Actions {
			a.Apply(p)
		}
		p.Release()
		return hit
	}

	// Warm up: populate the pool's free list and the microflow cache for
	// every key the rewrite cycle produces.
	for i := 0; i < 3; i++ {
		forward()
	}
	missed := false
	allocs := testing.AllocsPerRun(1000, func() {
		if !forward() {
			missed = true
		}
	})
	if missed {
		t.Fatal("steady-state lookup was not a cache hit")
	}
	if allocs != 0 {
		t.Fatalf("steady-state switch datapath allocated %v times per packet, want 0", allocs)
	}
}

// TestHopAllocFree extends the steady state to a whole simulated hop, the
// engine included: host send, the link lane to the switch, the switch
// pipeline, the link lane to the destination and its host handler. Lanes
// keep their rings and the engine its heap, so nothing allocates once warm.
func TestHopAllocFree(t *testing.T) {
	g, err := topo.Linear(1)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	net := New(eng, g, Config{})
	sw := net.Switch(g.Switches()[0])
	src, dst := net.Host(g.Hosts()[0]), net.Host(g.Hosts()[1])
	toDst := -1
	for port, p := range g.Node(sw.ID).Ports {
		if p.Peer == dst.ID {
			toDst = port
		}
	}
	sw.Table.Insert(&flowtable.Entry{
		Priority: 10,
		Match:    flowtable.Match{Mask: flowtable.MatchIPDst, IPDst: dst.IP},
		Actions:  []flowtable.Action{flowtable.SetEthDst(dst.MAC), flowtable.Output(toDst)},
	}, 0)
	got := 0
	dst.SetHandler(func(int, *packet.Packet) { got++ })

	pool := net.PacketPool()
	seg := make([]byte, 1460)
	hop := func() {
		// Two frames back to back, so the second queues behind the first
		// on every lane and link.
		for i := 0; i < 2; i++ {
			p := pool.Get()
			p.SrcMAC, p.DstMAC = src.MAC, addr.Broadcast
			p.SrcIP, p.DstIP = src.IP, dst.IP
			p.Proto, p.TTL = packet.ProtoTCP, 64
			p.SrcPort, p.DstPort = 40000, 80
			p.SetPayload(seg)
			src.Send(0, p)
		}
		eng.Run()
	}
	for i := 0; i < 3; i++ {
		hop()
	}
	before := got
	allocs := testing.AllocsPerRun(1000, hop)
	if got-before != 2*1001 {
		t.Fatalf("delivered %d frames, want %d", got-before, 2*1001)
	}
	if allocs != 0 {
		t.Fatalf("steady-state hop allocated %v times per run, want 0", allocs)
	}
}

package netsim

import (
	"time"

	"mic/internal/flowtable"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// Switch is the runtime of one switch node: an OpenFlow table driven by the
// fabric. Any switch can serve as a Mimic Node — MNs are distinguished only
// by the rewrite rules the Mimic Controller installs, exactly as in the
// paper ("any switches in the network are potential MNs").
type Switch struct {
	net  *Network
	ID   topo.NodeID
	Name string

	Table *flowtable.Table
	Ctrl  Controller

	// Down marks a failed switch: it black-holes all traffic.
	Down bool

	// pipeline carries packets through the forwarding latency; it is made
	// on first use.
	pipeline *sim.Lane[execution]

	// FenceEpoch is the highest controller fencing epoch this switch has
	// seen on a mutating southbound message. State mutations carrying a
	// lower epoch are rejected (AcceptFenced) — the switch-side half of the
	// cluster's zombie-primary defence. It lives on the switch struct, not
	// the connection, so it survives switch crash/restart cycles the way a
	// generation-id persisted to switch flash would.
	FenceEpoch uint64

	// Counters.
	RxPackets     uint64
	TxPackets     uint64
	Misses        uint64
	CacheHits     uint64 // lookups served by the microflow cache (fast path)
	StaleRejected uint64 // mutations rejected for carrying a stale fencing epoch
}

// execution is one packet waiting out the forwarding latency with the
// actions to apply to it.
type execution struct {
	actions []flowtable.Action
	inPort  int
	p       *packet.Packet
}

// AcceptFenced checks a mutating southbound message's fencing epoch against
// the high-water mark: stale epochs are rejected, newer ones raise the mark.
// Standalone controllers never announce an epoch, so the mark stays 0 and
// their (epoch-0) mutations always pass.
func (s *Switch) AcceptFenced(epoch uint64) bool {
	if epoch < s.FenceEpoch {
		s.StaleRejected++
		return false
	}
	s.FenceEpoch = epoch
	return true
}

// recv runs the pipeline for one arriving packet. Lookups served by the
// microflow cache charge the fast-path CPU cost; full classifier lookups
// (and table misses, which are controller upcalls) charge the slow path —
// the same split the paper's OVS testbed exhibits.
func (s *Switch) recv(inPort int, p *packet.Packet) {
	if s.Down {
		s.net.Stats.LostDown++
		p.Release()
		return
	}
	s.RxPackets++
	entry, hit := s.Table.Lookup(p, inPort, s.net.Eng.Now())
	if hit {
		s.CacheHits++
		s.net.CPU.Charge("vswitch", s.net.Cfg.CostSwitchCacheHit)
	} else {
		s.net.CPU.Charge("vswitch", s.net.Cfg.CostSwitchPacket)
	}
	if entry == nil {
		s.Misses++
		if s.Ctrl != nil {
			s.Ctrl.PacketIn(s, inPort, p)
			p.Release() // controllers copy what they keep (Controller doc)
			return
		}
		s.net.Stats.TableMiss++
		p.Release()
		return
	}
	s.Execute(entry.Actions, inPort, p)
}

// Execute applies an action list to p after the configured forwarding
// latency, taking ownership of p. OpenFlow semantics: set-field actions
// mutate the packet in order; each Output forwards the packet as rewritten
// so far; OutputGroup clones the packet per bucket (type ALL) — the
// primitive behind MIC's partial multicast.
func (s *Switch) Execute(actions []flowtable.Action, inPort int, p *packet.Packet) {
	if s.pipeline == nil {
		s.pipeline = sim.NewLane(s.net.Eng, func(x execution) { s.run(x.actions, x.inPort, x.p) })
	}
	s.pipeline.After(s.net.Cfg.SwitchLatency, execution{actions, inPort, p})
}

// run applies actions immediately (forwarding latency already paid) and
// consumes p: the common unicast shape — rewrites followed by a final
// Output — hands the packet itself to the fabric with no copy. Clones are
// made only at genuine fan-out or when actions follow an Output (the
// forwarded packet must see the rewrites made so far, not later ones). A
// packet never handed off is released back to the pool.
func (s *Switch) run(actions []flowtable.Action, inPort int, p *packet.Packet) {
	if mut := flowtable.MutationCount(actions); mut > 0 {
		s.net.CPU.Charge("vswitch", time.Duration(mut)*s.net.Cfg.CostSwitchAction)
	}
	handedOff := false
	for i, a := range actions {
		switch act := a.(type) {
		case flowtable.Output:
			s.TxPackets++
			s.net.Stats.Forwarded++
			out := p
			if i != len(actions)-1 {
				out = p.Clone()
			} else {
				handedOff = true
			}
			s.net.send(s.ID, int(act), out)
		case flowtable.OutputGroup:
			g, ok := s.Table.Group(flowtable.GroupID(act))
			if !ok {
				continue
			}
			for _, bucket := range g.Buckets {
				s.run(bucket.Actions, inPort, p.Clone())
			}
		default:
			a.Apply(p)
		}
	}
	if !handedOff {
		p.Release()
	}
}

// FloodExcept sends p out of every port except the one it arrived on. Used
// by the learning baseline controller, not by MIC.
func (s *Switch) FloodExcept(inPort int, p *packet.Packet) {
	for port := range s.net.Graph.Node(s.ID).Ports {
		if port != inPort {
			s.TxPackets++
			s.net.Stats.Forwarded++
			s.net.send(s.ID, port, p.Clone())
		}
	}
}

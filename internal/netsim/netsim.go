// Package netsim executes a topo.Graph on the discrete-event engine: links
// with bandwidth, propagation delay and drop-tail queues; switches running
// an OpenFlow-style flow table; and hosts that hand packets to a transport
// stack. It replaces the paper's Mininet + Open vSwitch testbed.
//
// Every simulated operation charges virtual CPU time to a
// metrics.CPUAccount, which is how the repository reproduces the paper's
// CPU-usage comparison (Fig 9c) without physical probes.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package netsim

import (
	"fmt"
	"time"

	"mic/internal/addr"
	"mic/internal/flowtable"
	"mic/internal/metrics"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// Config sets the physical parameters of the emulated fabric. Zero fields
// take the defaults in DefaultConfig, which are calibrated in
// EXPERIMENTS.md against the paper's Mininet testbed.
type Config struct {
	LinkBandwidthBps int64         // link rate in bits/s
	LinkDelay        time.Duration // one-way propagation delay
	QueueCapPackets  int           // per-direction drop-tail queue capacity
	SwitchLatency    time.Duration // software-switch forwarding latency
	HostLatency      time.Duration // host protocol-stack latency per packet

	// Virtual CPU costs (Fig 9c substitutes). CostSwitchPacket is the
	// slow path — a full classifier lookup, OVS's userspace upcall;
	// CostSwitchCacheHit is the microflow-cache fast path. Charging them
	// separately mirrors the fast/slow-path split of the paper's OVS
	// testbed (see DESIGN.md §5b).
	CostSwitchPacket   time.Duration // per packet taking a full (slow-path) lookup
	CostSwitchCacheHit time.Duration // per packet served by the microflow cache
	CostSwitchAction   time.Duration // per packet-mutating flow action
	CostHostPacket     time.Duration // per packet through a host stack

	// PoolDebug enables the packet pool's use-after-release guard
	// (poisoned free-list buffers, double-release panics). Tests set it;
	// it is off by default because the checks are O(payload) per packet.
	PoolDebug bool

	// LossRate injects uniform random frame loss on every link (0 = none).
	// It is a back-compat alias: New installs Uniform(LossRate) as the fault
	// profile of every link, equivalent to calling SetLinkFault everywhere.
	// Deterministic per LossSeed; used for failure-injection tests.
	LossRate float64
	LossSeed uint64

	// FaultSeed drives the per-link fault RNG streams (SetLinkFault). Zero
	// falls back to LossSeed, so existing loss-injection configs reproduce.
	FaultSeed uint64

	// FlowTableCapacity bounds every switch's flow table (the TCAM model);
	// zero keeps tables unbounded, the seed behaviour. The at-capacity
	// policy defaults to deny-new; a controller may opt switches into LRU
	// eviction via flowtable.Table.Policy.
	FlowTableCapacity int
}

// DefaultConfig mirrors a 1 Gb/s Mininet fabric with Open vSwitch.
func DefaultConfig() Config {
	return Config{
		LinkBandwidthBps:   1e9,
		LinkDelay:          5 * time.Microsecond,
		QueueCapPackets:    100,
		SwitchLatency:      10 * time.Microsecond,
		HostLatency:        15 * time.Microsecond,
		CostSwitchPacket:   2 * time.Microsecond,
		CostSwitchCacheHit: 500 * time.Nanosecond,
		CostSwitchAction:   300 * time.Nanosecond,
		CostHostPacket:     3 * time.Microsecond,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.LinkBandwidthBps == 0 {
		c.LinkBandwidthBps = d.LinkBandwidthBps
	}
	if c.LinkDelay == 0 {
		c.LinkDelay = d.LinkDelay
	}
	if c.QueueCapPackets == 0 {
		c.QueueCapPackets = d.QueueCapPackets
	}
	if c.SwitchLatency == 0 {
		c.SwitchLatency = d.SwitchLatency
	}
	if c.HostLatency == 0 {
		c.HostLatency = d.HostLatency
	}
	if c.CostSwitchPacket == 0 {
		c.CostSwitchPacket = d.CostSwitchPacket
	}
	if c.CostSwitchCacheHit == 0 {
		c.CostSwitchCacheHit = d.CostSwitchCacheHit
	}
	if c.CostSwitchAction == 0 {
		c.CostSwitchAction = d.CostSwitchAction
	}
	if c.CostHostPacket == 0 {
		c.CostHostPacket = d.CostHostPacket
	}
	return c
}

// Controller receives table-miss packets from switches. The Mimic
// Controller and any learning/routing controller implement it.
//
// Ownership: the packet is fabric-owned and valid only for the duration of
// the PacketIn call — the switch releases it to the packet pool when the
// call returns. Controllers that need the packet (or its payload) afterwards
// must Clone it or copy the bytes out.
type Controller interface {
	PacketIn(sw *Switch, inPort int, p *packet.Packet)
}

// Direction of a tapped packet relative to the tapped node.
type Direction int

// Mirror directions.
const (
	Ingress Direction = iota
	Egress
)

// String names the direction.
func (d Direction) String() string {
	if d == Ingress {
		return "ingress"
	}
	return "egress"
}

// TapEvent is one observation from a port mirror. The packet is a private
// clone; adversaries may inspect it freely.
type TapEvent struct {
	Node topo.NodeID
	Port int
	Dir  Direction
	At   sim.Time
	Pkt  *packet.Packet
}

// Tap is a port-mirroring observer, the paper's traffic-observation vector
// (Sec III-B: "the adversary may use the port mirroring for traffic
// observing").
type Tap func(TapEvent)

// EventKind classifies a fabric state-change notification.
type EventKind int

// Fabric event kinds, modeled on OpenFlow port-status and connection-state
// messages.
const (
	PortDown EventKind = iota
	PortUp
	SwitchDown
	SwitchUp
	CtrlDown
	CtrlUp
	Partition
	Heal
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case PortDown:
		return "port-down"
	case PortUp:
		return "port-up"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case CtrlDown:
		return "ctrl-down"
	case CtrlUp:
		return "ctrl-up"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	}
	return "unknown"
}

// Event is one fabric state-change notification: the substitute for
// OpenFlow OFPT_PORT_STATUS and controller connection loss. Port events
// carry the (Node, Port) whose effective liveness changed; switch events
// carry the node only (Port is -1). Controller-host events carry the
// controller-host index in Port and -1 in Node: controllers live off-fabric
// (an out-of-band management network, as in OpenFlow deployments), so they
// have no topology node.
// Partition/Heal events carry the directional management-network cut in
// From/To (Node and Port are -1): one event per direction that flipped.
type Event struct {
	Kind EventKind
	Node topo.NodeID
	Port int
	At   sim.Time

	// From/To identify the management-network direction of a Partition or
	// Heal event; zero-valued otherwise.
	From, To MgmtEnd
}

// Listener receives fabric events. Listeners run synchronously at the
// instant the failure occurs; anything latency-sensitive must reschedule on
// the engine (the control plane adds its own notification delay).
type Listener func(Event)

// Stats aggregates fabric-wide counters.
type Stats struct {
	Delivered uint64 // packets handed to host stacks
	Forwarded uint64 // packets forwarded by switches
	Dropped   uint64 // queue-overflow drops plus injected frame loss
	LostDown  uint64 // packets black-holed by failed links or switches
	TableMiss uint64 // packets with no matching flow entry and no controller
	TxBytes   uint64 // bytes serialized onto links

	// Per-link fault injection outcomes (SetLinkFault).
	LostFault  uint64 // frames dropped by an injected loss profile
	Corrupted  uint64 // frames discarded by the receiver's FCS after corruption
	Duplicated uint64 // extra copies delivered by a duplication profile
	Reordered  uint64 // frames delayed by reorder jitter
}

// linkDir is the state of one direction of one cable. Link failure and
// switch failure are tracked as independent causes: a cable cut with
// SetLinkDown stays cut when an attached switch crashes and later restores.
type linkDir struct {
	busyUntil sim.Time
	txBytes   uint64
	drops     uint64
	linkDown  bool // failed via SetLinkDown
	swDown    int  // number of failed endpoint switches darkening this cable

	// fault, when non-nil, degrades this direction (SetLinkFault). The RNG
	// stream is per direction, derived from Config.FaultSeed, so frame fates
	// on one link never depend on traffic crossing another.
	fault    *FaultProfile
	faultRNG *sim.RNG

	// departs holds the reserved departure mark of every frame still
	// queued or serializing: the frame leaves the queue when the engine
	// has passed its mark. Occupancy is read from it on demand, so leaving
	// the queue needs no event of its own.
	departs sim.Ring[sim.Mark]

	// arrivals delivers frames to the peer in FIFO order. Faulted frames
	// (corrupt, duplicated, reordered) are scheduled on the engine instead.
	// Like every netsim lane it is made on first use: most ports of a
	// large fabric never carry a data frame.
	arrivals *sim.Lane[*packet.Packet]
}

func (d *linkDir) down() bool { return d.linkDown || d.swDown > 0 }

// queued reports how many frames occupy the direction's queue now.
func (d *linkDir) queued(eng *sim.Engine) int {
	for d.departs.Len() > 0 && eng.Passed(*d.departs.Front()) {
		d.departs.PopFront()
	}
	return d.departs.Len()
}

// Network binds a topology to the event engine.
type Network struct {
	Eng   *sim.Engine
	Graph *topo.Graph
	CPU   *metrics.CPUAccount
	Cfg   Config
	Stats Stats

	switches  map[topo.NodeID]*Switch
	hosts     map[topo.NodeID]*Host
	dirs      map[portKey]*linkDir
	taps      map[topo.NodeID][]Tap
	listeners []Listener
	faultSeed uint64
	ctrlHosts []bool // down flag per registered controller host

	// mgmtCuts holds the active directional management-network partitions
	// (SetMgmtCut). Nil when the management network is whole.
	mgmtCuts map[mgmtCut]bool

	// pool recycles data-plane packets. Per network (not global) because
	// the harness runs independent engines on parallel goroutines.
	pool *packet.Pool
}

type portKey struct {
	node topo.NodeID
	port int
}

// New builds runtimes for every node of g.
func New(eng *sim.Engine, g *topo.Graph, cfg Config) *Network {
	n := &Network{
		Eng:      eng,
		Graph:    g,
		CPU:      metrics.NewCPUAccount(),
		Cfg:      cfg.withDefaults(),
		switches: make(map[topo.NodeID]*Switch),
		hosts:    make(map[topo.NodeID]*Host),
		dirs:     make(map[portKey]*linkDir),
		taps:     make(map[topo.NodeID][]Tap),
		pool:     packet.NewPool(),
	}
	if cfg.PoolDebug {
		n.pool.SetDebug(true)
	}
	n.faultSeed = n.Cfg.FaultSeed
	if n.faultSeed == 0 {
		n.faultSeed = n.Cfg.LossSeed
	}
	for _, node := range g.Nodes {
		switch node.Kind {
		case topo.KindSwitch:
			tbl := flowtable.NewTable()
			tbl.Capacity = n.Cfg.FlowTableCapacity
			n.switches[node.ID] = &Switch{net: n, ID: node.ID, Name: node.Name, Table: tbl}
		case topo.KindHost:
			n.hosts[node.ID] = &Host{net: n, ID: node.ID, Name: node.Name, IP: node.IP, MAC: node.MAC}
		}
		for p := range node.Ports {
			n.dirs[portKey{node.ID, p}] = &linkDir{}
		}
	}
	if n.Cfg.LossRate > 0 {
		// Back-compat alias: uniform loss everywhere via per-link profiles.
		for _, node := range g.Nodes {
			for p := range node.Ports {
				n.SetLinkFault(node.ID, p, Uniform(n.Cfg.LossRate))
			}
		}
	}
	return n
}

// faultStream derives the deterministic fault RNG for one link direction.
func (n *Network) faultStream(pk portKey) *sim.RNG {
	return sim.NewRNG(n.faultSeed ^ 0x10559).Stream(fmt.Sprintf("fault-%d-%d", pk.node, pk.port))
}

// PacketPool returns the network's packet pool. Transport stacks draw their
// data packets from it; the fabric releases packets back at their sinks
// (delivery, drop, or table miss).
func (n *Network) PacketPool() *packet.Pool { return n.pool }

// Switch returns the switch runtime for a node ID.
func (n *Network) Switch(id topo.NodeID) *Switch { return n.switches[id] }

// Host returns the host runtime for a node ID.
func (n *Network) Host(id topo.NodeID) *Host { return n.hosts[id] }

// HostByIP returns the host runtime owning ip, or nil.
func (n *Network) HostByIP(ip addr.IP) *Host {
	if node := n.Graph.HostByIP(ip); node != nil {
		return n.hosts[node.ID]
	}
	return nil
}

// Switches returns all switch runtimes in topology order.
func (n *Network) Switches() []*Switch {
	ids := n.Graph.Switches()
	out := make([]*Switch, len(ids))
	for i, id := range ids {
		out[i] = n.switches[id]
	}
	return out
}

// Hosts returns all host runtimes in topology order.
func (n *Network) Hosts() []*Host {
	ids := n.Graph.Hosts()
	out := make([]*Host, len(ids))
	for i, id := range ids {
		out[i] = n.hosts[id]
	}
	return out
}

// SetController attaches ctrl to every switch.
func (n *Network) SetController(ctrl Controller) {
	// lint:ignore detrange independent field write per switch; no cross-iteration state
	for _, sw := range n.switches {
		sw.Ctrl = ctrl
	}
}

// RegisterCtrlHost allocates a controller-host slot and returns its index.
// Controller hosts model the machines a controller process runs on: they sit
// on the management network, not the data fabric, so crashing one does not
// darken any link. Fault injectors fail them with SetCtrlHostDown.
func (n *Network) RegisterCtrlHost() int {
	n.ctrlHosts = append(n.ctrlHosts, false)
	return len(n.ctrlHosts) - 1
}

// SetCtrlHostDown crashes or restarts the controller host at idx. Listeners
// receive a CtrlDown/CtrlUp event (index in Port, Node -1) if the liveness
// flipped; the controller runtime bound to the host reacts by going silent
// or rejoining.
func (n *Network) SetCtrlHostDown(idx int, down bool) {
	if idx < 0 || idx >= len(n.ctrlHosts) || n.ctrlHosts[idx] == down {
		return
	}
	n.ctrlHosts[idx] = down
	kind := CtrlUp
	if down {
		kind = CtrlDown
	}
	n.emit(kind, -1, idx)
}

// CtrlHostDown reports whether the controller host at idx is crashed.
// Unregistered indices read as down: there is no machine there to run on.
func (n *Network) CtrlHostDown(idx int) bool {
	if idx < 0 || idx >= len(n.ctrlHosts) {
		return true
	}
	return n.ctrlHosts[idx]
}

// AddTap mirrors all traffic of a node to fn.
func (n *Network) AddTap(id topo.NodeID, fn Tap) {
	n.taps[id] = append(n.taps[id], fn)
}

func (n *Network) fireTaps(id topo.NodeID, port int, dir Direction, p *packet.Packet) {
	taps := n.taps[id]
	if len(taps) == 0 {
		return
	}
	ev := TapEvent{Node: id, Port: port, Dir: dir, At: n.Eng.Now(), Pkt: p.Clone()}
	for _, t := range taps {
		t(ev)
	}
}

// Notify registers a listener for fabric events (port/switch liveness
// changes). The Mimic Controller's self-healing layer subscribes here; so
// can experiments and adversaries.
func (n *Network) Notify(fn Listener) {
	n.listeners = append(n.listeners, fn)
}

func (n *Network) emit(kind EventKind, node topo.NodeID, port int) {
	ev := Event{Kind: kind, Node: node, Port: port, At: n.Eng.Now()}
	for _, l := range n.listeners {
		l(ev)
	}
}

// SetLinkDown fails or restores the cable at (node, port), both directions.
// Packets sent into a failed link are silently black-holed, as after a
// physical cut. Listeners receive a PortDown/PortUp event for each cable
// end whose effective liveness changed.
func (n *Network) SetLinkDown(node topo.NodeID, port int, down bool) {
	peer := n.Graph.Node(node).Ports[port]
	for _, pk := range [2]portKey{{node, port}, {peer.Peer, peer.PeerPort}} {
		d := n.dirs[pk]
		was := d.down()
		d.linkDown = down
		n.notifyPort(pk, was, d.down())
	}
}

// notifyPort emits a port event if the effective liveness flipped.
func (n *Network) notifyPort(pk portKey, was, now bool) {
	if was == now {
		return
	}
	kind := PortUp
	if now {
		kind = PortDown
	}
	n.emit(kind, pk.node, pk.port)
}

// LinkDown reports whether the cable at (node, port) is failed, for any
// cause (direct cut or a failed endpoint switch).
func (n *Network) LinkDown(node topo.NodeID, port int) bool {
	return n.dirs[portKey{node, port}].down()
}

// SetSwitchDown fails or restores a whole switch: it stops forwarding and
// every attached link goes dark. Restoring the switch re-lights only the
// links it darkened — cables cut independently via SetLinkDown stay cut.
// Listeners receive a SwitchDown/SwitchUp event plus port events for every
// cable whose effective liveness changed.
func (n *Network) SetSwitchDown(id topo.NodeID, down bool) {
	n.setSwitchDown(id, down, true)
}

// SetSwitchDownQuiet is SetSwitchDown without event emission: a silent
// failure (wedged forwarding plane, dead management NIC) that only the
// control plane's liveness prober can detect.
func (n *Network) SetSwitchDownQuiet(id topo.NodeID, down bool) {
	n.setSwitchDown(id, down, false)
}

func (n *Network) setSwitchDown(id topo.NodeID, down bool, notify bool) {
	sw := n.switches[id]
	if sw.Down == down {
		return
	}
	sw.Down = down
	delta := 1
	if !down {
		delta = -1
	}
	for port, p := range n.Graph.Node(id).Ports {
		for _, pk := range [2]portKey{{id, port}, {p.Peer, p.PeerPort}} {
			d := n.dirs[pk]
			was := d.down()
			d.swDown += delta
			if notify {
				n.notifyPort(pk, was, d.down())
			}
		}
	}
	if notify {
		kind := SwitchUp
		if down {
			kind = SwitchDown
		}
		n.emit(kind, id, -1)
	}
}

// LinkTxBytes reports bytes sent from node out of port since start.
func (n *Network) LinkTxBytes(id topo.NodeID, port int) uint64 {
	if d, ok := n.dirs[portKey{id, port}]; ok {
		return d.txBytes
	}
	return 0
}

// send serializes p out of (from, port): drop-tail queueing, transmission
// delay at the configured bandwidth, then propagation to the peer.
func (n *Network) send(from topo.NodeID, port int, p *packet.Packet) {
	node := n.Graph.Node(from)
	if port < 0 || port >= len(node.Ports) {
		panic(fmt.Sprintf("netsim: %s sending out nonexistent port %d", node.Name, port))
	}
	n.fireTaps(from, port, Egress, p)
	dir := n.dirs[portKey{from, port}]
	fate := dir.fate()
	if fate == fateLost {
		n.Stats.Dropped++
		n.Stats.LostFault++
		p.Release()
		return
	}
	if dir.down() {
		n.Stats.LostDown++
		p.Release()
		return
	}
	if dir.queued(n.Eng) >= n.Cfg.QueueCapPackets {
		dir.drops++
		n.Stats.Dropped++
		p.Release()
		return
	}
	peer := node.Ports[port]
	wire := p.WireLen()
	tx := time.Duration(int64(wire) * 8 * int64(time.Second) / n.Cfg.LinkBandwidthBps)
	start := n.Eng.Now()
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	done := start.Add(tx)
	dir.busyUntil = done
	dir.departs.Push(n.Eng.Reserve(done))
	dir.txBytes += uint64(wire)
	n.Stats.TxBytes += uint64(wire)
	arrive := done.Add(n.Cfg.LinkDelay)
	switch fate {
	case fateCorrupt:
		// The frame burns wire time but the receiving NIC's FCS rejects it.
		n.Eng.At(arrive, func() {
			n.Stats.Corrupted++
			p.Release()
		})
	case fateDup:
		dup := p.Clone()
		n.Eng.At(arrive, func() { n.recv(peer.Peer, peer.PeerPort, p) })
		n.Eng.At(arrive, func() {
			n.Stats.Duplicated++
			n.recv(peer.Peer, peer.PeerPort, dup)
		})
	case fateReorder:
		jitter := time.Duration(dir.faultRNG.Int63n(int64(dir.fault.Jitter)) + 1)
		n.Stats.Reordered++
		n.Eng.At(arrive.Add(jitter), func() { n.recv(peer.Peer, peer.PeerPort, p) })
	default:
		if dir.arrivals == nil {
			dir.arrivals = sim.NewLane(n.Eng, func(p *packet.Packet) { n.recv(peer.Peer, peer.PeerPort, p) })
		}
		dir.arrivals.At(arrive, p)
	}
}

func (n *Network) recv(at topo.NodeID, port int, p *packet.Packet) {
	n.fireTaps(at, port, Ingress, p)
	if sw, ok := n.switches[at]; ok {
		sw.recv(port, p)
		return
	}
	if h, ok := n.hosts[at]; ok {
		h.recv(port, p)
		return
	}
	panic(fmt.Sprintf("netsim: packet arrived at unknown node %d", at))
}

// Package ctrlplane models the SDN southbound interface: FlowMod, GroupMod,
// PacketOut, Barrier and Echo messages carried over a latency-modeled secure
// channel between the controller and each switch. The paper assumes this
// channel is secure (Sec III-D); we model its delay, message count and —
// because a self-healing controller must survive a degraded management
// network — per-message loss with acknowledgement, timeout and retransmit.
//
// This package is part of the determinism contract (DESIGN.md).
//
// lint:deterministic
package ctrlplane

import (
	"errors"
	"time"

	"mic/internal/flowtable"
	"mic/internal/netsim"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// ErrUnacked is reported by FlowModErr when a message exhausted its retry
// budget with no acknowledgement — the controller cannot know whether the
// rule landed. Distinct from a negative acknowledgement like
// flowtable.ErrTableFull, where the switch answered and refused.
var ErrUnacked = errors.New("ctrlplane: message unacknowledged after retries")

// ErrStaleEpoch is the switch's negative acknowledgement to a state mutation
// carrying a fencing epoch below the switch's high-water mark: the sender
// has been fenced off by a newer master and must stop treating itself as
// authoritative. Like ErrTableFull this is an answered refusal, not a loss.
var ErrStaleEpoch = errors.New("ctrlplane: rejected, fencing epoch is stale")

// Channel is the controller's handle to the fabric's switches.
//
// Reliability model: every state-changing message (FlowMod, GroupMod,
// delete, Barrier) is acknowledged by the switch. Either direction may lose
// a message with probability LossRate; an unacknowledged message is
// retransmitted after a capped exponential backoff, up to MaxRetries times,
// and then abandoned (counted in GiveUps and per-switch in Failed). All
// message applications are idempotent, so a retransmit after a lost
// acknowledgement is harmless — OpenFlow's own semantics for overlapping
// FlowMods.
type Channel struct {
	Eng *sim.Engine
	Net *netsim.Network

	// Latency is the one-way control-channel delay per message. The default
	// approximates a Python SDN controller (Ryu) installing rules over TCP.
	Latency time.Duration

	// LossRate drops each control message direction independently with this
	// probability (0 = perfectly reliable, the seed behaviour). Deterministic
	// per LossSeed.
	LossRate float64
	LossSeed uint64

	// AckTimeout is how long an attempt waits for its acknowledgement before
	// retransmitting. Zero means DefaultAckTimeoutRTTs round trips. Values at
	// or below one round trip are clamped above it so a healthy channel never
	// spuriously retransmits.
	AckTimeout time.Duration

	// MaxRetries bounds retransmissions per message (attempts = 1+MaxRetries).
	// Zero means DefaultMaxRetries; negative disables retries entirely.
	MaxRetries int

	// MaxBackoff caps the exponential growth of the retransmit timer. Zero
	// means 16x the effective AckTimeout.
	MaxBackoff time.Duration

	// Down marks the channel's controller endpoint as crashed: nothing is
	// sent, pending retransmit loops stop, and no callbacks fire. A failover
	// layer sets it when the controller host dies; a restarted controller
	// opens a fresh Channel rather than reviving a dead one, because closures
	// scheduled by the old incarnation still reference the old object.
	Down bool

	// CtrlHost binds the channel to a controller-host index on the
	// management network; messages then honor directional partition cuts
	// (netsim.SetMgmtCut) between that host and each switch. -1 (the
	// NewChannel default) leaves the channel unbound: standalone controllers
	// are never partitioned away.
	CtrlHost int

	// Epoch is stamped on every state-mutating southbound message (FlowMod,
	// GroupMod, delete, Barrier, PacketOut, batch). Switches persist the
	// highest epoch seen and refuse lower ones (netsim.Switch.AcceptFenced),
	// so a deposed master's writes die at the switch even if it never
	// noticed losing mastership. 0 means unfenced (standalone controllers).
	Epoch uint64

	// Counters for control-plane overhead and reliability experiments.
	FlowMods     uint64
	GroupMods    uint64
	PacketOuts   uint64
	Deletes      uint64
	Barriers     uint64
	Echoes       uint64
	Heartbeats   uint64 // controller-to-controller liveness beats sent
	Dumps        uint64 // flow-table dump (stats request) messages
	Retransmits  uint64 // attempts beyond the first
	Timeouts     uint64 // ack timers that expired
	GiveUps      uint64 // messages abandoned after MaxRetries
	Acked        uint64 // messages positively acknowledged
	TableFulls   uint64 // FlowMods the switch refused with a table-full reply
	StaleRejects uint64 // mutations the switch refused for a stale fencing epoch
	Hellos       uint64 // epoch-announcement handshakes sent
	Batches      uint64 // coalesced per-switch messages sent by InstallBatched
	BatchedMods  uint64 // individual mods carried inside those batches

	lossRNG  *sim.RNG
	inflight map[topo.NodeID]int      // unresolved messages per switch
	failed   map[topo.NodeID]uint64   // abandoned messages per switch
	waiters  map[topo.NodeID][]func() // barriers waiting for quiescence
}

// Control-channel reliability defaults.
const (
	// DefaultControlLatency approximates one Ryu FlowMod round over the
	// management network.
	DefaultControlLatency = 500 * time.Microsecond
	// DefaultAckTimeoutRTTs expresses the default ack timeout in round trips.
	DefaultAckTimeoutRTTs = 2
	// DefaultMaxRetries is the retransmission budget per message.
	DefaultMaxRetries = 10
)

// NewChannel returns a channel bound to the network with default latency
// and a perfectly reliable transport (LossRate 0).
func NewChannel(net *netsim.Network) *Channel {
	return &Channel{
		Eng:      net.Eng,
		Net:      net,
		Latency:  DefaultControlLatency,
		CtrlHost: -1,
		inflight: make(map[topo.NodeID]int),
		failed:   make(map[topo.NodeID]uint64),
		waiters:  make(map[topo.NodeID][]func()),
	}
}

// mgmtTo reports whether a message from this channel's controller host
// currently reaches sw over the management network (partition cuts only;
// switch liveness is judged separately).
func (c *Channel) mgmtTo(sw *netsim.Switch) bool {
	if c.CtrlHost < 0 {
		return true
	}
	return c.Net.MgmtReachable(netsim.MgmtCtrl(c.CtrlHost), netsim.MgmtSwitch(sw.ID))
}

// mgmtFrom reports whether sw's replies currently reach this channel's
// controller host — the other direction of an asymmetric partition.
func (c *Channel) mgmtFrom(sw *netsim.Switch) bool {
	if c.CtrlHost < 0 {
		return true
	}
	return c.Net.MgmtReachable(netsim.MgmtSwitch(sw.ID), netsim.MgmtCtrl(c.CtrlHost))
}

// ackTimeout returns the effective per-attempt ack timeout: configured or
// default, but always strictly more than one round trip.
func (c *Channel) ackTimeout() time.Duration {
	t := c.AckTimeout
	if t == 0 {
		t = DefaultAckTimeoutRTTs * 2 * c.Latency
	}
	if min := 2*c.Latency + c.Latency/2 + 1; t < min {
		t = min
	}
	return t
}

// attempts returns the total send attempts allowed per message.
func (c *Channel) attempts() int {
	switch {
	case c.MaxRetries < 0:
		return 1
	case c.MaxRetries == 0:
		return 1 + DefaultMaxRetries
	}
	return 1 + c.MaxRetries
}

func (c *Channel) maxBackoff() time.Duration {
	if c.MaxBackoff > 0 {
		return c.MaxBackoff
	}
	return 16 * c.ackTimeout()
}

// lost flips the loss coin for one message direction.
func (c *Channel) lost() bool {
	if c.LossRate <= 0 {
		return false
	}
	if c.lossRNG == nil {
		c.lossRNG = sim.NewRNG(c.LossSeed ^ 0xc7a05)
	}
	return c.lossRNG.Float64() < c.LossRate
}

// InFlight reports how many messages to switch id are sent but not yet
// acknowledged or abandoned — the controller's per-switch transaction
// window.
func (c *Channel) InFlight(id topo.NodeID) int { return c.inflight[id] }

// Failed reports how many messages to switch id were abandoned after
// exhausting retransmissions — rules the controller must assume never
// landed.
func (c *Channel) Failed(id topo.NodeID) uint64 { return c.failed[id] }

func (c *Channel) begin(id topo.NodeID) { c.inflight[id]++ }

func (c *Channel) resolve(id topo.NodeID, ok bool) {
	c.inflight[id]--
	if ok {
		c.Acked++
	} else {
		c.GiveUps++
		c.failed[id]++
	}
	if c.inflight[id] == 0 {
		ws := c.waiters[id]
		delete(c.waiters, id)
		for _, w := range ws {
			w()
		}
	}
}

// deliver reliably sends one message whose effect is apply (idempotent,
// executed switch-side on arrival). onDone receives true after the
// acknowledgement returns, or false when the retry budget is exhausted.
func (c *Channel) deliver(sw *netsim.Switch, apply func(), onDone func(ok bool)) {
	c.begin(sw.ID)
	attempt := 0
	resolved := false
	backoff := c.ackTimeout()
	var try func()
	try = func() {
		// A crashed controller sends nothing more and hears nothing back: the
		// message loop goes silent without resolving, exactly as a process
		// kill would leave a TCP transaction dangling.
		if c.Down {
			return
		}
		attempt++
		if attempt > 1 {
			c.Retransmits++
		}
		reqLost := c.lost()
		c.Eng.After(c.Latency, func() {
			// A dead switch neither applies nor acknowledges: the message
			// vanishes exactly like a loss, which is what makes the liveness
			// prober and the give-up path necessary. A management-network
			// partition black-holes the direction it cuts the same way.
			if reqLost || sw.Down || !c.mgmtTo(sw) {
				return
			}
			apply()
			ackLost := c.lost()
			c.Eng.After(c.Latency, func() {
				if ackLost || resolved || c.Down || !c.mgmtFrom(sw) {
					return
				}
				resolved = true
				c.resolve(sw.ID, true)
				if onDone != nil {
					onDone(true)
				}
			})
		})
		wait := backoff
		if wait > c.maxBackoff() {
			wait = c.maxBackoff()
		}
		backoff *= 2
		c.Eng.After(wait, func() {
			if resolved || c.Down {
				return
			}
			c.Timeouts++
			if attempt >= c.attempts() {
				resolved = true
				c.resolve(sw.ID, false)
				if onDone != nil {
					onDone(false)
				}
				return
			}
			try()
		})
	}
	try()
}

// FlowMod installs e on sw, then invokes onApplied (which may be nil) after
// the acknowledgement returns. If the message is abandoned after retries,
// onApplied never fires; use FlowModResult to observe failures.
func (c *Channel) FlowMod(sw *netsim.Switch, e *flowtable.Entry, onApplied func()) {
	c.FlowModResult(sw, e, func(ok bool) {
		if ok && onApplied != nil {
			onApplied()
		}
	})
}

// FlowModResult installs e on sw and reports whether the switch
// acknowledged AND accepted it — a table-full refusal counts as failure,
// because the rule is not installed.
func (c *Channel) FlowModResult(sw *netsim.Switch, e *flowtable.Entry, onDone func(ok bool)) {
	c.FlowModErr(sw, e, func(err error) {
		if onDone != nil {
			onDone(err == nil)
		}
	})
}

// FlowModErr installs e on sw and reports the outcome as an error: nil when
// the entry was installed and acknowledged; flowtable.ErrTableFull when the
// switch answered but refused the entry (a negative acknowledgement — the
// OpenFlow OFPFMFC_TABLE_FULL error reply); ErrUnacked when the retry budget
// ran out with no answer at all. Retransmits re-apply idempotently: once an
// attempt installs the entry, later attempts take the replace path and the
// captured error stays nil.
func (c *Channel) FlowModErr(sw *netsim.Switch, e *flowtable.Entry, onDone func(err error)) {
	c.FlowMods++
	var insErr error
	c.deliver(sw, func() {
		if !sw.AcceptFenced(c.Epoch) {
			insErr = ErrStaleEpoch
			return
		}
		insErr = sw.Table.TryInsert(e, c.Eng.Now())
	}, func(ok bool) {
		if !ok {
			if onDone != nil {
				onDone(ErrUnacked)
			}
			return
		}
		// Classify here, not in apply: retransmits re-run apply and would
		// double-count refusals.
		switch insErr {
		case nil:
		case ErrStaleEpoch:
			c.StaleRejects++
		default:
			c.TableFulls++
		}
		if onDone != nil {
			onDone(insErr)
		}
	})
}

// GroupMod installs g on sw; onApplied fires after the acknowledgement.
func (c *Channel) GroupMod(sw *netsim.Switch, g *flowtable.Group, onApplied func()) {
	c.GroupModResult(sw, g, func(ok bool) {
		if ok && onApplied != nil {
			onApplied()
		}
	})
}

// GroupModResult installs g on sw and reports whether the switch
// acknowledged and accepted it (a stale-epoch refusal counts as failure).
func (c *Channel) GroupModResult(sw *netsim.Switch, g *flowtable.Group, onDone func(ok bool)) {
	c.GroupMods++
	stale := false
	c.deliver(sw, func() {
		if !sw.AcceptFenced(c.Epoch) {
			stale = true
			return
		}
		sw.Table.SetGroup(g)
	}, func(ok bool) {
		if stale {
			c.StaleRejects++
			ok = false
		}
		if onDone != nil {
			onDone(ok)
		}
	})
}

// DeleteByCookie removes all entries with the cookie from sw; onDone (may
// be nil) receives the removal count after the acknowledgement returns, or
// -1 if the switch never acknowledged (the controller must assume the rules
// are still installed).
func (c *Channel) DeleteByCookie(sw *netsim.Switch, cookie uint64, onDone func(removed int)) {
	c.Deletes++
	n := -1
	stale := false
	c.deliver(sw, func() {
		if !sw.AcceptFenced(c.Epoch) {
			stale = true
			return
		}
		removed := sw.Table.DeleteByCookie(cookie)
		// Retransmitted deletes find nothing; report the first pass's count.
		if n < 0 {
			n = removed
		}
	}, func(ok bool) {
		if stale {
			c.StaleRejects++
		}
		if onDone == nil {
			return
		}
		if !ok || stale {
			onDone(-1)
			return
		}
		onDone(n)
	})
}

// PacketOut injects p at sw with the given actions after control latency.
// Packet-outs are fire-and-forget (as in OpenFlow): they are subject to
// loss but never retransmitted.
func (c *Channel) PacketOut(sw *netsim.Switch, actions []flowtable.Action, p *packet.Packet) {
	if c.Down {
		return
	}
	c.PacketOuts++
	if c.lost() {
		return
	}
	c.Eng.After(c.Latency, func() {
		if sw.Down || !c.mgmtTo(sw) {
			return
		}
		if !sw.AcceptFenced(c.Epoch) {
			c.StaleRejects++
			return
		}
		sw.Execute(actions, -1, p)
	})
}

// Barrier completes after every message sent to sw before the barrier has
// been acknowledged or abandoned, plus one reliable round trip of its own —
// the OFPT_BARRIER_REQUEST/REPLY semantics this package's doc promises.
// onDone reports whether the barrier itself was acknowledged and accepted;
// a stale-epoch refusal reads as failure, so a fenced-off master cannot
// mistake its barriers for proof of write authority.
func (c *Channel) Barrier(sw *netsim.Switch, onDone func(ok bool)) {
	c.Barriers++
	fire := func() {
		stale := false
		c.deliver(sw, func() {
			if !sw.AcceptFenced(c.Epoch) {
				stale = true
			}
		}, func(ok bool) {
			if stale {
				c.StaleRejects++
				ok = false
			}
			if onDone != nil {
				onDone(ok)
			}
		})
	}
	if c.inflight[sw.ID] > 0 {
		c.waiters[sw.ID] = append(c.waiters[sw.ID], fire)
		return
	}
	fire()
}

// Echo sends one liveness probe to sw: a single unretransmitted round trip.
// cb receives true if the reply arrives within the ack timeout. A false
// reading can be loss, not death — callers (the Prober) must debounce.
func (c *Channel) Echo(sw *netsim.Switch, cb func(alive bool)) {
	if c.Down {
		return
	}
	c.Echoes++
	answered := false
	reqLost := c.lost()
	c.Eng.After(c.Latency, func() {
		if reqLost || sw.Down || !c.mgmtTo(sw) {
			return
		}
		repLost := c.lost()
		c.Eng.After(c.Latency, func() {
			if repLost || answered || c.Down || !c.mgmtFrom(sw) {
				return
			}
			answered = true
			cb(true)
		})
	})
	c.Eng.After(c.ackTimeout(), func() {
		if !answered && !c.Down {
			answered = true
			cb(false)
		}
	})
}

// Heartbeat sends one controller-to-controller liveness beat over the
// management network to the controller host at index `to`: a single
// unretransmitted round trip, subject to the channel's loss model and to
// directional partition cuts between the two hosts. cb runs at the receiver
// after one control latency if the beat survives; ack (may be nil) runs at
// the sender with true when the receiver's acknowledgement returns, or
// false after the ack timeout — the lease-renewal signal. A crashed sender
// (Down) emits nothing and hears nothing — which is precisely the signal a
// standby watches for.
func (c *Channel) Heartbeat(to int, cb func(), ack func(ok bool)) {
	if c.Down {
		return
	}
	c.Heartbeats++
	answered := false
	reqLost := c.lost()
	reach := func(from, dst int) bool {
		if c.CtrlHost < 0 {
			return true
		}
		return c.Net.MgmtReachable(netsim.MgmtCtrl(from), netsim.MgmtCtrl(dst))
	}
	c.Eng.After(c.Latency, func() {
		if reqLost || c.Net.CtrlHostDown(to) || !reach(c.CtrlHost, to) {
			return
		}
		cb()
		ackLost := c.lost()
		c.Eng.After(c.Latency, func() {
			if ackLost || answered || c.Down || !reach(to, c.CtrlHost) {
				return
			}
			answered = true
			if ack != nil {
				ack(true)
			}
		})
	})
	c.Eng.After(c.ackTimeout(), func() {
		if !answered && !c.Down {
			answered = true
			if ack != nil {
				ack(false)
			}
		}
	})
}

// Hello announces the channel's fencing epoch to sw: the first message a
// newly promoted master sends, carried reliably, so the switch's epoch
// high-water mark rises before any reconciliation traffic arrives and every
// straggling write from the deposed master is rejected. onDone reports
// whether the switch acknowledged and accepted the epoch.
func (c *Channel) Hello(sw *netsim.Switch, onDone func(ok bool)) {
	c.Hellos++
	stale := false
	c.deliver(sw, func() {
		if !sw.AcceptFenced(c.Epoch) {
			stale = true
		}
	}, func(ok bool) {
		if stale {
			c.StaleRejects++
			ok = false
		}
		if onDone != nil {
			onDone(ok)
		}
	})
}

// DumpFlows requests sw's full flow-table state — the OFPMP_FLOW +
// OFPMP_GROUP stats multipart a controller issues when reconciling after
// failover. It is carried reliably like a FlowMod; onDone receives a
// snapshot of the installed entries (shared pointers, read-only by
// convention) and the installed group IDs in ascending order, or ok=false
// if the switch never answered within the retry budget.
func (c *Channel) DumpFlows(sw *netsim.Switch, onDone func(entries []*flowtable.Entry, groups []flowtable.GroupID, ok bool)) {
	c.Dumps++
	var entries []*flowtable.Entry
	var groups []flowtable.GroupID
	c.deliver(sw, func() {
		entries = append(entries[:0], sw.Table.Entries()...)
		groups = sw.Table.GroupIDs()
	}, func(ok bool) {
		if onDone != nil {
			onDone(entries, groups, ok)
		}
	})
}

// InstallAll sends one FlowMod per (switch, entry) pair concurrently and
// invokes onAll once every message is resolved (acknowledged or abandoned)
// — how the Mimic Controller installs a whole m-flow path in a single round
// trip, keeping route setup time flat in route length (Fig 7).
func (c *Channel) InstallAll(mods []Mod, onAll func()) {
	c.InstallAllResult(mods, func(failed int) {
		if onAll != nil {
			onAll()
		}
	})
}

// InstallAllResult is InstallAll with the number of abandoned messages
// reported, so the controller knows whether the whole path truly landed.
func (c *Channel) InstallAllResult(mods []Mod, onAll func(failed int)) {
	remaining := 0
	for _, m := range mods {
		if m.Entry != nil {
			remaining++
		}
		if m.Group != nil {
			remaining++
		}
	}
	if remaining == 0 {
		if onAll != nil {
			c.Eng.After(0, func() { onAll(0) })
		}
		return
	}
	failed := 0
	done := func(ok bool) {
		if !ok {
			failed++
		}
		remaining--
		if remaining == 0 && onAll != nil {
			onAll(failed)
		}
	}
	for _, m := range mods {
		if m.Group != nil {
			c.GroupModResult(m.Switch, m.Group, done)
		}
		if m.Entry != nil {
			c.FlowModResult(m.Switch, m.Entry, done)
		}
	}
}

// InstallBatched coalesces mods per destination switch — one southbound
// message per switch carrying all of that switch's entries and groups,
// applied in order on a single delivery — and closes each switch's batch
// with one Barrier. Compared with InstallAll's message-per-mod fan-out this
// cuts the southbound message count for a whole channel to one batch plus
// one barrier per switch touched, at the price of one extra round trip (the
// barrier) on the setup's critical path. onAll receives the number of
// individual modifications that failed: a table-full refusal counts per
// entry; a batch abandoned after retries counts every mod it carried.
func (c *Channel) InstallBatched(mods []Mod, onAll func(failed int)) {
	type batch struct {
		sw   *netsim.Switch
		mods []Mod
	}
	var order []*batch
	bySwitch := make(map[topo.NodeID]*batch)
	for _, m := range mods {
		b := bySwitch[m.Switch.ID]
		if b == nil {
			b = &batch{sw: m.Switch}
			bySwitch[m.Switch.ID] = b
			order = append(order, b)
		}
		b.mods = append(b.mods, m)
	}
	if len(order) == 0 {
		if onAll != nil {
			c.Eng.After(0, func() { onAll(0) })
		}
		return
	}
	remaining := len(order)
	failed := 0
	for _, b := range order {
		b := b
		nmods := 0
		for _, m := range b.mods {
			if m.Group != nil {
				c.GroupMods++
				nmods++
			}
			if m.Entry != nil {
				c.FlowMods++
				nmods++
			}
		}
		c.Batches++
		c.BatchedMods += uint64(nmods)
		refused := 0
		applied := false
		stale := false
		c.deliver(b.sw, func() {
			// Retransmitted batches are duplicates of an already-applied
			// message (the first arrival applied everything); re-applying
			// would double-count table refusals.
			if applied {
				return
			}
			applied = true
			if !b.sw.AcceptFenced(c.Epoch) {
				stale = true
				return
			}
			for _, m := range b.mods {
				if m.Group != nil {
					b.sw.Table.SetGroup(m.Group)
				}
				if m.Entry != nil {
					if err := b.sw.Table.TryInsert(m.Entry, c.Eng.Now()); err != nil {
						refused++
						c.TableFulls++
					}
				}
			}
		}, func(ok bool) {
			switch {
			case stale:
				c.StaleRejects++
				failed += nmods
			case !ok:
				failed += nmods
			default:
				failed += refused
			}
		})
		// The barrier completes only after the batch (and anything else in
		// flight to this switch) resolves, so `failed` is final when the
		// last barrier fires. An unacknowledged barrier adds nothing: the
		// batch's own resolution already classified its mods.
		c.Barrier(b.sw, func(bool) {
			remaining--
			if remaining == 0 && onAll != nil {
				onAll(failed)
			}
		})
	}
}

// Mod is one pending table modification.
type Mod struct {
	Switch *netsim.Switch
	Entry  *flowtable.Entry // may be nil
	Group  *flowtable.Group // may be nil
}

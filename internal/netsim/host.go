package netsim

import (
	"mic/internal/addr"
	"mic/internal/packet"
	"mic/internal/sim"
	"mic/internal/topo"
)

// Host is the runtime of one end host. A transport stack registers a
// handler to receive frames; Send emits frames through the NIC. Hosts are
// deliberately dumb — MIC requires "no kernel or switch modifications"
// (Sec III-C), so all anonymity logic lives in switch rules and the
// user-level MIC client library.
type Host struct {
	net  *Network
	ID   topo.NodeID
	Name string
	IP   addr.IP
	MAC  addr.MAC

	handler func(inPort int, p *packet.Packet)

	// tx and rx carry frames through the host-stack latency in each
	// direction; both are made on first use.
	tx, rx *sim.Lane[portFrame]

	RxPackets uint64
	TxPackets uint64
}

// portFrame is a frame paired with the NIC port it leaves or arrived on.
type portFrame struct {
	port int
	p    *packet.Packet
}

// Net returns the network the host is attached to.
func (h *Host) Net() *Network { return h.net }

// SetHandler registers the frame receiver (the transport stack).
func (h *Host) SetHandler(fn func(inPort int, p *packet.Packet)) { h.handler = fn }

// Send emits p out of the given NIC port after the host-stack latency,
// charging stack CPU. Most hosts have a single port 0; BCube servers are
// multi-homed.
func (h *Host) Send(port int, p *packet.Packet) {
	h.TxPackets++
	h.net.CPU.Charge("stack", h.net.Cfg.CostHostPacket)
	if h.tx == nil {
		h.tx = sim.NewLane(h.net.Eng, func(f portFrame) { h.net.send(h.ID, f.port, f.p) })
	}
	h.tx.After(h.net.Cfg.HostLatency, portFrame{port, p})
}

// recv delivers an arriving frame to the registered handler after the
// host-stack latency. The host is the packet's sink: the handler may read
// the frame only for the duration of the call (copying what it keeps, which
// the transport stack does), and the packet returns to the pool when the
// handler returns.
func (h *Host) recv(inPort int, p *packet.Packet) {
	h.RxPackets++
	h.net.CPU.Charge("stack", h.net.Cfg.CostHostPacket)
	if h.handler == nil {
		h.net.Stats.Dropped++
		p.Release()
		return
	}
	if h.rx == nil {
		h.rx = sim.NewLane(h.net.Eng, func(f portFrame) {
			h.net.Stats.Delivered++
			h.handler(f.port, f.p)
			f.p.Release()
		})
	}
	h.rx.After(h.net.Cfg.HostLatency, portFrame{inPort, p})
}

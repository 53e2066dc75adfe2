package mld

import (
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// HostConfig tunes host listener behavior.
type HostConfig struct {
	Config
	// ResendOnMove controls whether the host re-sends unsolicited Reports
	// for all its memberships when an interface attaches to a new link —
	// the optimization the paper recommends for mobile receivers
	// ("mobile hosts should send unsolicited REPORTS after moving to a new
	// link"). With it off, a moved receiver waits for the next Query: the
	// pathological join delay of §4.3.1.
	ResendOnMove bool
}

// DefaultHostConfig enables the paper's recommended unsolicited Reports on
// movement.
func DefaultHostConfig() HostConfig {
	return HostConfig{Config: DefaultConfig(), ResendOnMove: true}
}

// Host is the MLD listener half on one node.
type Host struct {
	Node   *netem.Node
	Config HostConfig
	// Obs, when non-nil, records membership instants (join/leave/report).
	Obs *obs.Recorder

	members map[memberKey]*memberState

	// Stats.
	ReportsSent uint64
	DonesSent   uint64
}

type memberKey struct {
	ifc   *netem.Interface
	group ipv6.Addr
}

type memberState struct {
	h   *Host
	key memberKey

	delay        *sim.Timer // pending delayed response to a Query
	unsolicited  *sim.Timer // pending initial unsolicited re-reports
	unsolLeft    int
	lastReporter bool // we sent the most recent Report; owe a Done on leave
}

// NewHost installs the MLD listener role on node.
func NewHost(node *netem.Node, cfg HostConfig) *Host {
	h := &Host{Node: node, Config: cfg, members: map[memberKey]*memberState{}}
	node.HandleProto(ipv6.ProtoICMPv6, h.handleICMP)
	node.OnAttach(func(ifc *netem.Interface) { h.onMove(ifc) })
	return h
}

// Join subscribes the node to group on ifc: the interface filter is opened
// and unsolicited Reports are sent (RFC 2710 §4 paragraph 6).
func (h *Host) Join(ifc *netem.Interface, group ipv6.Addr) {
	key := memberKey{ifc, group}
	if _, ok := h.members[key]; ok {
		return
	}
	ifc.JoinGroup(group)
	m := &memberState{h: h, key: key}
	s := h.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	m.delay = sim.NewTimer(s, func() { m.respond() })
	m.unsolicited = sim.NewTimer(s, func() { m.unsolicitedRound() })
	h.members[key] = m
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "join", "")
	}
	m.startUnsolicited()
}

func (h *Host) obsTrack(group ipv6.Addr) string {
	return "mld member " + group.String()
}

// Leave unsubscribes. If this node was the last to report the group on this
// link, a Done is sent to all-routers (§4 paragraph 8).
func (h *Host) Leave(ifc *netem.Interface, group ipv6.Addr) {
	key := memberKey{ifc, group}
	m, ok := h.members[key]
	if !ok {
		return
	}
	m.delay.Stop()
	m.unsolicited.Stop()
	delete(h.members, key)
	ifc.LeaveGroup(group)
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "leave", "")
	}
	if m.lastReporter {
		h.sendDone(ifc, group)
	}
}

// LeaveSilently drops a membership without sending Done — the situation of
// a mobile host that already left the link (the paper: "mobile hosts cannot
// use the DONE message when they leave a link"), or of a host switching to
// home-agent-tunneled reception.
func (h *Host) LeaveSilently(ifc *netem.Interface, group ipv6.Addr) {
	key := memberKey{ifc, group}
	m, ok := h.members[key]
	if !ok {
		return
	}
	m.delay.Stop()
	m.unsolicited.Stop()
	delete(h.members, key)
	ifc.LeaveGroup(group)
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "leave-silent", "")
	}
}

// Member reports whether the node is subscribed to group on ifc.
func (h *Host) Member(ifc *netem.Interface, group ipv6.Addr) bool {
	_, ok := h.members[memberKey{ifc, group}]
	return ok
}

// Memberships returns the number of active memberships.
func (h *Host) Memberships() int { return len(h.members) }

// onMove re-announces memberships after attachment to a (new) link.
func (h *Host) onMove(ifc *netem.Interface) {
	if !h.Config.ResendOnMove {
		return
	}
	s := h.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	for key, m := range h.members {
		if key.ifc == ifc {
			m.startUnsolicited()
		}
	}
}

func (m *memberState) startUnsolicited() {
	m.unsolLeft = m.h.Config.Robustness
	m.unsolicitedRound()
}

func (m *memberState) unsolicitedRound() {
	if m.unsolLeft == 0 {
		return
	}
	m.unsolLeft--
	m.h.sendReport(m.key.ifc, m.key.group)
	m.lastReporter = true
	if m.unsolLeft > 0 {
		m.unsolicited.Reset(m.h.Config.UnsolicitedReportInterval)
	}
}

// respond fires when the random response-delay timer expires.
func (m *memberState) respond() {
	m.h.sendReport(m.key.ifc, m.key.group)
	m.lastReporter = true
}

func (h *Host) sendReport(ifc *netem.Interface, group ipv6.Addr) {
	if !ifc.Up() {
		return
	}
	rep := &icmpv6.MLD{Kind: icmpv6.TypeMLDReport, MulticastAddress: group}
	src := ifc.LinkLocal()
	pkt := mldPacket(src, group, icmpv6.Marshal(src, group, rep))
	_ = h.Node.OutputOn(ifc, pkt)
	h.ReportsSent++
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "report-sent", "")
	}
}

func (h *Host) sendDone(ifc *netem.Interface, group ipv6.Addr) {
	if !ifc.Up() {
		return
	}
	done := &icmpv6.MLD{Kind: icmpv6.TypeMLDDone, MulticastAddress: group}
	src := ifc.LinkLocal()
	pkt := mldPacket(src, ipv6.AllRouters, icmpv6.Marshal(src, ipv6.AllRouters, done))
	_ = h.Node.OutputOn(ifc, pkt)
	h.DonesSent++
	if h.Obs != nil {
		h.Obs.Instant(h.Node.Name, h.obsTrack(group), "done-sent", "")
	}
}

func (h *Host) handleICMP(rx netem.RxPacket) {
	if rx.ViaTunnel {
		return // tunneled MLD is handled by the Mobile IPv6 layer, not here
	}
	if typ := icmpv6.PeekType(rx.Pkt.Payload); typ != icmpv6.TypeMLDQuery && typ != icmpv6.TypeMLDReport {
		return // not for the host machine; skip the full parse
	}
	s := h.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	msg, err := icmpv6.Parse(rx.Pkt.Hdr.Src, rx.Pkt.Hdr.Dst, rx.Pkt.Payload)
	if err != nil {
		return
	}
	m, ok := msg.(*icmpv6.MLD)
	if !ok {
		return
	}
	switch m.Kind {
	case icmpv6.TypeMLDQuery:
		h.onQuery(rx.Iface, m)
	case icmpv6.TypeMLDReport:
		// Report suppression (§4 paragraph 5): someone else reported; we
		// need not.
		if ms, ok := h.members[memberKey{rx.Iface, m.MulticastAddress}]; ok {
			ms.delay.Stop()
			ms.lastReporter = false
		}
	}
}

func (h *Host) onQuery(ifc *netem.Interface, q *icmpv6.MLD) {
	for key, m := range h.members {
		if key.ifc != ifc {
			continue
		}
		if !q.IsGeneralQuery() && q.MulticastAddress != key.group {
			continue
		}
		// Link-scope groups are never reported (§5 last paragraph).
		if key.group.IsLinkScopedMulticast() {
			continue
		}
		maxDelay := q.MaxResponseDelay
		if maxDelay <= 0 {
			maxDelay = time.Millisecond
		}
		d := h.Node.Sched().Jitter("mld", maxDelay)
		// Only shorten an already-pending timer (§4 paragraph 10).
		if m.delay.Running() && m.delay.Remaining() <= d {
			continue
		}
		m.delay.Reset(d)
	}
}

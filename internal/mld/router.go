package mld

import (
	"sort"
	"time"

	"mip6mcast/internal/icmpv6"
	"mip6mcast/internal/ipv6"
	"mip6mcast/internal/netem"
	"mip6mcast/internal/obs"
	"mip6mcast/internal/sim"
)

// ListenerEvent notifies the multicast routing protocol that a link gained
// its first listener for a group, or lost its last one (RFC 2710 §5:
// "Whenever a router adds or deletes a multicast group membership for a
// link, it notifies the multicast routing protocol").
type ListenerEvent struct {
	Iface   *netem.Interface
	Group   ipv6.Addr
	Present bool
}

// Router is the MLD router half on one node, covering all of the node's
// interfaces.
type Router struct {
	Node   *netem.Node
	Config Config
	// OnListenerChange feeds membership transitions to PIM-DM (or any
	// other consumer). May be nil.
	OnListenerChange func(ListenerEvent)
	// Obs, when non-nil, records listener and querier state transitions.
	Obs *obs.Recorder

	state    map[*netem.Interface]*routerIfaceState
	disabled map[*netem.Interface]bool

	// Stats.
	QueriesSent  uint64
	ReportsHeard uint64
	DonesHeard   uint64

	closed bool
}

// Close tears the router role down for a node crash: every timer and
// ticker it owns (query tickers, other-querier timers, per-group expiry and
// last-listener retransmission) is stopped without firing listener-change
// notifications, and all state dropped. A closed router ignores all input;
// build a fresh Router on restart.
func (r *Router) Close() {
	if r.closed {
		return
	}
	r.closed = true
	for _, st := range r.state {
		st.otherQuerier.Stop()
		st.queryTicker.Stop()
		for _, rec := range st.groups {
			rec.expiry.Stop()
			rec.retransmit.Stop()
		}
	}
	r.state = map[*netem.Interface]*routerIfaceState{}
}

type routerIfaceState struct {
	r   *Router
	ifc *netem.Interface

	querier      bool
	disabled     bool
	otherQuerier *sim.Timer // Other-Querier-Present timer
	queryTicker  *sim.Ticker
	startupLeft  int

	groups map[ipv6.Addr]*listenerRecord
}

type listenerRecord struct {
	expiry *sim.Timer
	// Address-specific (last-listener) query retransmission state.
	specificQueriesLeft int
	retransmit          *sim.Timer
}

// NewRouter installs the MLD router role on node, active on every current
// and future interface.
func NewRouter(node *netem.Node, cfg Config) *Router {
	r := &Router{Node: node, Config: cfg, state: map[*netem.Interface]*routerIfaceState{}}
	node.HandleProto(ipv6.ProtoICMPv6, r.handleICMP)
	for _, ifc := range node.Ifaces {
		r.startIface(ifc)
	}
	node.OnAttach(func(ifc *netem.Interface) { r.startIface(ifc) })
	return r
}

func (r *Router) startIface(ifc *netem.Interface) {
	if r.closed || r.disabled[ifc] {
		return
	}
	if _, ok := r.state[ifc]; ok {
		return
	}
	st := &routerIfaceState{
		r: r, ifc: ifc,
		querier:     true, // every router starts as querier (§5)
		startupLeft: r.Config.Robustness,
		groups:      map[ipv6.Addr]*listenerRecord{},
	}
	r.state[ifc] = st
	s := r.Node.Sched()
	prev := s.PushTag("mld")
	st.otherQuerier = sim.NewTimer(s, func() { st.becomeQuerier() })
	st.queryTicker = sim.NewTicker(s, r.Config.StartupQueryInterval, 0, func() { st.periodicQuery() })
	// First query right away (with a small deterministic-random jitter so
	// co-started routers don't collide artificially).
	s.Schedule(s.Jitter("mld", 100*time.Millisecond), func() { st.periodicQuery() })
	s.PopTag(prev)
}

// AttachRecorder starts feeding listener/querier transitions to rec and
// records each interface's current querier state and listener records as a
// baseline (interfaces in attachment order, groups sorted).
func (r *Router) AttachRecorder(rec *obs.Recorder) {
	r.Obs = rec
	if rec == nil {
		return
	}
	for _, ifc := range r.Node.Ifaces {
		st, ok := r.state[ifc]
		if !ok {
			continue
		}
		q := "non-querier"
		if st.querier {
			q = "querier"
		}
		rec.State(r.Node.Name, st.obsQuerierTrack(), q, "")
		for _, g := range r.Groups(ifc) {
			rec.State(r.Node.Name, st.obsGroupTrack(g), "listeners", "")
		}
	}
}

func (st *routerIfaceState) obsQuerierTrack() string {
	name := "?"
	if st.ifc.Link != nil {
		name = st.ifc.Link.Name
	}
	return "mld " + name + " querier"
}

func (st *routerIfaceState) obsGroupTrack(group ipv6.Addr) string {
	name := "?"
	if st.ifc.Link != nil {
		name = st.ifc.Link.Name
	}
	return "mld " + name + " " + group.String()
}

func (st *routerIfaceState) periodicQuery() {
	if st.disabled || !st.querier || !st.ifc.Up() {
		return
	}
	st.sendGeneralQuery()
	if st.startupLeft > 0 {
		st.startupLeft--
		if st.startupLeft == 0 {
			st.queryTicker.SetPeriod(st.r.Config.QueryInterval)
		}
	}
}

func (st *routerIfaceState) sendGeneralQuery() {
	r := st.r
	q := &icmpv6.MLD{Kind: icmpv6.TypeMLDQuery, MaxResponseDelay: r.Config.MaxResponseDelay}
	src := st.ifc.LinkLocal()
	pkt := mldPacket(src, ipv6.AllNodes, icmpv6.Marshal(src, ipv6.AllNodes, q))
	_ = r.Node.OutputOn(st.ifc, pkt)
	r.QueriesSent++
}

func (st *routerIfaceState) sendSpecificQuery(group ipv6.Addr) {
	r := st.r
	q := &icmpv6.MLD{
		Kind:             icmpv6.TypeMLDQuery,
		MaxResponseDelay: r.Config.LastListenerQueryInterval,
		MulticastAddress: group,
	}
	src := st.ifc.LinkLocal()
	pkt := mldPacket(src, group, icmpv6.Marshal(src, group, q))
	_ = r.Node.OutputOn(st.ifc, pkt)
	r.QueriesSent++
}

func (st *routerIfaceState) becomeQuerier() {
	st.querier = true
	if st.r.Obs != nil {
		st.r.Obs.State(st.r.Node.Name, st.obsQuerierTrack(), "querier", "")
	}
	st.queryTicker.SetPeriod(st.r.Config.QueryInterval)
	st.sendGeneralQuery()
}

func (r *Router) handleICMP(rx netem.RxPacket) {
	st, ok := r.state[rx.Iface]
	if !ok {
		return
	}
	switch icmpv6.PeekType(rx.Pkt.Payload) {
	case icmpv6.TypeMLDQuery, icmpv6.TypeMLDReport, icmpv6.TypeMLDDone:
	default:
		return // not MLD; skip the full parse
	}
	s := r.Node.Sched()
	prev := s.PushTag("mld")
	defer s.PopTag(prev)
	if r.Config.RequireRouterAlert {
		if _, has := ipv6.FindOption(rx.Pkt.HopByHop, ipv6.OptRouterAlert); !has {
			return
		}
	}
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
		st.onQueryHeard(rx.Pkt.Hdr.Src, m)
	case icmpv6.TypeMLDReport:
		r.ReportsHeard++
		st.onReport(m.MulticastAddress)
	case icmpv6.TypeMLDDone:
		r.DonesHeard++
		st.onDone(m.MulticastAddress)
	}
}

// onQueryHeard implements querier election: a query from a numerically
// lower link-local source demotes us (§5 bullet 1).
func (st *routerIfaceState) onQueryHeard(src ipv6.Addr, m *icmpv6.MLD) {
	if src.Less(st.ifc.LinkLocal()) {
		if st.querier && st.r.Obs != nil {
			st.r.Obs.State(st.r.Node.Name, st.obsQuerierTrack(), "non-querier", "querier="+src.String())
		}
		st.querier = false
		st.otherQuerier.Reset(st.r.Config.OtherQuerierPresentInterval())
	}
	// Non-queriers hearing an address-specific query lower their own group
	// timer to Last Listener Query Time (§5 bullet 2).
	if !st.querier && !m.IsGeneralQuery() {
		if rec, ok := st.groups[m.MulticastAddress]; ok {
			llqt := st.r.Config.LastListenerQueryTime()
			if rec.expiry.Remaining() > llqt {
				rec.expiry.Reset(llqt)
			}
		}
	}
}

func (st *routerIfaceState) onReport(group ipv6.Addr) {
	rec, ok := st.groups[group]
	if !ok {
		rec = &listenerRecord{}
		s := st.r.Node.Sched()
		g := group
		rec.expiry = sim.NewTimer(s, func() { st.expire(g) })
		rec.retransmit = sim.NewTimer(s, func() { st.lastListenerRound(g) })
		st.groups[group] = rec
		st.notify(group, true)
	}
	// A report cancels any pending last-listener query round and refreshes
	// the listener interval.
	rec.specificQueriesLeft = 0
	rec.retransmit.Stop()
	rec.expiry.Reset(st.r.Config.ListenerInterval())
}

// onDone starts the last-listener query procedure (§5 bullet 4; queriers
// only).
func (st *routerIfaceState) onDone(group ipv6.Addr) {
	if !st.querier {
		return
	}
	rec, ok := st.groups[group]
	if !ok {
		return
	}
	rec.specificQueriesLeft = st.r.Config.Robustness
	rec.expiry.Reset(st.r.Config.LastListenerQueryTime())
	st.lastListenerRound(group)
}

func (st *routerIfaceState) lastListenerRound(group ipv6.Addr) {
	rec, ok := st.groups[group]
	if !ok || rec.specificQueriesLeft == 0 {
		return
	}
	rec.specificQueriesLeft--
	if st.r.Obs != nil {
		st.r.Obs.Instant(st.r.Node.Name, st.obsGroupTrack(group), "specific-query", "")
	}
	st.sendSpecificQuery(group)
	if rec.specificQueriesLeft > 0 {
		rec.retransmit.Reset(st.r.Config.LastListenerQueryInterval)
	}
}

func (st *routerIfaceState) expire(group ipv6.Addr) {
	if rec, ok := st.groups[group]; ok {
		rec.expiry.Stop()
		rec.retransmit.Stop()
		delete(st.groups, group)
		st.notify(group, false)
	}
}

func (st *routerIfaceState) notify(group ipv6.Addr, present bool) {
	if st.r.Obs != nil {
		state := "no-listeners"
		if present {
			state = "listeners"
		}
		st.r.Obs.State(st.r.Node.Name, st.obsGroupTrack(group), state, "")
	}
	if st.r.OnListenerChange != nil {
		st.r.OnListenerChange(ListenerEvent{Iface: st.ifc, Group: group, Present: present})
	}
}

// HasListeners reports whether the link attached to ifc currently has
// listeners for group.
func (r *Router) HasListeners(ifc *netem.Interface, group ipv6.Addr) bool {
	st, ok := r.state[ifc]
	if !ok {
		return false
	}
	_, ok = st.groups[group]
	return ok
}

// Groups returns the groups with listeners on ifc, sorted for determinism.
func (r *Router) Groups(ifc *netem.Interface) []ipv6.Addr {
	st, ok := r.state[ifc]
	if !ok {
		return nil
	}
	out := make([]ipv6.Addr, 0, len(st.groups))
	for g := range st.groups {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// IsQuerier reports whether this router is the elected querier on ifc.
func (r *Router) IsQuerier(ifc *netem.Interface) bool {
	st, ok := r.state[ifc]
	return ok && st.querier
}

// Disable removes the router role from one interface permanently: all
// timers for it stop, its listener records are dropped without
// listener-change notifications, and the role will not restart on
// re-attachment. An MLD proxy calls this on its upstream interface,
// where it performs only the host portion of the protocol (RFC 4605
// §4.2) — leaving the router role active there would contest the
// querier election against the upstream router.
func (r *Router) Disable(ifc *netem.Interface) {
	if r.disabled == nil {
		r.disabled = map[*netem.Interface]bool{}
	}
	r.disabled[ifc] = true
	st, ok := r.state[ifc]
	if !ok {
		return
	}
	st.disabled = true
	st.otherQuerier.Stop()
	st.queryTicker.Stop()
	for _, rec := range st.groups {
		rec.expiry.Stop()
		rec.retransmit.Stop()
	}
	delete(r.state, ifc)
}

// InjectListener force-adds (or refreshes) a listener record, exactly as if
// a Report had been heard on ifc. Mobile IPv6 home agents acting as group
// members on behalf of mobile nodes (the paper's §4.3.2) use this when the
// home agent and the MLD router are the same box.
func (r *Router) InjectListener(ifc *netem.Interface, group ipv6.Addr) {
	if st, ok := r.state[ifc]; ok {
		st.onReport(group)
	}
}

// WithdrawListener force-expires a listener record, as if the Multicast
// Listener Interval had elapsed.
func (r *Router) WithdrawListener(ifc *netem.Interface, group ipv6.Addr) {
	if st, ok := r.state[ifc]; ok {
		st.expire(group)
	}
}

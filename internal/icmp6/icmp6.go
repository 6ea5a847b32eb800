// Package icmp6 implements ICMPv6 (§4): the traditional echo and error
// messages, plus everything ICMPv6 absorbed from formerly separate
// protocols — IGMP group membership, ARP (as Neighbor Discovery),
// ICMP Router Discovery (as Router Solicit/Advertise), and stateless
// address autoconfiguration.
//
// The §4 differences from ICMPv4 are all here: the checksum includes a
// pseudo-header; the high bit of the type distinguishes informational
// from error messages; group/neighbor/router functions are ICMPv6
// messages (and therefore can be protected by IP security, §4); and
// Router Advertisements drive address autoconfiguration with lifetimes.
package icmp6

import (
	"encoding/binary"
	"strconv"
	"sync"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// ICMPv6 message types. The high bit set marks informational messages
// (§4: "the difference between informational messages and error
// messages is now indicated by the high bit").
const (
	TypeDstUnreach   = 1
	TypePacketTooBig = 2
	TypeTimeExceeded = 3
	TypeParamProblem = 4

	TypeEchoRequest = 128
	TypeEchoReply   = 129
	// Group membership (absorbed IGMP, §4.1).
	TypeGroupQuery     = 130
	TypeGroupReport    = 131
	TypeGroupTerminate = 132
	// Neighbor/Router discovery (absorbed ARP + router discovery).
	TypeRouterSolicit   = 133
	TypeRouterAdvert    = 134
	TypeNeighborSolicit = 135
	TypeNeighborAdvert  = 136
)

// IsError reports whether an ICMPv6 type is an error message.
func IsError(typ uint8) bool { return typ&0x80 == 0 }

// Destination Unreachable codes.
const (
	UnreachNoRoute     = 0
	UnreachAdminProhib = 1
	UnreachNotNeighbor = 2 // strict source routing failed (§4.1)
	UnreachAddr        = 3
	UnreachPort        = 4
)

// Stats counts ICMPv6 events.
type Stats struct {
	ip.ICMPStats
	InMsgs       stat.Counter
	InErrors     stat.Counter
	InEchos      stat.Counter
	InEchoReps   stat.Counter
	InNS, InNA   stat.Counter
	InRS, InRA   stat.Counter
	InQueries    stat.Counter
	InReports    stat.Counter
	OutEchoReps  stat.Counter
	OutNS, OutNA stat.Counter
	OutRS, OutRA stat.Counter
	OutReports   stat.Counter
	OutTerm      stat.Counter
	BadHopLimit  stat.Counter
	DadStarted   stat.Counter
	DadDuplicate stat.Counter
	PmtuUpdates  stat.Counter
	NdTimeouts   stat.Counter
}

// Module is the ICMPv6 instance of one stack, owning neighbor
// discovery, router discovery, autoconfiguration and group state.
type Module struct {
	l  *ipv6.Layer
	mu sync.Mutex

	Stats Stats
	// OnEcho receives echo replies (ping6).
	OnEcho func(src inet.IP6, id, seq uint16, payload []byte)
	// InputPolicy is ipsec_input_policy applied to echo traffic: under
	// a require-authentication system policy, "unauthenticated ping
	// will silently fail as if the destination system were not
	// reachable at all" (§5.3). nil permits everything.
	InputPolicy func(pkt *mbuf.Mbuf, dst inet.IP6, socket any) bool
	// PolicyDrops counts echoes suppressed by InputPolicy.
	PolicyDrops stat.Counter
	// OnErrorMsg observes received ICMPv6 error messages (type, code,
	// the reporting node, and the embedded offending packet) — the raw
	// ICMPv6 socket view that traceroute-style tools need.
	OnErrorMsg func(typ, code uint8, src inet.IP6, inner []byte)

	// Router configuration; nil on hosts.
	rcfg map[string]*RouterConfig // by interface name
	raAt map[string]time.Time     // next scheduled RA per interface

	dad map[inet.IP6]*dadState

	// Host-side router list (learned from RAs).
	routers map[inet.IP6]time.Time // router lladdr -> expiry

	// Router-side multicast membership cache (learned from Reports).
	members map[groupKey]time.Time
}

// Attach creates the module, registers it in the IPv6 protocol switch,
// and installs its counters for the layer's errors and its neighbor
// solicit.
func Attach(l *ipv6.Layer) *Module {
	m := &Module{
		l:       l,
		rcfg:    make(map[string]*RouterConfig),
		raAt:    make(map[string]time.Time),
		dad:     make(map[inet.IP6]*dadState),
		routers: make(map[inet.IP6]time.Time),
	}
	l.Register(proto.ICMPv6, m.input, nil)
	l.ICMPStats = &m.Stats.ICMPStats
	l.Solicit = m.solicit
	l.OnGroupChange = m.groupChange
	return m
}

// Layer returns the IPv6 layer the module is attached to.
func (m *Module) Layer() *ipv6.Layer { return m.l }

// sendCtl emits a neighbor/router/group control message, whose body
// begins with the message's 32-bit word.  These bypass the IP security
// output policy: they are the bootstrap path that discovers the very
// neighbors secured traffic is sent to (the paper notes ND *can* be
// secured when appropriate associations exist, §4 — with manually
// keyed multicast associations; absent those, control traffic must not
// deadlock behind a require-security policy).
func (m *Module) sendCtl(typ, code uint8, body []byte, src, dst inet.IP6, hops uint8, ifName string) error {
	m.Stats.OutMsgs.Inc()
	opts := ipv6.OutputOpts{HopLimit: hops, IfName: ifName, NoSecurity: true}
	return m.l.SendICMP(typ, code, binary.BigEndian.Uint32(body), body[4:], src, dst, opts)
}

// SendEcho emits an echo request (ping6, §4.1).
func (m *Module) SendEcho(dst inet.IP6, id, seq uint16, payload []byte) error {
	return m.SendEchoHops(dst, id, seq, payload, 0)
}

// SendEchoHops emits an echo request with an explicit hop limit
// (traceroute-style probing; 0 means the layer default).
func (m *Module) SendEchoHops(dst inet.IP6, id, seq uint16, payload []byte, hops uint8) error {
	m.Stats.OutMsgs.Inc()
	return m.l.SendICMP(TypeEchoRequest, 0, uint32(id)<<16|uint32(seq), payload, inet.IP6{}, dst, ipv6.OutputOpts{HopLimit: hops})
}

// input is the protocol-switch entry for ICMPv6. The packet begins at
// the ICMPv6 header; meta carries the addresses for the pseudo-header.
// It is the packet's terminal consumer: every branch below that keeps
// data (echo callbacks, ND handlers, ctl dispatch) copies what it
// needs before returning, so the buffer goes back to the pool here.
func (m *Module) input(pkt *mbuf.Mbuf, meta proto.Meta) {
	defer pkt.Free()
	b := pkt.Bytes()
	if len(b) < 4 {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropPkt(stat.RICMP6Short, b)
		return
	}
	if inet.TransportChecksum6(meta.Src6, meta.Dst6, proto.ICMPv6, b) != 0 {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropPkt(stat.RICMP6BadSum, b)
		return
	}
	m.Stats.InMsgs.Inc()
	typ, code := b[0], b[1]
	body := b[4:]
	switch typ {
	case TypeEchoRequest:
		if m.InputPolicy != nil && !m.InputPolicy(pkt, meta.Dst6, nil) {
			m.PolicyDrops.Inc()
			m.l.Drops.DropNote(stat.RICMP6PolicyDrop, meta.Src6.String()+">"+meta.Dst6.String())
			return
		}
		m.Stats.InEchos.Inc()
		if len(body) < 4 {
			return
		}
		m.Stats.OutEchoReps.Inc()
		m.Stats.OutMsgs.Inc()
		src := meta.Dst6
		if src.IsMulticast() {
			src = inet.IP6{} // reply from a unicast address of ours
		}
		m.l.SendICMP(TypeEchoReply, 0, binary.BigEndian.Uint32(body), body[4:], src, meta.Src6, ipv6.OutputOpts{IfName: meta.RcvIf})
	case TypeEchoReply:
		m.Stats.InEchoReps.Inc()
		if m.OnEcho != nil && len(body) >= 4 {
			id := uint16(body[0])<<8 | uint16(body[1])
			seq := uint16(body[2])<<8 | uint16(body[3])
			m.OnEcho(meta.Src6, id, seq, append([]byte(nil), body[4:]...))
		}
	case TypeDstUnreach, TypePacketTooBig, TypeTimeExceeded, TypeParamProblem:
		if m.OnErrorMsg != nil && len(body) > 4 {
			m.OnErrorMsg(typ, code, meta.Src6, append([]byte(nil), body[4:]...))
		}
		m.ctlDispatch(typ, code, body, &meta)
	case TypeNeighborSolicit, TypeNeighborAdvert, TypeRouterSolicit, TypeRouterAdvert:
		// Discovery messages must arrive with hop limit 255: anything
		// lower has crossed a router, so an off-link attacker cannot
		// inject neighbor or router state.
		if meta.Hops != 255 {
			m.Stats.BadHopLimit.Inc()
			m.l.Drops.DropPkt(stat.RNDBadHopLimit, b)
			return
		}
		switch typ {
		case TypeNeighborSolicit:
			m.Stats.InNS.Inc()
			m.nsInput(body, &meta)
		case TypeNeighborAdvert:
			m.Stats.InNA.Inc()
			m.naInput(body, &meta)
		case TypeRouterSolicit:
			m.Stats.InRS.Inc()
			m.rsInput(body, &meta)
		case TypeRouterAdvert:
			m.Stats.InRA.Inc()
			m.raInput(body, &meta)
		}
	case TypeGroupQuery, TypeGroupReport, TypeGroupTerminate:
		// Group membership traffic is link-scope (§4.1): senders use
		// hop limit 1 and a link-local (or, before an address is
		// configured, unspecified) source.  Anything else has crossed a
		// router — an off-link forgery must not mutate membership
		// state.
		if meta.Hops != 1 {
			m.Stats.BadHopLimit.Inc()
			m.l.Drops.DropPkt(stat.RMLDBadHopLimit, b)
			return
		}
		if !meta.Src6.IsLinkLocal() && !meta.Src6.IsUnspecified() {
			m.Stats.InErrors.Inc()
			m.l.Drops.DropNote(stat.RMLDBadSource, meta.Src6.String())
			return
		}
		if typ == TypeGroupQuery {
			m.Stats.InQueries.Inc()
			m.queryInput(body, &meta)
		} else {
			m.Stats.InReports.Inc()
			m.reportInput(typ, body, &meta)
		}
	}
}

// ctlDispatch decodes the offending packet embedded in an error and
// notifies the owning transport, updating PMTU state for Packet Too
// Big (§2.2: the update lands in the destination's host route).
func (m *Module) ctlDispatch(typ, code uint8, body []byte, meta *proto.Meta) {
	if len(body) < 4+ipv6.HeaderLen {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropNote(stat.RICMP6CtlShort, meta.Src6.String()+">"+meta.Dst6.String())
		return
	}
	param := uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3])
	inner := body[4:]
	ih, err := ipv6.Parse(inner)
	if err != nil {
		m.Stats.InErrors.Inc()
		m.l.Drops.DropNote(stat.RICMP6CtlShort, meta.Src6.String()+">"+meta.Dst6.String())
		return
	}
	info, _ := ipv6.Preparse(inner, false)
	var kind proto.CtlType
	mtu := 0
	switch typ {
	case TypePacketTooBig:
		kind = proto.CtlMsgSize
		mtu = int(param)
		if mtu < ipv6.MinMTU {
			// No conforming IPv6 path is narrower than the minimum
			// link MTU: a smaller value is a forged (or broken) PTB,
			// and must not shrink a path — and TCP's derived MSS —
			// below it.
			m.l.Drops.DropNote(stat.RICMP6PTBClamped, ih.Dst.String())
			mtu = ipv6.MinMTU
		}
		m.l.Drops.Ctl("ptb " + ih.Dst.String() + " mtu=" + strconv.Itoa(mtu))
		m.updatePMTU(ih.Dst, mtu)
	case TypeDstUnreach:
		if code == UnreachPort {
			kind = proto.CtlPortUnreach
		} else {
			kind = proto.CtlUnreach
		}
	case TypeTimeExceeded:
		kind = proto.CtlTimeExceed
	default:
		kind = proto.CtlParamProb
	}
	innerMeta := &proto.Meta{Family: inet.AFInet6, Src6: ih.Src, Dst6: ih.Dst, Proto: info.Final}
	var contents []byte
	if info.FinalOff < len(inner) {
		contents = inner[info.FinalOff:]
	}
	if ctl := m.l.Ctl(info.Final); ctl != nil {
		ctl(kind, innerMeta, contents, mtu)
	}
}

// updatePMTU lowers the MTU stored in dst's host route.
func (m *Module) updatePMTU(dst inet.IP6, mtu int) {
	rt, ok := m.l.Routes().Lookup(inet.AFInet6, dst[:])
	if !ok {
		return
	}
	updated := false
	m.l.Routes().Change(rt, func(e *route.Entry) {
		if e.Host() && (e.MTU == 0 || mtu < e.MTU) {
			e.MTU = mtu
			updated = true
		}
	})
	if updated {
		m.Stats.PmtuUpdates.Inc()
	}
}

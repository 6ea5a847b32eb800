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
	"strconv"
	"sync"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
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
	InMsgs       stat.Counter
	InErrors     stat.Counter
	InEchos      stat.Counter
	InEchoReps   stat.Counter
	InNS, InNA   stat.Counter
	InRS, InRA   stat.Counter
	InQueries    stat.Counter
	InReports    stat.Counter
	OutMsgs      stat.Counter
	OutErrors    stat.Counter
	OutEchoReps  stat.Counter
	OutNS, OutNA stat.Counter
	OutRS, OutRA stat.Counter
	OutReports   stat.Counter
	OutTerm      stat.Counter
	RateLimited  stat.Counter
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

	// The outbound-error token bucket (see DefaultErrPPS).
	errTokens float64
	errLast   time.Time
}

// DefaultErrPPS bounds outbound error messages per second (RFC 1885
// §2.4(f): a node SHOULD limit the rate of error messages it
// originates, or a corruption storm is amplified 1:1).
const DefaultErrPPS = 100

// Attach creates the module, registers it in the IPv6 protocol switch,
// and installs the layer's error sink and neighbor solicit.
func Attach(l *ipv6.Layer) *Module {
	m := &Module{
		l:       l,
		rcfg:    make(map[string]*RouterConfig),
		raAt:    make(map[string]time.Time),
		dad:     make(map[inet.IP6]*dadState),
		routers: make(map[inet.IP6]time.Time),
	}
	l.Register(proto.ICMPv6, m.input, nil)
	l.Error = m.LayerError
	l.Solicit = m.solicit
	l.OnGroupChange = m.groupChange
	return m
}

// Layer returns the IPv6 layer the module is attached to.
func (m *Module) Layer() *ipv6.Layer { return m.l }

// marshal builds an ICMPv6 message with its pseudo-header checksum
// (§4: ICMPv6, "like TCP and UDP, requires a pseudo-header to be
// included in its checksum calculation").
func marshal(typ, code uint8, body []byte, src, dst inet.IP6) []byte {
	b := make([]byte, 4+len(body))
	b[0], b[1] = typ, code
	copy(b[4:], body)
	ck := inet.TransportChecksum6(src, dst, proto.ICMPv6, b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	return b
}

// buildMsg is marshal into a pooled wire buffer with the checksum
// fused into the body copy (inet.SumCopy): the message body is
// traversed once, and the IPv6 header will land in the slab's
// headroom on output.  Byte-for-byte identical to mbuf.New(marshal(…))
// — the differential tests hold it to that.
func buildMsg(typ, code uint8, body []byte, src, dst inet.IP6) *mbuf.Mbuf {
	tlen := 4 + len(body)
	pkt := mbuf.Get(tlen)
	b := pkt.Bytes()
	b[0], b[1], b[2], b[3] = typ, code, 0, 0
	sum := inet.PseudoHeader6(src, dst, uint32(tlen), proto.ICMPv6)
	sum = inet.Sum(sum, b[:4])
	sum = inet.SumCopy(sum, b[4:], body)
	ck := inet.Fold(sum)
	b[2], b[3] = byte(ck>>8), byte(ck)
	return pkt
}

// send emits an ICMPv6 message. hops 0 means the layer default; ND
// messages pass 255.
func (m *Module) send(typ, code uint8, body []byte, src, dst inet.IP6, hops uint8, ifName string) error {
	return m.sendOpt(typ, code, body, src, dst, hops, ifName, false)
}

// sendCtl emits a neighbor/router/group control message.  These bypass
// the IP security output policy: they are the bootstrap path that
// discovers the very neighbors secured traffic is sent to (the paper
// notes ND *can* be secured when appropriate associations exist, §4 —
// with manually keyed multicast associations; absent those, control
// traffic must not deadlock behind a require-security policy).
func (m *Module) sendCtl(typ, code uint8, body []byte, src, dst inet.IP6, hops uint8, ifName string) error {
	return m.sendOpt(typ, code, body, src, dst, hops, ifName, true)
}

func (m *Module) sendOpt(typ, code uint8, body []byte, src, dst inet.IP6, hops uint8, ifName string, noSec bool) error {
	if src.IsUnspecified() {
		// The checksum needs the final source; select it now.
		var ifp *netif.Interface
		if ifName != "" {
			ifp = m.l.Interface(ifName)
		}
		if s, ok := m.l.SourceFor(dst, ifp); ok {
			src = s
		}
	}
	m.Stats.OutMsgs.Inc()
	pkt := buildMsg(typ, code, body, src, dst)
	return m.l.Output(pkt, src, dst, proto.ICMPv6, ipv6.OutputOpts{HopLimit: hops, IfName: ifName, NoSecurity: noSec})
}

// SendEcho emits an echo request (ping6, §4.1).
func (m *Module) SendEcho(dst inet.IP6, id, seq uint16, payload []byte) error {
	return m.SendEchoHops(dst, id, seq, payload, 0)
}

// SendEchoHops emits an echo request with an explicit hop limit
// (traceroute-style probing; 0 means the layer default).
func (m *Module) SendEchoHops(dst inet.IP6, id, seq uint16, payload []byte, hops uint8) error {
	body := make([]byte, 4+len(payload))
	body[0], body[1] = byte(id>>8), byte(id)
	body[2], body[3] = byte(seq>>8), byte(seq)
	copy(body[4:], payload)
	return m.send(TypeEchoRequest, 0, body, inet.IP6{}, dst, hops, "")
}

// LayerError is the ipv6.Layer error sink: it converts layer trigger
// points into wire messages.
func (m *Module) LayerError(kind int, code uint8, param uint32, orig *mbuf.Mbuf, rcvIf string) {
	var typ uint8
	switch kind {
	case ipv6.ErrDstUnreach:
		typ = TypeDstUnreach
	case ipv6.ErrPacketTooBig:
		typ = TypePacketTooBig
	case ipv6.ErrTimeExceeded:
		typ = TypeTimeExceeded
	case ipv6.ErrParamProblem:
		typ = TypeParamProblem
	default:
		return
	}
	m.SendError(typ, code, param, orig, rcvIf)
}

// SendPTB emits a Packet Too Big about orig advertising the given
// MTU, clamped at the IPv6 minimum link MTU so no sender — the
// tunnel nested-PMTU translator included — can advertise a path below
// what every IPv6 link guarantees.
func (m *Module) SendPTB(mtu int, orig *mbuf.Mbuf, rcvIf string) {
	mtu = max(mtu, ipv6.MinMTU)
	m.SendError(TypePacketTooBig, 0, uint32(mtu), orig, rcvIf)
}

// SendError emits an ICMPv6 error about the received packet orig,
// applying the suppression rules: never about an ICMPv6 error, a
// multicast-sourced or unspecified-sourced packet, or (except Packet
// Too Big) a multicast-destined packet.
func (m *Module) SendError(typ, code uint8, param uint32, orig *mbuf.Mbuf, rcvIf string) {
	ob := orig.CopyBytes()
	oh, err := ipv6.Parse(ob)
	if err != nil {
		return
	}
	if oh.Src.IsUnspecified() || oh.Src.IsMulticast() {
		return
	}
	if oh.Dst.IsMulticast() && typ != TypePacketTooBig && !(typ == TypeParamProblem && code == ipv6.ParamUnknownOpt) {
		return
	}
	// Never answer an ICMPv6 error with an error.
	if info, perr := ipv6.Preparse(ob, false); perr == nil && info.Final == proto.ICMPv6 {
		if info.FinalOff < len(ob) && IsError(ob[info.FinalOff]) {
			return
		}
	}
	// Rate-limit what survives the suppression rules (RFC 1885): under
	// a corruption or loss storm the stack must not amplify every bad
	// packet into an outbound error.
	if !m.errAllow() {
		m.Stats.RateLimited.Inc()
		m.l.Drops.DropNote(stat.RICMP6RateLimited, oh.Src.String())
		return
	}
	// Body: 4-byte parameter + as much of the offender as fits in the
	// minimum MTU.
	room := ipv6.MinMTU - ipv6.HeaderLen - 8
	if len(ob) > room {
		ob = ob[:room]
	}
	body := make([]byte, 4+len(ob))
	body[0] = byte(param >> 24)
	body[1] = byte(param >> 16)
	body[2] = byte(param >> 8)
	body[3] = byte(param)
	copy(body[4:], ob)
	m.Stats.OutErrors.Inc()
	m.send(typ, code, body, inet.IP6{}, oh.Src, 0, rcvIf)
}

// errAllow takes one token from the outbound-error bucket, refilled at
// DefaultErrPPS tokens per second off the stack's (virtual) clock.
func (m *Module) errAllow() bool {
	const rate = float64(DefaultErrPPS)
	now := m.l.Routes().Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.errLast.IsZero() {
		m.errTokens = rate // full bucket on first use
	} else {
		m.errTokens = min(m.errTokens+now.Sub(m.errLast).Seconds()*rate, rate)
	}
	m.errLast = now
	if m.errTokens < 1 {
		return false
	}
	m.errTokens--
	return true
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
		src := meta.Dst6
		if src.IsMulticast() {
			src = inet.IP6{} // reply from a unicast address of ours
		}
		m.send(TypeEchoReply, 0, body, src, meta.Src6, 0, meta.RcvIf)
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

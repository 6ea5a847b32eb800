// Package proto holds the protocol numbers and the per-packet metadata
// record shared by every layer of the stack.
//
// In 4.4 BSD the moral equivalent of Meta is scattered across the mbuf
// packet header and the overlay structures (struct ipovly /
// struct ipv6ovly, paper Figures 5 and 6) that transports use to reach
// IP-layer fields.  Collecting it in one struct is what lets the shared
// TCP and UDP implementations run over both IP versions with a single
// "which code path" discriminator, the way the paper's modified
// udp_input() and tcp_input() use a local variable set on entry (§5.2).
package proto

import (
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
)

// IP protocol / IPv6 next-header numbers.
const (
	HopByHop = 0  // IPv6 hop-by-hop options header
	ICMP     = 1  // ICMPv4
	IPv4     = 4  // IPv4-in-IP encapsulation (ESP tunnel inner, v4)
	TCP      = 6  //
	UDP      = 17 //
	IPv6     = 41 // IPv6-in-IP encapsulation (ESP tunnel inner, v6)
	Routing  = 43 // IPv6 routing header
	Fragment = 44 // IPv6 fragment header
	ESP      = 50 // Encapsulating Security Payload
	AH       = 51 // Authentication Header
	ICMPv6   = 58 //
	NoNext   = 59 // IPv6 no-next-header
	DstOpts  = 60 // IPv6 destination options header
)

// Name returns the conventional name of a protocol number.
func Name(p uint8) string {
	switch p {
	case HopByHop:
		return "hopopt"
	case ICMP:
		return "icmp"
	case IPv4:
		return "ipip"
	case TCP:
		return "tcp"
	case UDP:
		return "udp"
	case IPv6:
		return "ipv6"
	case Routing:
		return "route6"
	case Fragment:
		return "frag6"
	case ESP:
		return "esp"
	case AH:
		return "ah"
	case ICMPv6:
		return "icmp6"
	case NoNext:
		return "nonext"
	case DstOpts:
		return "dstopts"
	}
	return "proto?"
}

// Meta describes a received (or about-to-be-sent) upper-layer packet:
// which IP carried it, its addresses, and transport-relevant IP fields.
type Meta struct {
	Family inet.Family

	// Populated when Family == AFInet.
	Src4, Dst4 inet.IP4
	// Populated when Family == AFInet6.
	Src6, Dst6 inet.IP6

	Proto    uint8  // transport protocol / final next-header
	Hops     uint8  // received TTL / hop limit
	FlowInfo uint32 // IPv6 priority + flow label, 0 for IPv4
	RcvIf    string // receiving interface name
}

// SrcIs6 returns the source as an IP6, mapping IPv4 sources to
// v4-mapped form — the shape a PF_INET6 socket sees (§5.2: "processing
// of an IPv4 packet destined for an IPv6 socket").
func (m *Meta) SrcIs6() inet.IP6 {
	if m.Family == inet.AFInet {
		return inet.V4Mapped(m.Src4)
	}
	return m.Src6
}

// DstIs6 is DstIs6's counterpart for the destination address.
func (m *Meta) DstIs6() inet.IP6 {
	if m.Family == inet.AFInet {
		return inet.V4Mapped(m.Dst4)
	}
	return m.Dst6
}

// TransportInput is the protocol-switch input entry: the IP layers call
// it with the packet positioned at the transport header.  meta is
// passed by value, so delivering a packet allocates no record for it.
type TransportInput func(pkt *mbuf.Mbuf, meta Meta)

// CtlType classifies control (error) notifications delivered upward by
// the ctlinput path: ICMP errors that must reach the owning PCB.
type CtlType int

const (
	CtlUnreach     CtlType = iota + 1 // destination unreachable
	CtlPortUnreach                    // port unreachable
	CtlMsgSize                        // packet too big / frag needed: PMTU update
	CtlTimeExceed                     // hop limit exceeded
	CtlParamProb                      // parameter problem
)

// String names the notification, as traces print it.
func (c CtlType) String() string {
	switch c {
	case CtlUnreach:
		return "unreach"
	case CtlPortUnreach:
		return "port-unreach"
	case CtlMsgSize:
		return "msgsize"
	case CtlTimeExceed:
		return "time-exceeded"
	case CtlParamProb:
		return "param-problem"
	}
	return "ctl?"
}

// CtlInput is the error notification entry of a transport protocol.
// contents is the leading portion of the offending packet's transport
// header (at least 8 bytes when available); mtu is set for CtlMsgSize.
type CtlInput func(kind CtlType, meta *Meta, contents []byte, mtu int)

// Package udp implements UDP over both IP versions (§5.2).
//
// "The UDP protocol remains unchanged for IPv6, but the BSD
// implementation needed to be modified to support both versions of
// IP."  The changes are where the paper says they are: udp_input and
// udp_output carry per-version code paths chosen by a discriminator
// set on entry; an IPv4 datagram can be delivered to a PF_INET6 socket
// (through the v4-mapped PCB form); the checksum is optional over IPv4
// (the udpcksum global) but mandatory over IPv6, since no IP header
// checksum protects the addresses; and input runs the security policy
// function before processing, a check the paper notes "does exact a
// performance penalty on each received packet".
package udp

import (
	"errors"

	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
)

// HeaderLen is the UDP header size.
const HeaderLen = 8

// Stats counts UDP events (netstat's udpstat).
type Stats struct {
	InDatagrams   stat.Counter
	InErrors      stat.Counter
	BadChecksums  stat.Counter
	NoChecksum    stat.Counter // v4 datagrams that arrived without a checksum
	MissingSum6   stat.Counter // v6 datagrams illegally lacking a checksum
	InNoPorts     stat.Counter
	InPolicyDrops stat.Counter
	InV4ToV6      stat.Counter // IPv4 datagrams delivered to PF_INET6 sockets
	OutDatagrams  stat.Counter
	OutErrors     stat.Counter
}

// Errors.
var (
	ErrNotConnected = errors.New("udp: socket not connected")
	ErrNoDest       = errors.New("udp: no destination")
	ErrMsgTooBig    = errors.New("udp: datagram exceeds 64KB")
)

// DeliverFunc hands a received datagram to the owning socket.  data
// aliases the received packet, which is freed when it returns, so the
// socket copies what it keeps.  meta is passed by value.
type DeliverFunc func(p *pcb.PCB, data []byte, src inet.IP6, sport uint16, meta proto.Meta)

// NotifyFunc delivers an ICMP-derived error to a socket.
type NotifyFunc func(p *pcb.PCB, kind proto.CtlType, mtu int)

// UDP is the UDP protocol instance of one stack.
type UDP struct {
	Table *pcb.Table
	v4    *ipv4.Layer
	v6    *ipv6.Layer

	// SumTx mirrors the udpcksum global: whether to compute the
	// optional IPv4 checksum on output. The IPv6 checksum is always
	// computed (§5.2).
	SumTx bool

	// InputPolicy is ipsec_input_policy; nil means no security.
	InputPolicy func(pkt *mbuf.Mbuf, dst inet.IP6, socket any) bool
	// InputPolicyPort, when set, is used instead of InputPolicy and
	// sees the local port, enabling per-port administrative policy
	// (§3.5).
	InputPolicyPort func(pkt *mbuf.Mbuf, dst inet.IP6, socket any, lport uint16) bool
	// AllowError gates upward ICMP error delivery (§5.1's
	// in6_pcbnotify security check); nil means allow.
	AllowError func() bool

	Deliver DeliverFunc
	Notify  NotifyFunc

	// Drops is the stack-wide drop observability sink; nil counts
	// nothing.
	Drops *stat.Recorder

	Stats Stats
}

// New creates the UDP instance and registers it with both IP layers.
func New(v4l *ipv4.Layer, v6l *ipv6.Layer) *UDP {
	u := &UDP{Table: pcb.NewTable(), v4: v4l, v6: v6l, SumTx: true}
	if v4l != nil {
		v4l.Register(proto.UDP, u.input, u.ctlInput)
	}
	if v6l != nil {
		v6l.Register(proto.UDP, u.input, u.ctlInput)
	}
	return u
}

// header marshals a UDP header with checksum field ck.
func header(sport, dport uint16, length int, ck uint16) []byte {
	return []byte{
		byte(sport >> 8), byte(sport), byte(dport >> 8), byte(dport),
		byte(length >> 8), byte(length), byte(ck >> 8), byte(ck),
	}
}

// buildWire assembles the complete UDP datagram — header and payload
// contiguous — in a single pooled buffer, so the IP layer's header
// prepend lands in the slab's headroom and the common datagram costs
// no allocations beyond the (recycled) slab itself.
func buildWire(sport, dport uint16, data []byte) (*mbuf.Mbuf, []byte) {
	length := HeaderLen + len(data)
	pkt := mbuf.Get(length)
	wire := pkt.Bytes()
	copy(wire[:HeaderLen], header(sport, dport, length, 0))
	copy(wire[HeaderLen:], data)
	return pkt, wire
}

// buildWireSum is buildWire with the checksum fused into the payload
// copy (inet.SumCopy): the datagram body is traversed once to both
// land in the wire buffer and enter the sum, instead of a copy pass
// followed by a checksum pass.  psum is the unfolded pseudo-header
// sum for the chosen IP version.
func buildWireSum(sport, dport uint16, data []byte, psum uint32) *mbuf.Mbuf {
	length := HeaderLen + len(data)
	pkt := mbuf.Get(length)
	wire := pkt.Bytes()
	copy(wire[:HeaderLen], header(sport, dport, length, 0))
	sum := inet.Sum(psum, wire[:HeaderLen])
	sum = inet.SumCopy(sum, wire[HeaderLen:], data)
	ck := inet.Fold(sum)
	if ck == 0 {
		ck = 0xffff // transmitted 0 means "no checksum"
	}
	wire[6], wire[7] = byte(ck>>8), byte(ck)
	return pkt
}

// Connect is connect(2) on a UDP socket: in_pcbconnect fixes the
// foreign endpoint and, unless the socket is bound to an address, the
// local address (Table.SelectLocal), so each datagram sent on the
// connection skips source selection.
func (u *UDP) Connect(p *pcb.PCB, faddr inet.IP6, fport uint16) error {
	if err := u.Table.Connect(p, faddr, fport); err != nil {
		return err
	}
	u.Table.SelectLocal(p, u.v4, u.v6)
	return nil
}

// Output is udp_output: create and send a datagram.  It "determines
// whether to create an IPv4 or IPv6 datagram by looking at the
// protocol control block"; faddr/fport override the connected peer for
// sendto semantics.
func (u *UDP) Output(p *pcb.PCB, data []byte, faddr inet.IP6, fport uint16) error {
	if faddr.IsUnspecified() && fport == 0 {
		faddr, fport = p.FAddr, p.FPort
		if faddr.IsUnspecified() && fport == 0 {
			return ErrNotConnected
		}
	}
	if fport == 0 {
		return ErrNoDest
	}
	if len(data)+HeaderLen > 65535 {
		return ErrMsgTooBig
	}
	if p.LPort == 0 {
		if err := u.Table.Bind(p, p.LAddr, 0); err != nil {
			return err
		}
	}
	length := HeaderLen + len(data)
	src := p.LAddr
	if src.IsUnspecified() {
		// sendto on a socket with no local address: in_pcbconnect's
		// choice for this one datagram.  A connected socket fixed its
		// source in Connect.
		src = pcb.LocalFor(u.v4, u.v6, faddr)
	}

	if v4dst, isV4 := faddr.MappedV4(); isV4 || (p.Family == inet.AFInet) {
		// IPv4 path: ip_output is called instead of ipv6_output.
		if !isV4 {
			return pcb.ErrFamilyMismatch
		}
		src4, _ := src.MappedV4()
		var pkt *mbuf.Mbuf
		if u.SumTx {
			pkt = buildWireSum(p.LPort, fport, data,
				inet.PseudoHeader4(src4, v4dst, uint16(length), proto.UDP))
		} else {
			pkt, _ = buildWire(p.LPort, fport, data)
		}
		pkt.Hdr().Socket = p.Socket
		u.Stats.OutDatagrams.Inc()
		return u.v4.Output(pkt, src4, v4dst, proto.UDP, ipv4.OutputOpts{RouteCache: &p.Route})
	}

	// IPv6 path: checksum mandatory — "necessary to provide integrity
	// protection of the source and destination address that is not
	// provided by IPv6, which lacks an IP header checksum" (§5.2).
	pkt := buildWireSum(p.LPort, fport, data,
		inet.PseudoHeader6(src, faddr, uint32(length), proto.UDP))
	pkt.Hdr().Socket = p.Socket
	u.Stats.OutDatagrams.Inc()
	return u.v6.Output(pkt, src, faddr, proto.UDP, ipv6.OutputOpts{
		FlowInfo: p.FlowInfo, HopLimit: p.HopLimit, Socket: p.Socket,
		RouteCache: &p.Route, SecCache: &p.Sec,
	})
}

// input is udp_input: "Incoming UDP datagrams, regardless of whether
// they are transported over IPv4 or IPv6, are processed by
// udp_input()", with a local discriminator selecting version-specific
// code paths.
func (u *UDP) input(pkt *mbuf.Mbuf, meta proto.Meta) {
	// input is the packet's terminal consumer: every path below either
	// drops it or copies its bytes onward (Deliver copies into the
	// socket buffer, portUnreach builds a fresh packet), so the pooled
	// slab goes back to its pool here.
	defer pkt.Free()
	isV4 := meta.Family == inet.AFInet // the §5.2 "local variable"
	b := pkt.Bytes()
	if len(b) < HeaderLen {
		u.Stats.InErrors.Inc()
		u.Drops.DropPkt(stat.RUDPShort, b)
		return
	}
	sport := uint16(b[0])<<8 | uint16(b[1])
	dport := uint16(b[2])<<8 | uint16(b[3])
	length := int(b[4])<<8 | int(b[5])
	ck := uint16(b[6])<<8 | uint16(b[7])
	if length < HeaderLen || length > len(b) {
		u.Stats.InErrors.Inc()
		u.Drops.DropPkt(stat.RUDPShort, b)
		return
	}
	b = b[:length]

	if isV4 {
		if ck == 0 {
			u.Stats.NoChecksum.Inc() // optional on v4
		} else if inet.TransportChecksum4(meta.Src4, meta.Dst4, proto.UDP, b) != 0 {
			u.Stats.BadChecksums.Inc()
			u.Drops.DropPkt(stat.RUDPBadSum, b)
			return
		}
	} else {
		if ck == 0 {
			u.Stats.MissingSum6.Inc() // forbidden on v6
			u.Drops.DropPkt(stat.RUDPNoSum6, b)
			return
		}
		if inet.TransportChecksum6(meta.Src6, meta.Dst6, proto.UDP, b) != 0 {
			u.Stats.BadChecksums.Inc()
			u.Drops.DropPkt(stat.RUDPBadSum, b)
			return
		}
	}

	src := meta.SrcIs6()
	dst := meta.DstIs6()
	p := u.Table.Lookup(dst, dport, src, sport, isV4)
	if p == nil {
		u.Stats.InNoPorts.Inc()
		u.Drops.DropPkt(stat.RUDPNoPort, b)
		u.portUnreach(pkt, &meta, b)
		return
	}
	// The input security policy check (§5.2): "If an incoming packet
	// should not be delivered for security policy reasons, then it is
	// silently dropped."
	switch {
	case u.InputPolicyPort != nil:
		if !u.InputPolicyPort(pkt, dst, p.Socket, dport) {
			u.Stats.InPolicyDrops.Inc()
			u.Drops.DropPkt(stat.RUDPPolicyDrop, b)
			return
		}
	case u.InputPolicy != nil:
		if !u.InputPolicy(pkt, dst, p.Socket) {
			u.Stats.InPolicyDrops.Inc()
			u.Drops.DropPkt(stat.RUDPPolicyDrop, b)
			return
		}
	}
	if isV4 && p.Family == inet.AFInet6 {
		u.Stats.InV4ToV6.Inc() // §5.2's special case, delivered mapped
	}
	u.Stats.InDatagrams.Inc()
	if u.Deliver != nil {
		u.Deliver(p, b[HeaderLen:], src, sport, meta)
	}
}

// portUnreach rebuilds the offending datagram's IP header in front of
// udpHdr, the UDP datagram, and asks the IP layer for a port
// unreachable about it.  The rebuilt packet carries the received
// flags, so the layer's link-layer broadcast and multicast rule sees
// how the datagram arrived.
func (u *UDP) portUnreach(pkt *mbuf.Mbuf, meta *proto.Meta, udpHdr []byte) {
	var orig *mbuf.Mbuf
	if meta.Family == inet.AFInet {
		oh := ipv4.Header{
			TotalLen: ipv4.HeaderLen + len(udpHdr), TTL: meta.Hops,
			Proto: proto.UDP, Src: meta.Src4, Dst: meta.Dst4,
		}
		orig = mbuf.New(append(oh.Marshal(nil), udpHdr[:min(len(udpHdr), 8)]...))
	} else {
		oh := ipv6.Header{
			PayloadLen: len(udpHdr), NextHdr: proto.UDP, HopLimit: meta.Hops,
			Src: meta.Src6, Dst: meta.Dst6,
		}
		orig = mbuf.New(append(oh.Marshal(nil), udpHdr...))
	}
	orig.Hdr().Flags = pkt.Hdr().Flags
	if meta.Family == inet.AFInet {
		u.v4.Error(ipv4.IcmpUnreach, ipv4.CodePortUnreach, 0, orig, meta.RcvIf)
	} else {
		u.v6.Error(ipv6.ErrDstUnreach, 4 /* port */, 0, orig, meta.RcvIf)
	}
	orig.Free()
}

// ctlInput is udp_ctlinput: route ICMP errors to the owning sockets.
func (u *UDP) ctlInput(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
	if u.AllowError != nil && !u.AllowError() {
		return // §5.1: suppressed by the input security policy
	}
	if len(contents) < 4 {
		return
	}
	sport := uint16(contents[0])<<8 | uint16(contents[1])
	dport := uint16(contents[2])<<8 | uint16(contents[3])
	faddr := meta.DstIs6()
	u.Table.Notify(faddr, dport, func(p *pcb.PCB) {
		if p.LPort != sport && sport != 0 {
			return
		}
		if u.Notify != nil {
			u.Notify(p, kind, mtu)
		}
	})
}

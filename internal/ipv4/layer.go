package ipv4

import (
	"errors"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// Stats counts IPv4 protocol events (netstat's ipstat).
type Stats struct {
	ip.Stats
	FragsCreated stat.Counter
	ArpRequests  stat.Counter
	ArpReplies   stat.Counter
	ArpBad       stat.Counter
}

// Output errors.
var (
	ErrNoRoute = errors.New("ipv4: no route to host")
	ErrMsgSize = errors.New("ipv4: message too long (DF set)")
	ErrReject  = errors.New("ipv4: host is unreachable (rejected)")
)

// icmpQuote is how much of an offending packet, beyond its IP header,
// an ICMP error quotes.  RFC 792's 8 bytes are enough to identify a
// transport flow but not to translate errors about encapsulated
// packets: a tunnel head turning an outer frag-needed into an inner
// Packet Too Big needs the full inner IP header (and ideally its
// transport ports) from the quote.  RFC 1812 §4.3.2.3 allows quoting
// as much as fits in 576 bytes; 128 covers outer + inner + transport.
// maxHeaderLen is the longest header, options included, it follows.
const (
	icmpQuote    = 128
	maxHeaderLen = 60
)

// OutputOpts carries the per-packet options of ip_output.
type OutputOpts struct {
	TTL uint8 // 0 means the layer default
	TOS uint8
	DF  bool
	// RouteCache, when non-nil, is the caller's held route (BSD's
	// ro->ro_rt): Output validates it with one generation compare and
	// refills it on miss, skipping the radix walk for repeat sends.
	RouteCache *route.Cache
}

// base is the family-independent half of the layer.
type base = ip.Layer[inet.IP4]

// Layer is the IPv4 protocol instance of one stack.
type Layer struct {
	*base

	// DefaultTTL is used when OutputOpts.TTL is zero.
	DefaultTTL uint8

	Stats Stats
}

// NewLayer creates an IPv4 layer over the given routing table.
func NewLayer(rt *route.Table) *Layer {
	l := &Layer{DefaultTTL: 64}
	l.base = ip.NewLayer(rt, ip.Family[inet.IP4]{
		AF:         inet.AFInet,
		EtherType:  netif.EtherTypeIPv4,
		ErrNoRoute: ErrNoRoute,
		ErrMsgSize: ErrMsgSize,
		LocalAddrs: func(ifp *netif.Interface, add func(inet.IP4)) {
			for _, a := range ifp.Addrs4() {
				add(a.Addr)
			}
		},
		LinkDst:             linkDst,
		Solicit:             l.arpSolicit,
		Neighbor:            arpTiming,
		MaxDatagram:         65535,
		Stats:               &l.Stats.Stats,
		ReasmFailReason:     stat.RV4ReasmFail,
		ReasmOverflowReason: stat.RV4ReasmOverflow,
		ReasmTimeoutReason:  stat.RV4ReasmTimeout,
		NoRouteReason:       stat.RV4NoRoute,
		HoldFullReason:      stat.RArpQueueFull,
		ResolveFailReason:   stat.RArpResolveFailed,
		ICMP: ip.ICMPFamily[inet.IP4]{
			Offender: offender,
			MaxQuote: maxHeaderLen + icmpQuote,
			Send: func(typ, code uint8, word uint32, data []byte, dst inet.IP4, _ string) {
				l.sendICMP(typ, code, word, data, inet.IP4{}, dst)
			},
			RateLimitedReason: stat.RICMP4RateLimited,
		},
	})
	return l
}

// linkDst maps multicast and broadcast destinations to their Ethernet
// addresses.
func linkDst(dst inet.IP4) (inet.LinkAddr, bool) {
	switch {
	case dst.IsMulticast():
		return inet.EthernetMulticast4(dst), true
	case dst.IsBroadcast():
		return netif.Broadcast, true
	}
	return inet.LinkAddr{}, false
}

// SourceFor picks the source address the stack would use toward dst.
func (l *Layer) SourceFor(dst inet.IP4) (inet.IP4, bool) {
	if l.IsLocal(dst) {
		return dst, false // let Output pick; signal local
	}
	rt, ok := l.Routes().Lookup(inet.AFInet, dst[:])
	if !ok {
		return inet.IP4{}, false
	}
	ifp := l.Interface(rt.IfName)
	if ifp == nil {
		return inet.IP4{}, false
	}
	return srcAddrOn(ifp)
}

// Output implements ip_output: build the header, route, fragment as
// needed, resolve the link-layer address, and transmit.
func (l *Layer) Output(pkt *mbuf.Mbuf, src, dst inet.IP4, p uint8, opts OutputOpts) error {
	l.Stats.OutRequests.Inc()
	ttl := opts.TTL
	if ttl == 0 {
		ttl = l.DefaultTTL
	}

	// Local destinations loop through the loopback interface, as BSD
	// routes them via lo0.
	if l.IsLocal(dst) {
		if src.IsUnspecified() {
			src = dst
		}
		h := Header{TotalLen: HeaderLen + pkt.Len(), ID: uint16(l.NextID()), TTL: ttl, TOS: opts.TOS, Proto: p, Src: src, Dst: dst}
		h.Marshal(pkt.PrependN(HeaderLen)[:0])
		return l.Loop(pkt)
	}

	rt, ok := l.Routes().LookupCached(inet.AFInet, dst[:], opts.RouteCache)
	if !ok {
		return l.NoRoute(pkt, ErrNoRoute)
	}
	if l.Rejected(rt) {
		return l.NoRoute(pkt, ErrReject)
	}
	ifp := l.Interface(rt.IfName)
	if ifp == nil {
		return l.NoRoute(pkt, ErrNoRoute)
	}
	if src.IsUnspecified() {
		s, ok := srcAddrOn(ifp)
		if !ok {
			pkt.Free()
			return ErrNoRoute
		}
		src = s
	}
	mtu := l.PathMTU(ifp, rt)

	h := Header{TotalLen: HeaderLen + pkt.Len(), ID: uint16(l.NextID()), TTL: ttl, TOS: opts.TOS, DF: opts.DF, Proto: p, Src: src, Dst: dst}
	if h.TotalLen > mtu {
		if opts.DF {
			pkt.Free()
			return ErrMsgSize
		}
		return l.fragment(ifp, rt, &h, pkt, mtu)
	}
	h.Marshal(pkt.PrependN(HeaderLen)[:0])
	return l.Transmit(ifp, rt, dst, pkt)
}

// fragment splits pkt (payload only; h not yet prepended) into
// MTU-sized fragments — the router/source fragmentation that IPv6
// abolished in favor of PMTU discovery (§2.2).
func (l *Layer) fragment(ifp *netif.Interface, rt *route.Entry, h *Header, pkt *mbuf.Mbuf, mtu int) error {
	return l.Fragment(pkt, (mtu-h.HdrLen())&^7, func(fm *mbuf.Mbuf, off int, more bool) error {
		fh := *h
		fh.FragOff, fh.MF, fh.TotalLen = off, more, h.HdrLen()+fm.Len()
		fh.Marshal(fm.PrependN(fh.HdrLen())[:0])
		l.Stats.FragsCreated.Inc()
		return l.Transmit(ifp, rt, h.Dst, fm)
	})
}

// Input is ipintr: called by the stack for each received IPv4 packet.
func (l *Layer) Input(ifp *netif.Interface, pkt *mbuf.Mbuf) {
	l.Stats.InReceives.Inc()
	b := pkt.PullUp(HeaderLen)
	if b == nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, pkt.Bytes())
		pkt.Free()
		return
	}
	hl := int(b[0]&0xf) * 4
	if b = pkt.PullUp(hl); b == nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, pkt.Bytes())
		pkt.Free()
		return
	}
	h, _, err := Parse(b)
	if err != nil {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, b)
		pkt.Free()
		return
	}
	if pkt.Len() < h.TotalLen {
		l.Stats.InHdrErrors.Inc()
		l.Drops.DropPkt(stat.RV4BadHeader, b)
		pkt.Free()
		return
	}
	// Trim link-layer padding.
	if pkt.Len() > h.TotalLen {
		pkt.Adj(h.TotalLen - pkt.Len())
	}

	if l.IsLocal(h.Dst) || h.Dst.IsMulticast() || h.Dst.IsBroadcast() {
		l.deliverLocal(ifp, &h, pkt)
		return
	}
	if l.Forwarding {
		l.forward(&h, pkt)
		return
	}
	l.Stats.InAddrErrors.Inc()
	l.Drops.DropPkt(stat.RV4NotForUs, pkt.Bytes())
	pkt.Free()
}

// deliverLocal reassembles fragments and runs the protocol switch.  A
// reassembled datagram carries fragment zero's header, rewritten for
// the whole datagram, so an error about it quotes that header.
func (l *Layer) deliverLocal(ifp *netif.Interface, h *Header, pkt *mbuf.Mbuf) {
	if h.MF || h.FragOff != 0 {
		l.Stats.FragsReceived.Inc()
		if h.MF && (pkt.Len()-h.HdrLen())%8 != 0 {
			// A fragment that is not the last must be a multiple of 8
			// bytes long, or its successor's offset cannot meet its
			// end: discarded, as FreeBSD's ip_reass does.
			l.Stats.ReasmFails.Inc()
			l.Drops.DropPkt(stat.RV4FragUnaligned, pkt.Bytes())
			pkt.Free()
			return
		}
		key := ip.FragKey[inet.IP4]{Src: h.Src, Dst: h.Dst, ID: uint32(h.ID), Proto: h.Proto}
		var hl int
		if pkt, hl = l.Reassemble(ifp, key, pkt, h.HdrLen(), h.FragOff, h.MF); pkt == nil {
			return
		}
		*h = reassembled(pkt, hl)
	}
	in := l.Proto(h.Proto)
	if in == nil {
		l.Stats.InUnknownProt.Inc()
		l.Drops.DropPkt(stat.RV4UnknownProt, pkt.Bytes())
		l.Error(IcmpUnreach, CodeProtoUnreach, 0, pkt, ifp.Name)
		pkt.Free()
		return
	}
	pkt.Adj(h.HdrLen())
	l.Stats.InDelivers.Inc()
	in(pkt, proto.Meta{
		Family: inet.AFInet,
		Src4:   h.Src, Dst4: h.Dst,
		Proto: h.Proto, Hops: h.TTL, RcvIf: ifp.Name,
	})
}

// reassembled rewrites fragment zero's header, the first hl bytes of
// a reassembled datagram, for the whole datagram, as ip_reass does:
// the total length covers it, MF is clear and the checksum is new.
func reassembled(pkt *mbuf.Mbuf, hl int) Header {
	b := pkt.PullUp(hl)
	b[2], b[3] = byte(pkt.Len()>>8), byte(pkt.Len())
	b[6] &^= flagMF >> 8
	b[10], b[11] = 0, 0
	ck := inet.Checksum(b)
	b[10], b[11] = byte(ck>>8), byte(ck)
	pkt.Hdr().Flags &^= mbuf.MFrag
	h, _, _ := Parse(b)
	return h
}

// forward implements the router path: TTL decrement, re-checksum,
// fragmentation if needed (IPv4 routers fragment; §2.1 counts this
// among the work IPv6 routers shed).
func (l *Layer) forward(h *Header, pkt *mbuf.Mbuf) {
	if h.TTL <= 1 {
		l.Drops.DropPkt(stat.RV4TTLExceeded, pkt.Bytes())
		l.Error(IcmpTimeExceeded, 0, 0, pkt, pkt.Hdr().RcvIf)
		pkt.Free()
		return
	}
	hop := l.ForwardRoute(h.Dst[:])
	if hop.Ifp == nil {
		l.Stats.OutNoRoute.Inc()
		l.Drops.DropPkt(stat.RV4NoRoute, pkt.Bytes())
		if hop.Route == nil {
			l.Error(IcmpUnreach, CodeHostUnreach, 0, pkt, pkt.Hdr().RcvIf)
		}
		pkt.Free()
		return
	}
	h.TTL--
	l.Stats.Forwarded.Inc()

	mtu := hop.PathMTU()
	if pkt.Len() > mtu { // pkt still carries the IP header here
		if h.DF {
			l.Error(IcmpUnreach, CodeFragNeeded, uint32(mtu), pkt, pkt.Hdr().RcvIf)
			pkt.Free()
			return
		}
		pkt.Adj(h.HdrLen())
		if err := l.fragment(hop.Ifp, hop.Route, h, pkt, mtu); err != nil {
			l.Stats.OutDrops.Inc()
		}
		return
	}
	// Common (non-fragmenting) case: only the TTL changed, so rewrite
	// it in the received header bytes and update the checksum
	// incrementally (RFC 1624) instead of stripping and re-marshalling
	// the header — the input path already verified the old sum.
	hb := pkt.PullUp(h.HdrLen())
	oldWord := uint16(hb[8])<<8 | uint16(hb[9]) // TTL, protocol share a column
	hb[8] = h.TTL
	ck := uint16(hb[10])<<8 | uint16(hb[11])
	ck = inet.UpdateChecksum16(ck, oldWord, uint16(hb[8])<<8|uint16(hb[9]))
	hb[10], hb[11] = byte(ck>>8), byte(ck)
	if err := l.Forward(&hop, h.Dst, pkt); err != nil {
		l.Stats.OutDrops.Inc()
	}
}

// SlowTimo drives timeouts: reassembly expiry and ARP retries. The
// stack calls it every 500ms, as BSD's pr_slowtimo runs. Expired
// reassemblies whose first fragment arrived elicit Time Exceeded code
// 1, as ip_freef's caller does in BSD, quoting that fragment.
func (l *Layer) SlowTimo(now time.Time) {
	l.ExpireReasm(now, func(first *mbuf.Mbuf) {
		l.Error(IcmpTimeExceeded, 1, 0, first, first.Hdr().RcvIf)
	})
	l.NeighborTimer(now)
}

package ip

import (
	"encoding/binary"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/stat"
)

// DefaultErrPPS bounds the ICMP errors one layer originates per
// second: a token bucket off the routing table's clock, so a
// corruption, loss or TTL storm is not amplified 1:1 into an error
// storm (RFC 1812 §4.3.2.8, RFC 1885 §2.4(f)).
const DefaultErrPPS = 100

// ICMPStats counts the messages an ICMP module sends; both families'
// ICMP counters embed it.
type ICMPStats struct {
	OutMsgs     stat.Counter
	OutErrors   stat.Counter
	RateLimited stat.Counter // errors the token bucket refused
}

// Offender is what a family reads from the leading bytes of a packet
// an error is about.
type Offender[A Addr] struct {
	Src   A
	Group bool // sent to a multicast or broadcast address
	Error bool // an ICMP error itself
	Quote int  // how many of its bytes, from its IP header on, an error quotes
}

// ICMPFamily is a family's half of ICMP error origination, the part
// Error cannot share.
type ICMPFamily[A Addr] struct {
	// Offender parses b, the first MaxQuote bytes (or fewer) of an
	// offending packet.  ok is false when they do not parse or the
	// family never answers such a packet (IPv4: a fragment other than
	// the first).
	Offender func(b []byte) (o Offender[A], ok bool)
	MaxQuote int
	// GroupExempt reports whether an error of typ and code may answer
	// a packet sent to a group or received as a link-layer broadcast
	// or multicast (IPv6: Packet Too Big and the unknown-option
	// Parameter Problem); nil exempts none.
	GroupExempt func(typ, code uint8) bool
	// Send builds an error with BuildICMP, over the family's checksum
	// pseudo-header, and outputs it to dst from the source the family
	// picks, out of rcvIf when it is set.
	Send func(typ, code uint8, word uint32, data []byte, dst A, rcvIf string)
	// RateLimitedReason is charged for an error the bucket refuses.
	RateLimitedReason stat.Reason
}

// Error originates an ICMP error of typ and code about orig, a
// received packet from its IP header on that arrived on rcvIf; word is
// the message's 32-bit field (a next-hop MTU, a pointer, or 0).  It is
// the one place that decides whether an error may go, by RFC 1122
// §3.2.2 and RFC 1885 §2.4(e): never about a packet from an
// unspecified or multicast source, one sent to a multicast or
// broadcast address or received as a link-layer broadcast or
// multicast (unless the family exempts typ and code), or an ICMP
// error; and no more than DefaultErrPPS a second.  A layer no ICMP
// module has attached to sends none.  The error quotes as much of orig
// as the family allows; orig stays the caller's.
func (l *Layer[A]) Error(typ, code uint8, word uint32, orig *mbuf.Mbuf, rcvIf string) {
	ic, st := &l.fam.ICMP, l.ICMPStats
	if st == nil {
		return
	}
	b := orig.PullUp(min(orig.Len(), ic.MaxQuote))
	o, ok := ic.Offender(b)
	if !ok || o.Error || o.Src.IsUnspecified() || o.Src.IsMulticast() {
		return
	}
	linkGroup := orig.Hdr().Flags&(mbuf.MBcast|mbuf.MMcast) != 0
	if (o.Group || linkGroup) && (ic.GroupExempt == nil || !ic.GroupExempt(typ, code)) {
		return
	}
	if !l.errAllow() {
		st.RateLimited.Inc()
		l.Drops.DropNote(ic.RateLimitedReason, o.Src.String())
		return
	}
	st.OutMsgs.Inc()
	st.OutErrors.Inc()
	ic.Send(typ, code, word, b[:min(len(b), o.Quote)], o.Src, rcvIf)
}

// errAllow takes one token from the layer's error bucket, which starts
// full and refills at DefaultErrPPS tokens a second.
func (l *Layer[A]) errAllow() bool {
	const rate = float64(DefaultErrPPS)
	now := l.routes.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.errLast.IsZero() {
		l.errTokens = rate
	} else {
		l.errTokens = min(l.errTokens+now.Sub(l.errLast).Seconds()*rate, rate)
	}
	l.errLast = now
	if l.errTokens < 1 {
		return false
	}
	l.errTokens--
	return true
}

// BuildICMP writes an ICMP message into a pooled mbuf: type, code,
// checksum, the 32-bit word, then a copy of data, summed as it is
// copied.  sum is the unfolded sum of the pseudo-header the checksum
// covers: 0 for ICMPv4, the IPv6 pseudo-header of 8+len(data) bytes
// for ICMPv6 (§4).  The IP header goes into the slab's headroom on
// output.
func BuildICMP(typ, code uint8, word uint32, data []byte, sum uint32) *mbuf.Mbuf {
	pkt := mbuf.Get(8 + len(data))
	b := pkt.Bytes()
	b[0], b[1], b[2], b[3] = typ, code, 0, 0
	binary.BigEndian.PutUint32(b[4:], word)
	sum = inet.SumCopy(inet.Sum(sum, b[:8]), b[8:], data)
	binary.BigEndian.PutUint16(b[2:], inet.Fold(sum))
	return pkt
}

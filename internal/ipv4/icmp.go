package ipv4

import (
	"encoding/binary"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
)

// ICMPv4 message types and codes used by the stack.
const (
	IcmpEchoReply    = 0
	IcmpUnreach      = 3
	IcmpEcho         = 8
	IcmpTimeExceeded = 11
	IcmpParamProb    = 12

	CodeNetUnreach   = 0
	CodeHostUnreach  = 1
	CodeProtoUnreach = 2
	CodePortUnreach  = 3
	CodeFragNeeded   = 4
)

// IcmpStats counts ICMPv4 events.
type IcmpStats struct {
	ip.ICMPStats
	InMsgs      stat.Counter
	InErrors    stat.Counter
	InEchos     stat.Counter
	InEchoReps  stat.Counter
	OutEchoReps stat.Counter
}

// EchoHandler receives echo replies (for ping).
type EchoHandler func(src inet.IP4, id, seq uint16, payload []byte)

// AttachICMP registers the ICMPv4 protocol on the layer and returns a
// control handle for sending echos.
func AttachICMP(l *Layer) *ICMP {
	ic := &ICMP{l: l}
	l.Register(proto.ICMP, ic.input, nil)
	l.ICMPStats = &ic.Stats.ICMPStats
	return ic
}

// ICMP is the ICMPv4 protocol instance.
type ICMP struct {
	l      *Layer
	Stats  IcmpStats
	OnEcho EchoHandler
}

// SendEcho emits an echo request.
func (ic *ICMP) SendEcho(dst inet.IP4, id, seq uint16, payload []byte) error {
	ic.Stats.OutMsgs.Inc()
	return ic.l.sendICMP(IcmpEcho, 0, uint32(id)<<16|uint32(seq), payload, inet.IP4{}, dst)
}

// sendICMP sends an ICMP message; Output picks an unspecified src.
func (l *Layer) sendICMP(typ, code uint8, word uint32, data []byte, src, dst inet.IP4) error {
	return l.Output(ip.BuildICMP(typ, code, word, data, 0), src, dst, proto.ICMP, OutputOpts{})
}

// offender is the IPv4 half of ip.Layer.Error's parse: no error
// answers a fragment other than the first (RFC 1122 §3.2.2), and any
// ICMP message but an echo or echo reply counts as an error.
func offender(b []byte) (o ip.Offender[inet.IP4], ok bool) {
	h, hl, err := Parse(b)
	if err != nil || h.FragOff != 0 {
		return o, false
	}
	o.Src, o.Group, o.Quote = h.Src, h.Dst.IsMulticast() || h.Dst.IsBroadcast(), hl+icmpQuote
	if h.Proto == proto.ICMP && len(b) > hl {
		o.Error = b[hl] != IcmpEcho && b[hl] != IcmpEchoReply
	}
	return o, true
}

// input is the ICMPv4 protocol-switch entry.  It is the packet's
// terminal consumer: replies and callbacks below copy what they keep,
// so the buffer goes back to the pool here.
func (ic *ICMP) input(pkt *mbuf.Mbuf, meta proto.Meta) {
	defer pkt.Free()
	b := pkt.Bytes()
	if len(b) < 8 || inet.Checksum(b) != 0 {
		ic.Stats.InErrors.Inc()
		return
	}
	ic.Stats.InMsgs.Inc()
	typ, code := b[0], b[1]
	switch typ {
	case IcmpEcho:
		ic.Stats.InEchos.Inc()
		ic.Stats.OutEchoReps.Inc()
		ic.Stats.OutMsgs.Inc()
		ic.l.sendICMP(IcmpEchoReply, 0, binary.BigEndian.Uint32(b[4:]), b[8:], meta.Dst4, meta.Src4)
	case IcmpEchoReply:
		ic.Stats.InEchoReps.Inc()
		if ic.OnEcho != nil {
			id := uint16(b[4])<<8 | uint16(b[5])
			seq := uint16(b[6])<<8 | uint16(b[7])
			ic.OnEcho(meta.Src4, id, seq, append([]byte(nil), b[8:]...))
		}
	case IcmpUnreach, IcmpTimeExceeded, IcmpParamProb:
		ic.ctlDispatch(typ, code, b)
	}
}

// ctlDispatch decodes the embedded offending packet and notifies the
// owning transport via its ctlinput entry.
func (ic *ICMP) ctlDispatch(typ, code uint8, b []byte) {
	inner := b[8:]
	oh, hl, err := Parse(inner)
	if err != nil {
		ic.Stats.InErrors.Inc()
		return
	}
	var kind proto.CtlType
	mtu := 0
	switch {
	case typ == IcmpUnreach && code == CodePortUnreach:
		kind = proto.CtlPortUnreach
	case typ == IcmpUnreach && code == CodeFragNeeded:
		kind = proto.CtlMsgSize
		mtu = int(b[6])<<8 | int(b[7])
	case typ == IcmpUnreach:
		kind = proto.CtlUnreach
	case typ == IcmpTimeExceeded:
		kind = proto.CtlTimeExceed
	default:
		kind = proto.CtlParamProb
	}
	meta := &proto.Meta{Family: inet.AFInet, Src4: oh.Src, Dst4: oh.Dst, Proto: oh.Proto}
	if ctl := ic.l.Ctl(oh.Proto); ctl != nil {
		ctl(kind, meta, inner[hl:], mtu)
	}
}

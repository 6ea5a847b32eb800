package ipv4

import (
	"bsd6/internal/inet"
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
	InMsgs      stat.Counter
	InErrors    stat.Counter
	InEchos     stat.Counter
	InEchoReps  stat.Counter
	OutMsgs     stat.Counter
	OutEchoReps stat.Counter
	OutErrors   stat.Counter
}

// EchoHandler receives echo replies (for ping); set by the raw socket
// layer.
type EchoHandler func(src inet.IP4, id, seq uint16, payload []byte)

// AttachICMP registers the ICMPv4 protocol on the layer and returns a
// control handle for sending echos.
func AttachICMP(l *Layer) *ICMP {
	ic := &ICMP{l: l}
	l.Register(proto.ICMP, ic.input, nil)
	l.icmp = ic
	return ic
}

// ICMP is the ICMPv4 protocol instance.
type ICMP struct {
	l       *Layer
	Stats   IcmpStats
	OnEcho  EchoHandler
	OnError func(kind proto.CtlType, dst inet.IP4) // observer for tests
}

func icmpMarshal(typ, code uint8, rest uint32, payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	b[0], b[1] = typ, code
	b[4] = byte(rest >> 24)
	b[5] = byte(rest >> 16)
	b[6] = byte(rest >> 8)
	b[7] = byte(rest)
	copy(b[8:], payload)
	ck := inet.Checksum(b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	return b
}

// SendEcho emits an echo request.
func (ic *ICMP) SendEcho(dst inet.IP4, id, seq uint16, payload []byte) error {
	ic.Stats.OutMsgs.Inc()
	m := mbuf.New(icmpMarshal(IcmpEcho, 0, uint32(id)<<16|uint32(seq), payload))
	return ic.l.Output(m, inet.IP4{}, dst, proto.ICMP, OutputOpts{})
}

// SendError emits an ICMP error about a received packet whose leading
// bytes (IP header + 8) are in origCtx. mtu is the next-hop MTU for
// frag-needed. Errors about errors, multicasts, and fragments other
// than the first are suppressed per RFC 1122.
func (l *Layer) SendError(typ, code uint8, mtu int, origCtx []byte) {
	if len(origCtx) < HeaderLen {
		return
	}
	oh, _, err := Parse(origCtx)
	if err != nil || oh.Src.IsMulticast() || oh.Src.IsUnspecified() || oh.FragOff != 0 {
		return
	}
	if oh.Proto == proto.ICMP && len(origCtx) >= oh.HdrLen()+1 {
		t := origCtx[oh.HdrLen()]
		if t != IcmpEcho && t != IcmpEchoReply {
			return // never answer an error with an error
		}
	}
	var rest uint32
	if typ == IcmpUnreach && code == CodeFragNeeded {
		rest = uint32(mtu) & 0xffff
	}
	if l.icmp != nil {
		l.icmp.Stats.OutErrors.Inc()
	}
	m := mbuf.New(icmpMarshal(typ, code, rest, origCtx))
	l.Output(m, inet.IP4{}, oh.Src, proto.ICMP, OutputOpts{})
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
		rest := uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
		m := mbuf.New(icmpMarshal(IcmpEchoReply, 0, rest, b[8:]))
		ic.l.Output(m, meta.Dst4, meta.Src4, proto.ICMP, OutputOpts{})
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
	if ic.OnError != nil {
		ic.OnError(kind, oh.Dst)
	}
	meta := &proto.Meta{Family: inet.AFInet, Src4: oh.Src, Dst4: oh.Dst, Proto: oh.Proto}
	if ctl := ic.l.Ctl(oh.Proto); ctl != nil {
		ctl(kind, meta, inner[hl:], mtu)
	}
}

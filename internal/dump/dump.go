// Package dump decodes frames from the simulated wire into
// tcpdump-style one-liners.  Attach Sniff to a Hub to watch a link:
//
//	stop := dump.Sniff(hub, os.Stdout)
//	defer stop()
//
// The decoder understands every format this stack emits: ARP, IPv4
// (ICMPv4/UDP/TCP, fragments), and IPv6 with its extension chain —
// hop-by-hop, routing, fragment, AH — plus ESP (opaque beyond the
// SPI), and the full ICMPv6 message set including Neighbor/Router
// Discovery and the group membership messages.
package dump

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
)

// Frame renders one link-layer frame.
func Frame(fr netif.Frame) string {
	b := fr.Payload.CopyBytes()
	var body string
	switch fr.EtherType {
	case ipv4.EtherTypeARP:
		body = arp(b)
	case netif.EtherTypeIPv4:
		body = v4(b)
	case netif.EtherTypeIPv6:
		body = v6(b)
	default:
		body = fmt.Sprintf("ethertype %#04x, %d bytes", fr.EtherType, len(b))
	}
	return fmt.Sprintf("%s > %s: %s", fr.Src, fr.Dst, body)
}

// IP renders a bare IP packet (no link layer), picking the decoder
// from the version nibble.  The flight-recorder trace ring stores raw
// leading bytes of dropped packets; this is how they become readable.
func IP(b []byte) string {
	if len(b) == 0 {
		return "empty"
	}
	switch b[0] >> 4 {
	case 4:
		return v4(b)
	case 6:
		return v6(b)
	}
	// The link layer drops whole frame payloads, which may be ARP
	// (hardware type 1, protocol 0x0800) rather than IP.
	if len(b) >= 28 && b[0] == 0 && b[1] == 1 && b[2] == 0x08 && b[3] == 0x00 {
		return arp(b)
	}
	return fmt.Sprintf("unknown IP version %d, %d bytes", b[0]>>4, len(b))
}

// The flight-recorder trace ring also stores transport-level bytes
// when a drop happens above the IP layer; these exported decoders let
// the renderer pick the right one by drop reason.

// UDPSeg renders a UDP datagram starting at its header.
func UDPSeg(b []byte) string { return udp(b) }

// TCPSeg renders a TCP segment starting at its header.
func TCPSeg(b []byte) string { return tcp(b) }

// ICMP6Msg renders an ICMPv6 message starting at its type byte.
func ICMP6Msg(b []byte) string { return icmp6(b) }

// ARPPkt renders an ARP packet.
func ARPPkt(b []byte) string { return arp(b) }

// Sniff prints every frame crossing the hub to w until stop is called.
func Sniff(hub *netif.Hub, w io.Writer) (stop func()) {
	var mu sync.Mutex
	done := false
	hub.Capture = func(fr netif.Frame) {
		mu.Lock()
		defer mu.Unlock()
		if !done {
			fmt.Fprintln(w, Frame(fr))
		}
	}
	return func() {
		mu.Lock()
		done = true
		mu.Unlock()
	}
}

func arp(b []byte) string {
	if len(b) < 28 {
		return "ARP, truncated"
	}
	op := uint16(b[6])<<8 | uint16(b[7])
	var spa, tpa inet.IP4
	copy(spa[:], b[14:18])
	copy(tpa[:], b[24:28])
	if op == 1 {
		return fmt.Sprintf("ARP, Request who-has %s tell %s", tpa, spa)
	}
	var sha inet.LinkAddr
	copy(sha[:], b[8:14])
	return fmt.Sprintf("ARP, Reply %s is-at %s", spa, sha)
}

func v4(b []byte) string {
	h, hl, err := ipv4.Parse(b)
	if err != nil {
		return "IP, bad header: " + err.Error()
	}
	frag := ""
	if h.MF || h.FragOff != 0 {
		frag = fmt.Sprintf(" frag(off=%d,mf=%v,id=%d)", h.FragOff, h.MF, h.ID)
		if h.FragOff != 0 {
			return fmt.Sprintf("IP %s > %s:%s %s, length %d",
				h.Src, h.Dst, frag, proto.Name(h.Proto), h.TotalLen-hl)
		}
	}
	payload := b[hl:]
	if h.TotalLen < len(b) {
		payload = b[hl:h.TotalLen]
	}
	return fmt.Sprintf("IP %s > %s:%s ttl %d, %s", h.Src, h.Dst, frag, h.TTL, upper(h.Proto, payload, sum4{h.Src, h.Dst}))
}

func v6(b []byte) string {
	h, err := ipv6.Parse(b)
	if err != nil {
		return "IP6, bad header: " + err.Error()
	}
	head := fmt.Sprintf("IP6 %s > %s: hlim %d", h.Src, h.Dst, h.HopLimit)
	if h.FlowInfo != 0 {
		head += fmt.Sprintf(" flow %#x", h.FlowInfo)
	}
	// Walk the extension chain like the receiver would.
	var exts []string
	info, perr := ipv6.Preparse(b, false)
	if perr != nil && info.Truncated {
		return head + " [truncated extension chain]"
	}
	for _, rec := range info.Ext() {
		switch rec.Proto {
		case proto.HopByHop:
			exts = append(exts, "hbh")
		case proto.DstOpts:
			exts = append(exts, "dstopts")
		case proto.Routing:
			if rh, err := ipv6.ParseRouting(b[rec.Offset : rec.Offset+rec.Len]); err == nil {
				exts = append(exts, fmt.Sprintf("rt0[segleft=%d]", rh.SegLeft))
			} else {
				exts = append(exts, "rt0[bad]")
			}
		case proto.Fragment:
			if fh, err := ipv6.ParseFrag(b[rec.Offset : rec.Offset+rec.Len]); err == nil {
				exts = append(exts, fmt.Sprintf("frag[off=%d,mf=%v,id=%#x]", fh.Off, fh.More, fh.ID))
			}
		case proto.AH:
			if rec.Offset+8 <= len(b) {
				spi := uint32(b[rec.Offset+4])<<24 | uint32(b[rec.Offset+5])<<16 |
					uint32(b[rec.Offset+6])<<8 | uint32(b[rec.Offset+7])
				exts = append(exts, fmt.Sprintf("AH(spi=%#x)", spi))
			}
		}
	}
	if len(exts) > 0 {
		head += " [" + strings.Join(exts, " ") + "]"
	}
	// A non-first fragment's content is opaque.
	for _, rec := range info.Ext() {
		if rec.Proto == proto.Fragment {
			if fh, err := ipv6.ParseFrag(b[rec.Offset : rec.Offset+rec.Len]); err == nil && fh.Off != 0 {
				return fmt.Sprintf("%s, %d bytes of %s fragment data", head, len(b)-info.FinalOff, proto.Name(info.Final))
			}
		}
	}
	return head + ", " + upper6(info.Final, b[info.FinalOff:], &h)
}

type sum4 struct{ src, dst inet.IP4 }

func upper(p uint8, b []byte, s sum4) string {
	switch p {
	case proto.ICMP:
		return icmp4(b)
	case proto.UDP:
		return udp(b)
	case proto.TCP:
		return tcp(b)
	}
	return fmt.Sprintf("%s, length %d", proto.Name(p), len(b))
}

func upper6(p uint8, b []byte, h *ipv6.Header) string {
	switch p {
	case proto.ICMPv6:
		return icmp6(b)
	case proto.UDP:
		return udp(b)
	case proto.TCP:
		return tcp(b)
	case proto.ESP:
		if len(b) >= 4 {
			spi := uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
			return fmt.Sprintf("ESP(spi=%#x), length %d", spi, len(b))
		}
		return "ESP, truncated"
	case proto.NoNext:
		return "no next header"
	}
	return fmt.Sprintf("%s, length %d", proto.Name(p), len(b))
}

func udp(b []byte) string {
	if len(b) < 8 {
		return "UDP, truncated"
	}
	sp := uint16(b[0])<<8 | uint16(b[1])
	dp := uint16(b[2])<<8 | uint16(b[3])
	length := int(b[4])<<8 | int(b[5])
	return fmt.Sprintf("UDP %d > %d, length %d", sp, dp, length-8)
}

func tcp(b []byte) string {
	if len(b) < 20 {
		return "TCP, truncated"
	}
	sp := uint16(b[0])<<8 | uint16(b[1])
	dp := uint16(b[2])<<8 | uint16(b[3])
	seq := uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	ack := uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	off := int(b[12]>>4) * 4
	fl := b[13]
	var flags []byte
	for _, x := range []struct {
		bit byte
		ch  byte
	}{{0x02, 'S'}, {0x10, '.'}, {0x01, 'F'}, {0x04, 'R'}, {0x08, 'P'}, {0x20, 'U'}} {
		if fl&x.bit != 0 {
			flags = append(flags, x.ch)
		}
	}
	wnd := uint16(b[14])<<8 | uint16(b[15])
	dlen := len(b) - off
	if off > len(b) {
		dlen = 0
	}
	return fmt.Sprintf("TCP %d > %d Flags [%s] seq %d ack %d win %d, length %d",
		sp, dp, flags, seq, ack, wnd, dlen)
}

func icmp4(b []byte) string {
	if len(b) < 8 {
		return "ICMP, truncated"
	}
	switch b[0] {
	case ipv4.IcmpEcho:
		return fmt.Sprintf("ICMP echo request, id %d, seq %d", uint16(b[4])<<8|uint16(b[5]), uint16(b[6])<<8|uint16(b[7]))
	case ipv4.IcmpEchoReply:
		return fmt.Sprintf("ICMP echo reply, id %d, seq %d", uint16(b[4])<<8|uint16(b[5]), uint16(b[6])<<8|uint16(b[7]))
	case ipv4.IcmpUnreach:
		return fmt.Sprintf("ICMP destination unreachable (code %d)", b[1])
	case ipv4.IcmpTimeExceeded:
		return "ICMP time exceeded"
	}
	return fmt.Sprintf("ICMP type %d code %d", b[0], b[1])
}

func icmp6(b []byte) string {
	if len(b) < 4 {
		return "ICMP6, truncated"
	}
	typ, code := b[0], b[1]
	body := b[4:]
	tgt := func() string {
		if len(body) >= 20 {
			var a inet.IP6
			copy(a[:], body[4:20])
			return a.String()
		}
		return "?"
	}
	switch typ {
	case 1:
		return fmt.Sprintf("ICMP6 destination unreachable (code %d)", code)
	case 2:
		if len(body) >= 4 {
			mtu := uint32(body[0])<<24 | uint32(body[1])<<16 | uint32(body[2])<<8 | uint32(body[3])
			return fmt.Sprintf("ICMP6 packet too big, mtu %d", mtu)
		}
		return "ICMP6 packet too big"
	case 3:
		return "ICMP6 time exceeded"
	case 4:
		return fmt.Sprintf("ICMP6 parameter problem (code %d)", code)
	case 128:
		return fmt.Sprintf("ICMP6 echo request, id %d, seq %d", u16(body, 0), u16(body, 2))
	case 129:
		return fmt.Sprintf("ICMP6 echo reply, id %d, seq %d", u16(body, 0), u16(body, 2))
	case 130:
		return "ICMP6 group membership query"
	case 131:
		return "ICMP6 group membership report"
	case 132:
		return "ICMP6 group membership terminate"
	case 133:
		return "ICMP6 router solicitation"
	case 134:
		return "ICMP6 router advertisement"
	case 135:
		return fmt.Sprintf("ICMP6 neighbor solicitation, who has %s", tgt())
	case 136:
		return fmt.Sprintf("ICMP6 neighbor advertisement, tgt is %s", tgt())
	}
	return fmt.Sprintf("ICMP6 type %d code %d", typ, code)
}

func u16(b []byte, off int) uint16 {
	if off+2 > len(b) {
		return 0
	}
	return uint16(b[off])<<8 | uint16(b[off+1])
}

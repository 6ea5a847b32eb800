// Package tcp implements TCP over both IP versions (§5.3).
//
// "The TCP protocol also remains unchanged for IPv6, but was modified
// to support both versions of IP."  The paper's specific changes are
// reproduced here:
//
//   - a new member, pf, in the TCP control block stores the protocol
//     family of each session and selects version-specific code paths;
//   - input processing works through a *th pointer to the TCP header,
//     computed separately for IPv4 and IPv6, instead of the old
//     combined struct tcpiphdr *ti (whose ti_len is replaced by the
//     local variable tlen in input);
//   - reassembly is split into tcp_reass / tcpv6_reass, one per
//     overlay type (paper Figures 5 and 6);
//   - tcp_input calls the input security policy function before
//     processing a segment, so under a require-authentication policy
//     an unauthenticated connection attempt silently fails "as if the
//     destination system were not reachable at all".
package tcp

import (
	"fmt"

	"bsd6/internal/inet"
)

// HeaderLen is the TCP header size without options.
const HeaderLen = 20

// TCP flags.
const (
	FlagFIN = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

func flagString(f int) string {
	s := ""
	for _, x := range []struct {
		bit int
		ch  string
	}{{FlagSYN, "S"}, {FlagACK, "."}, {FlagFIN, "F"}, {FlagRST, "R"}, {FlagPSH, "P"}, {FlagURG, "U"}} {
		if f&x.bit != 0 {
			s += x.ch
		}
	}
	return s
}

// Header is the TCP header that *th points at.
type Header struct {
	SPort, DPort uint16
	Seq, Ack     uint32
	Flags        int
	Wnd          uint16
	Urp          uint16
	MSS          int // MSS option value; 0 if absent
}

// Len returns the header's wire length: the fixed header plus the MSS
// option when one is set.
func (h *Header) Len() int {
	if h.MSS > 0 {
		return HeaderLen + 4
	}
	return HeaderLen
}

// Put writes the wire header into b[:h.Len()] with a zero checksum; the
// caller sums over the pseudo-header and fills bytes 16..17.  Output
// writes it straight into the segment's pooled buffer, so building a
// segment allocates nothing beyond the packet.
func (h *Header) Put(b []byte) {
	b = b[:h.Len()]
	b[0], b[1] = byte(h.SPort>>8), byte(h.SPort)
	b[2], b[3] = byte(h.DPort>>8), byte(h.DPort)
	b[4], b[5], b[6], b[7] = byte(h.Seq>>24), byte(h.Seq>>16), byte(h.Seq>>8), byte(h.Seq)
	b[8], b[9], b[10], b[11] = byte(h.Ack>>24), byte(h.Ack>>16), byte(h.Ack>>8), byte(h.Ack)
	b[12] = byte(len(b) / 4 << 4)
	var fl byte
	if h.Flags&FlagFIN != 0 {
		fl |= 0x01
	}
	if h.Flags&FlagSYN != 0 {
		fl |= 0x02
	}
	if h.Flags&FlagRST != 0 {
		fl |= 0x04
	}
	if h.Flags&FlagPSH != 0 {
		fl |= 0x08
	}
	if h.Flags&FlagACK != 0 {
		fl |= 0x10
	}
	if h.Flags&FlagURG != 0 {
		fl |= 0x20
	}
	b[13] = fl
	b[14], b[15] = byte(h.Wnd>>8), byte(h.Wnd)
	b[16], b[17] = 0, 0
	b[18], b[19] = byte(h.Urp>>8), byte(h.Urp)
	if h.MSS > 0 {
		b[20], b[21] = 2, 4
		b[22], b[23] = byte(h.MSS>>8), byte(h.MSS)
	}
}

// Marshal returns the wire header in a new slice (see Put).
func (h *Header) Marshal() []byte {
	b := make([]byte, h.Len())
	h.Put(b)
	return b
}

// parse decodes a TCP header from b, returning the header and its
// length (data offset).  The header is returned by value so input
// keeps it on its stack.
func parse(b []byte) (Header, int, error) {
	if len(b) < HeaderLen {
		return Header{}, 0, fmt.Errorf("tcp: segment too short (%d)", len(b))
	}
	off := int(b[12]>>4) * 4
	if off < HeaderLen || off > len(b) {
		return Header{}, 0, fmt.Errorf("tcp: bad data offset %d", off)
	}
	h := Header{
		SPort: uint16(b[0])<<8 | uint16(b[1]),
		DPort: uint16(b[2])<<8 | uint16(b[3]),
		Seq:   uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
		Ack:   uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11]),
		Wnd:   uint16(b[14])<<8 | uint16(b[15]),
		Urp:   uint16(b[18])<<8 | uint16(b[19]),
	}
	fl := b[13]
	if fl&0x01 != 0 {
		h.Flags |= FlagFIN
	}
	if fl&0x02 != 0 {
		h.Flags |= FlagSYN
	}
	if fl&0x04 != 0 {
		h.Flags |= FlagRST
	}
	if fl&0x08 != 0 {
		h.Flags |= FlagPSH
	}
	if fl&0x10 != 0 {
		h.Flags |= FlagACK
	}
	if fl&0x20 != 0 {
		h.Flags |= FlagURG
	}
	// Options: only MSS (kind 2) is interpreted.
	opts := b[HeaderLen:off]
	for len(opts) > 0 {
		switch opts[0] {
		case 0: // end of options
			opts = nil
		case 1: // nop
			opts = opts[1:]
		default:
			if len(opts) < 2 || int(opts[1]) < 2 || int(opts[1]) > len(opts) {
				opts = nil
				break
			}
			if opts[0] == 2 && opts[1] == 4 {
				h.MSS = int(opts[2])<<8 | int(opts[3])
			}
			opts = opts[opts[1]:]
		}
	}
	return h, off, nil
}

// Sequence-space comparisons (BSD's SEQ_LT etc.).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }
func seqGT(a, b uint32) bool  { return int32(a-b) > 0 }
func seqGEQ(a, b uint32) bool { return int32(a-b) >= 0 }

// The overlay structures of paper Figures 5 and 6.  4.4 BSD-Lite
// overlaid struct ipovly on the IP header to borrow its address fields
// for the checksum and reassembly bookkeeping; the IPv6 equivalent,
// struct ipv6ovly, has no room for the ti_len field, which is why
// tcp_input carries the local variable tlen instead (§5.3).

// ipOvly is struct ipovly: the IPv4 pseudo-header image.
type ipOvly struct {
	src, dst inet.IP4
	proto    uint8
	length   uint16
}

// ipv6Ovly is struct ipv6ovly: the IPv6 pseudo-header image. Note: no
// length field narrower than the 32-bit payload length, and none is
// stored — tlen lives in a local.
type ipv6Ovly struct {
	src, dst inet.IP6
	nh       uint8
}

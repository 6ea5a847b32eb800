// Package ipv4 implements the IPv4 network layer: the 4.4 BSD-Lite
// baseline the paper's IPv6 is measured against (§7), including the
// work an IPv4 node must do that an IPv6 node need not: verifying and
// recomputing the header checksum, and router-side fragmentation
// (§2.1).  ARP — which IPv6 absorbs into ICMPv6 Neighbor Discovery —
// lives here too, implemented over the same cloned-host-route
// machinery ND uses, as in 4.4 BSD.
package ipv4

import (
	"errors"
	"fmt"

	"bsd6/internal/inet"
)

// HeaderLen is the length of an IPv4 header without options.
const HeaderLen = 20

// MinMTU is the minimum IPv4 MTU (§2.2 contrasts it with IPv6's 576).
const MinMTU = 68

// Flags in the fragment field.
const (
	flagDF = 0x4000 // don't fragment
	flagMF = 0x2000 // more fragments
)

// Header is a parsed IPv4 header (paper Figure 2).
type Header struct {
	TOS      uint8
	TotalLen int
	ID       uint16
	DF       bool
	MF       bool
	FragOff  int // byte offset (already multiplied by 8)
	TTL      uint8
	Proto    uint8
	Src, Dst inet.IP4
	Options  []byte // raw options, length a multiple of 4
}

// HdrLen returns the header length including options.
func (h *Header) HdrLen() int { return HeaderLen + len(h.Options) }

// Errors from header parsing.
var (
	ErrShort    = errors.New("ipv4: packet too short")
	ErrVersion  = errors.New("ipv4: bad version")
	ErrChecksum = errors.New("ipv4: bad header checksum")
	ErrLength   = errors.New("ipv4: bad length fields")
)

// Marshal appends the wire form of h (with a freshly computed header
// checksum — the per-hop cost IPv6 eliminates) to dst.
func (h *Header) Marshal(dst []byte) []byte {
	hl := h.HdrLen()
	off := len(dst)
	dst = append(dst, make([]byte, hl)...)
	b := dst[off:]
	b[0] = 4<<4 | uint8(hl/4)
	b[1] = h.TOS
	b[2], b[3] = byte(h.TotalLen>>8), byte(h.TotalLen)
	b[4], b[5] = byte(h.ID>>8), byte(h.ID)
	frag := uint16(h.FragOff / 8)
	if h.DF {
		frag |= flagDF
	}
	if h.MF {
		frag |= flagMF
	}
	b[6], b[7] = byte(frag>>8), byte(frag)
	b[8] = h.TTL
	b[9] = h.Proto
	copy(b[12:16], h.Src[:])
	copy(b[16:20], h.Dst[:])
	copy(b[20:], h.Options)
	ck := inet.Checksum(b[:hl])
	b[10], b[11] = byte(ck>>8), byte(ck)
	return dst
}

// Parse decodes and validates an IPv4 header from b, verifying the
// checksum. It returns the header and the header length consumed.
// The header is returned by value so the input path can keep it on
// its stack; only options, when present, are copied out of b.
func Parse(b []byte) (Header, int, error) {
	if len(b) < HeaderLen {
		return Header{}, 0, ErrShort
	}
	if b[0]>>4 != 4 {
		return Header{}, 0, ErrVersion
	}
	hl := int(b[0]&0xf) * 4
	if hl < HeaderLen || len(b) < hl {
		return Header{}, 0, ErrLength
	}
	if inet.Checksum(b[:hl]) != 0 {
		return Header{}, 0, ErrChecksum
	}
	h := Header{
		TOS:      b[1],
		TotalLen: int(b[2])<<8 | int(b[3]),
		ID:       uint16(b[4])<<8 | uint16(b[5]),
		TTL:      b[8],
		Proto:    b[9],
	}
	if h.TotalLen < hl {
		return Header{}, 0, ErrLength
	}
	frag := uint16(b[6])<<8 | uint16(b[7])
	h.DF = frag&flagDF != 0
	h.MF = frag&flagMF != 0
	h.FragOff = int(frag&0x1fff) * 8
	copy(h.Src[:], b[12:16])
	copy(h.Dst[:], b[16:20])
	if hl > HeaderLen {
		h.Options = append([]byte(nil), b[HeaderLen:hl]...)
	}
	return h, hl, nil
}

// String renders the header's fields for traces and debugging.
func (h *Header) String() string {
	return fmt.Sprintf("ipv4 %s > %s proto=%d len=%d ttl=%d id=%d off=%d df=%v mf=%v",
		h.Src, h.Dst, h.Proto, h.TotalLen, h.TTL, h.ID, h.FragOff, h.DF, h.MF)
}

// Package ipv6 implements the IPv6 network layer — the paper's primary
// contribution (§2).  Compared with the IPv4 layer it drops the header
// checksum and in-network fragmentation, adds daisy-chained extension
// headers that input processing pre-parses (§2.2), relies on Path MTU
// discovery with per-destination MTU stored in host routes, and calls
// out to the IP security module at the points §3.3/§3.4 specify.
package ipv6

import (
	"errors"
	"fmt"

	"bsd6/internal/inet"
	"bsd6/internal/proto"
)

// HeaderLen is the fixed IPv6 header size.
const HeaderLen = 40

// MinMTU is the minimum IPv6 link MTU (§2.2; the 1995 specification
// said 576, later raised to 1280 — we keep the paper's value).
const MinMTU = 576

// Header is the parsed IPv6 base header (paper Figure 3):
// version / priority / flow label, payload length, next header,
// hop limit, and the two 128-bit addresses.
type Header struct {
	// FlowInfo packs the 4-bit priority and 24-bit flow label, the
	// resource-reservation hook (§2.1).
	FlowInfo   uint32
	PayloadLen int
	NextHdr    uint8
	HopLimit   uint8
	Src, Dst   inet.IP6
}

// Errors from parsing.
var (
	ErrShort   = errors.New("ipv6: packet too short")
	ErrVersion = errors.New("ipv6: bad version")
	ErrLength  = errors.New("ipv6: bad payload length")
	ErrExtHdr  = errors.New("ipv6: malformed extension header")
)

// Marshal appends the 40-byte wire header to dst.  Note what is absent
// relative to IPv4: no checksum to compute (§2.1).
func (h *Header) Marshal(dst []byte) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, HeaderLen)...)
	b := dst[off:]
	b[0] = 6<<4 | byte(h.FlowInfo>>24)&0x0f
	b[1] = byte(h.FlowInfo >> 16)
	b[2] = byte(h.FlowInfo >> 8)
	b[3] = byte(h.FlowInfo)
	b[4], b[5] = byte(h.PayloadLen>>8), byte(h.PayloadLen)
	b[6] = h.NextHdr
	b[7] = h.HopLimit
	copy(b[8:24], h.Src[:])
	copy(b[24:40], h.Dst[:])
	return dst
}

// Parse decodes the base header. An IPv6 receiver "initially only has
// to check the validity of the version and destination address" — no
// checksum verification (§2.1).  The header is returned by value so
// the input path can keep it on its stack.
func Parse(b []byte) (Header, error) {
	if len(b) < HeaderLen {
		return Header{}, ErrShort
	}
	if b[0]>>4 != 6 {
		return Header{}, ErrVersion
	}
	h := Header{
		FlowInfo:   uint32(b[0]&0x0f)<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3]),
		PayloadLen: int(b[4])<<8 | int(b[5]),
		NextHdr:    b[6],
		HopLimit:   b[7],
	}
	copy(h.Src[:], b[8:24])
	copy(h.Dst[:], b[24:40])
	return h, nil
}

// String renders the header's fields for traces and debugging.
func (h *Header) String() string {
	return fmt.Sprintf("ipv6 %s > %s nh=%d plen=%d hlim=%d flow=%#x",
		h.Src, h.Dst, h.NextHdr, h.PayloadLen, h.HopLimit, h.FlowInfo)
}

//
// Extension headers.
//

// Option is one TLV option inside a hop-by-hop or destination options
// header.
type Option struct {
	Type byte
	Data []byte
}

// Option types.
const (
	OptPad1 = 0
	OptPadN = 1
)

// Option-type action bits (what to do with an unrecognized option).
const (
	OptActSkip        = 0x00 // skip over
	OptActDiscard     = 0x40 // silently discard
	OptActDiscardICMP = 0x80 // discard, send param problem
	OptActDiscardMcst = 0xc0 // discard, send param problem unless multicast
	optActMask        = 0xc0
)

// MarshalOptions builds a hop-by-hop or destination options header
// body: next-header, length, and padded TLVs.
func MarshalOptions(next uint8, opts []Option) []byte {
	body := []byte{next, 0}
	for _, o := range opts {
		if o.Type == OptPad1 {
			body = append(body, 0)
			continue
		}
		body = append(body, o.Type, byte(len(o.Data)))
		body = append(body, o.Data...)
	}
	// Pad to a multiple of 8 octets.
	switch rem := len(body) % 8; {
	case rem == 7:
		body = append(body, OptPad1)
	case rem != 0:
		n := 8 - rem - 2
		body = append(body, OptPadN, byte(n))
		body = append(body, make([]byte, n)...)
	}
	body[1] = byte(len(body)/8 - 1)
	return body
}

// OptionError is ParseOptions' error for an option it does not know
// whose action bits say not to skip it: where the option is and what
// to do with the packet.
type OptionError struct {
	Offset int  // offset of the option type byte within the ext header
	Action byte // the discard action bits
}

// Error describes the error.
func (e *OptionError) Error() string { return "ipv6: unrecognized option" }

// ParseOptions decodes all options in body (the bytes after the 2-byte
// header of a hop-by-hop/dst-opts header). known reports whether the
// caller understands an option type.
func ParseOptions(body []byte, known func(byte) bool) ([]Option, error) {
	var opts []Option
	i := 0
	for i < len(body) {
		t := body[i]
		if t == OptPad1 {
			i++
			continue
		}
		if i+2 > len(body) {
			return nil, ErrExtHdr
		}
		n := int(body[i+1])
		if i+2+n > len(body) {
			return nil, ErrExtHdr
		}
		if t != OptPadN {
			if known == nil || !known(t) {
				if act := t & optActMask; act != OptActSkip {
					return nil, &OptionError{Offset: i + 2, Action: act}
				}
			} else {
				opts = append(opts, Option{Type: t, Data: append([]byte(nil), body[i+2:i+2+n]...)})
			}
		}
		i += 2 + n
	}
	return opts, nil
}

// Fragment header (8 bytes).
const FragHeaderLen = 8

// FragHeader is the IPv6 fragment header.
type FragHeader struct {
	NextHdr uint8
	Off     int // byte offset, multiple of 8
	More    bool
	ID      uint32
}

// Marshal appends the fragment header to dst.
func (f *FragHeader) Marshal(dst []byte) []byte {
	b := make([]byte, FragHeaderLen)
	b[0] = f.NextHdr
	v := uint16(f.Off)
	if f.More {
		v |= 1
	}
	b[2], b[3] = byte(v>>8), byte(v)
	b[4] = byte(f.ID >> 24)
	b[5] = byte(f.ID >> 16)
	b[6] = byte(f.ID >> 8)
	b[7] = byte(f.ID)
	return append(dst, b...)
}

// ParseFrag decodes a fragment header.
func ParseFrag(b []byte) (*FragHeader, error) {
	if len(b) < FragHeaderLen {
		return nil, ErrShort
	}
	v := uint16(b[2])<<8 | uint16(b[3])
	return &FragHeader{
		NextHdr: b[0],
		Off:     int(v &^ 0x7),
		More:    v&1 != 0,
		ID:      uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
	}, nil
}

// RoutingHeader is the type-0 routing header (loose/strict source
// routing; §4.1 mentions errors with strict source routing).
type RoutingHeader struct {
	NextHdr    uint8
	SegLeft    int
	Addrs      []inet.IP6
	StrictBits uint32 // paper-era RH0 carried a strict/loose bit map
}

// Marshal appends the routing header.
func (r *RoutingHeader) Marshal(dst []byte) []byte {
	b := make([]byte, 8+16*len(r.Addrs))
	b[0] = r.NextHdr
	b[1] = byte(2 * len(r.Addrs)) // length in 8-octet units beyond the first 8
	b[2] = 0                      // routing type 0
	b[3] = byte(r.SegLeft)
	b[4] = byte(r.StrictBits >> 24)
	b[5] = byte(r.StrictBits >> 16)
	b[6] = byte(r.StrictBits >> 8)
	b[7] = byte(r.StrictBits)
	for i, a := range r.Addrs {
		copy(b[8+16*i:], a[:])
	}
	return append(dst, b...)
}

// ParseRouting decodes a type-0 routing header.
func ParseRouting(b []byte) (*RoutingHeader, error) {
	if len(b) < 8 {
		return nil, ErrShort
	}
	extLen := int(b[1])
	total := 8 + extLen*8
	if len(b) < total || extLen%2 != 0 {
		return nil, ErrExtHdr
	}
	r := &RoutingHeader{
		NextHdr:    b[0],
		SegLeft:    int(b[3]),
		StrictBits: uint32(b[4])<<24 | uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7]),
	}
	n := extLen / 2
	if r.SegLeft > n {
		return nil, ErrExtHdr
	}
	for i := 0; i < n; i++ {
		var a inet.IP6
		copy(a[:], b[8+16*i:])
		r.Addrs = append(r.Addrs, a)
	}
	return r, nil
}

//
// Pre-parsing (§2.2): "Our implementation pre-parses an IP packet into
// its constituent headers and upper-layer protocol data as part of the
// initial IPv6 input processing."
//

// HeaderRec locates one header within a packet.
type HeaderRec struct {
	Proto  uint8 // the header's own protocol number
	Offset int   // byte offset from the start of the IPv6 packet
	Len    int   // length of this header in bytes
}

// PacketInfo is the result of pre-parsing.  The records of a chain of
// up to four extension headers live in the value itself, so
// pre-parsing a common packet allocates nothing.
type PacketInfo struct {
	ext       [4]HeaderRec
	more      []HeaderRec // the whole chain, once it outgrows ext
	n         int
	Final     uint8 // first non-extension next-header value
	FinalOff  int   // offset of the upper-layer header / opaque data
	Truncated bool  // chain ran past the packet end
}

// Ext returns the extension headers, in order.
func (p *PacketInfo) Ext() []HeaderRec {
	if p.more != nil {
		return p.more
	}
	return p.ext[:p.n]
}

func (p *PacketInfo) add(r HeaderRec) {
	if p.more == nil && p.n < len(p.ext) {
		p.ext[p.n] = r
	} else {
		if p.more == nil {
			p.more = append([]HeaderRec(nil), p.ext[:]...)
		}
		p.more = append(p.more, r)
	}
	p.n++
}

// extHeaderLen returns the length of the extension header of type p
// starting at b, or -1 if p is not a (scannable) extension header.
// ESP is not scannable: everything after its SPI is opaque until
// decryption.
func extHeaderLen(p uint8, b []byte) int {
	switch p {
	case proto.HopByHop, proto.DstOpts, proto.Routing:
		if len(b) < 2 {
			return -2
		}
		return 8 + int(b[1])*8
	case proto.Fragment:
		if len(b) < FragHeaderLen {
			return -2
		}
		return FragHeaderLen
	case proto.AH:
		// RFC 1826: length field counts 32-bit words of auth data.
		if len(b) < 2 {
			return -2
		}
		return 8 + int(b[1])*4
	default:
		return -1
	}
}

// IsExt reports whether p is an extension header this stack walks
// through on input (ESP terminates the walk; its interior is opaque).
func IsExt(p uint8) bool {
	switch p {
	case proto.HopByHop, proto.DstOpts, proto.Routing, proto.Fragment, proto.AH:
		return true
	}
	return false
}

// Preparse scans the daisy-chained headers of packet b (starting with
// the base header) and records each one.  fastPath enables the paper's
// planned optimization: when the first next-header is not an extension
// header, skip the scan entirely.  The result is a value: a packet
// with no extension header is pre-parsed without allocating.
func Preparse(b []byte, fastPath bool) (info PacketInfo, err error) {
	h, err := Parse(b)
	if err != nil {
		return info, err
	}
	info.Final, info.FinalOff = h.NextHdr, HeaderLen
	if fastPath && !IsExt(h.NextHdr) {
		return info, nil
	}
	nh := h.NextHdr
	off := HeaderLen
	for IsExt(nh) {
		n := extHeaderLen(nh, b[off:])
		if n == -2 || off+n > len(b) {
			info.Truncated = true
			return info, ErrExtHdr
		}
		info.add(HeaderRec{Proto: nh, Offset: off, Len: n})
		next := b[off]
		isFrag := nh == proto.Fragment
		off += n
		nh = next
		if isFrag {
			// Stop at a fragment header: for any fragment but the
			// first, what follows is mid-datagram payload, not a
			// header chain.  The reassembled datagram is re-preparsed.
			break
		}
		if info.n > 64 {
			return info, ErrExtHdr
		}
	}
	info.Final = nh
	info.FinalOff = off
	return info, nil
}

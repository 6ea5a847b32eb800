package inet

import (
	"encoding/binary"
	"math/bits"
)

// The ones-complement internet checksum (RFC 1071) and its
// pseudo-headers.  The paper leans on the checksum in three places:
// IPv4 keeps a header checksum that IPv6 drops (§2.1); ICMPv6 newly
// includes a pseudo-header in its checksum (§4); and the UDP checksum
// becomes mandatory over IPv6 because nothing else protects the
// addresses (§5.2).
//
// The engine sums eight bytes per load with the carries deferred to a
// final fold: a big-endian 64-bit word is two 32-bit halves, each of
// which is two of the checksum's 16-bit columns, and because the
// ones-complement sum only cares about the total modulo 0xffff —
// 2^16 ≡ 1, so 2^32 ≡ 1 and 2^48 ≡ 1 — the halves (and later the
// folds) can be added in plain binary and reduced once at the end.
// A 64-bit accumulator absorbs ~2^29 such words before it could
// wrap, far beyond the 64 KB maximum datagram.

// Sum computes the unfolded 32-bit ones-complement sum of b, starting
// from an initial accumulator. Use Fold to produce the 16-bit checksum.
// An odd-length b contributes its last byte as the high half of a
// final padded word, so partial sums may only be chained at even
// offsets (as with RFC 1071 itself).
func Sum(initial uint32, b []byte) uint32 {
	sum := uint64(initial)
	// Unrolled main loop: 32 bytes per iteration into four independent
	// accumulators, so the adds pipeline instead of serializing on one
	// register.  Whole 64-bit words are added with the carry-out caught
	// explicitly: 2^64 = (2^16)^4 ≡ 1 (mod 2^16-1), so a carry off the
	// top re-enters the ones-complement sum as +1.
	if len(b) >= 32 {
		var s0, s1, s2, s3, carries uint64
		for len(b) >= 32 {
			var c0, c1, c2, c3 uint64
			s0, c0 = bits.Add64(s0, binary.BigEndian.Uint64(b), 0)
			s1, c1 = bits.Add64(s1, binary.BigEndian.Uint64(b[8:16]), 0)
			s2, c2 = bits.Add64(s2, binary.BigEndian.Uint64(b[16:24]), 0)
			s3, c3 = bits.Add64(s3, binary.BigEndian.Uint64(b[24:32]), 0)
			carries += c0 + c1 + c2 + c3
			b = b[32:]
		}
		// Halve each lane (≤2^33 after the split) and merge; the total
		// stays well under 2^36, exact in the deferred-carry form.
		sum += carries
		sum += s0>>32 + s0&0xffffffff
		sum += s1>>32 + s1&0xffffffff
		sum += s2>>32 + s2&0xffffffff
		sum += s3>>32 + s3&0xffffffff
	}
	for len(b) >= 8 {
		w := binary.BigEndian.Uint64(b)
		sum += w>>32 + w&0xffffffff
		b = b[8:]
	}
	if len(b) >= 4 {
		sum += uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		sum += uint64(b[0])<<8 | uint64(b[1])
		b = b[2:]
	}
	if len(b) > 0 {
		sum += uint64(b[0]) << 8
	}
	return fold64(sum)
}

// SumCopy copies src into dst while accumulating the ones-complement
// sum of the copied bytes — the BSD in_cksum-with-copy fusion, so an
// output path that must both move a payload into the wire buffer and
// checksum it traverses the bytes once.  dst must have room for src;
// the unfolded sum (including initial) is returned with the same
// odd-length semantics as Sum.
func SumCopy(initial uint32, dst, src []byte) uint32 {
	_ = dst[:len(src)] // fail fast on a short destination
	sum := uint64(initial)
	// Same four-lane shape as Sum, with the store fused into each load.
	if len(src) >= 32 {
		var s0, s1, s2, s3, carries uint64
		for len(src) >= 32 {
			w0 := binary.BigEndian.Uint64(src)
			w1 := binary.BigEndian.Uint64(src[8:16])
			w2 := binary.BigEndian.Uint64(src[16:24])
			w3 := binary.BigEndian.Uint64(src[24:32])
			binary.BigEndian.PutUint64(dst, w0)
			binary.BigEndian.PutUint64(dst[8:16], w1)
			binary.BigEndian.PutUint64(dst[16:24], w2)
			binary.BigEndian.PutUint64(dst[24:32], w3)
			var c0, c1, c2, c3 uint64
			s0, c0 = bits.Add64(s0, w0, 0)
			s1, c1 = bits.Add64(s1, w1, 0)
			s2, c2 = bits.Add64(s2, w2, 0)
			s3, c3 = bits.Add64(s3, w3, 0)
			carries += c0 + c1 + c2 + c3
			src, dst = src[32:], dst[32:]
		}
		sum += carries
		sum += s0>>32 + s0&0xffffffff
		sum += s1>>32 + s1&0xffffffff
		sum += s2>>32 + s2&0xffffffff
		sum += s3>>32 + s3&0xffffffff
	}
	for len(src) >= 8 {
		w := binary.BigEndian.Uint64(src)
		binary.BigEndian.PutUint64(dst, w)
		sum += w>>32 + w&0xffffffff
		src, dst = src[8:], dst[8:]
	}
	for len(src) >= 2 {
		dst[0], dst[1] = src[0], src[1]
		sum += uint64(src[0])<<8 | uint64(src[1])
		src, dst = src[2:], dst[2:]
	}
	if len(src) > 0 {
		dst[0] = src[0]
		sum += uint64(src[0]) << 8
	}
	return fold64(sum)
}

// fold64 reduces a 64-bit deferred-carry accumulator back to the
// 32-bit unfolded form.  Two ends-around passes suffice: the first
// leaves at most 2^33-2, whose high half is 0 or 1.
func fold64(s uint64) uint32 {
	s = s>>32 + s&0xffffffff
	s = s>>32 + s&0xffffffff
	return uint32(s)
}

// Fold reduces a 32-bit accumulator to the final 16-bit ones-complement
// checksum.
func Fold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// FoldRaw reduces an unfolded accumulator to 16 bits without the
// final complement — the form needed when a partial sum must be
// byte-swapped to splice it in at an odd offset of a larger checksum
// (mbuf chain traversal), or fed onward as an initial accumulator.
func FoldRaw(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return uint16(sum)
}

// Checksum computes the internet checksum of b.
func Checksum(b []byte) uint16 { return Fold(Sum(0, b)) }

// UpdateChecksum16 incrementally updates a checksum after a single
// 16-bit field changed from `from` to `to` (RFC 1624 equation 3:
// HC' = ~(~HC + ~m + m')), so a one-field header rewrite — an IPv4
// forwarder's TTL decrement, a GRO super-segment's length — does not
// recompute the sum of the untouched bytes.  old is
// the checksum as it appears in the header (already complemented).
func UpdateChecksum16(old, from, to uint16) uint16 {
	sum := uint32(^old) + uint32(^from) + uint32(to)
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// PseudoHeader6 computes the unfolded sum of the IPv6 pseudo-header:
// source, destination, upper-layer packet length, and next-header value.
func PseudoHeader6(src, dst IP6, length uint32, nextHdr uint8) uint32 {
	sum := Sum(0, src[:])
	sum = Sum(sum, dst[:])
	sum += length>>16 + length&0xffff
	sum += uint32(nextHdr)
	return sum
}

// PseudoHeader4 computes the unfolded sum of the IPv4 pseudo-header.
func PseudoHeader4(src, dst IP4, length uint16, proto uint8) uint32 {
	sum := Sum(0, src[:])
	sum = Sum(sum, dst[:])
	sum += uint32(length)
	sum += uint32(proto)
	return sum
}

// TransportChecksum6 computes the checksum for a transport payload
// carried over IPv6 (TCP, UDP, ICMPv6 all use this form).
func TransportChecksum6(src, dst IP6, nextHdr uint8, payload []byte) uint16 {
	return Fold(Sum(PseudoHeader6(src, dst, uint32(len(payload)), nextHdr), payload))
}

// TransportChecksum4 computes the checksum for a transport payload
// carried over IPv4.
func TransportChecksum4(src, dst IP4, proto uint8, payload []byte) uint16 {
	return Fold(Sum(PseudoHeader4(src, dst, uint16(len(payload)), proto), payload))
}

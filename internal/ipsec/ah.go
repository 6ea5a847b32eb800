package ipsec

import (
	"fmt"

	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

// Authentication Header processing (§3.2): the header processing
// routines find the association and build or parse the option header;
// the "meat" walks the packet, zeroing header fields that vary
// unpredictably end-to-end (hop limit, priority/flow label), and
// streams the rest into the keyed message digest.
//
// Wire format (RFC 1826):
//
//	+-------------+-------------+-------------+-------------+
//	| Next Header |   Length    |          RESERVED         |
//	+-------------+-------------+-------------+-------------+
//	|             Security Parameters Index (SPI)           |
//	+--------------------------------------------------------+
//	|           Authentication Data (Length * 4 bytes)       |
//	+--------------------------------------------------------+
//
// Sequenced algorithms (SequencedAuth, e.g. hmac-sha256) insert a
// 64-bit sequence number between the SPI and the authentication data
// — the RFC 2402-style framing the replay window needs.  The framing
// is chosen by the SA's configured algorithm, never guessed from the
// wire, so the paper-era keyed digests stay byte-for-byte RFC 1826.
//
// Placement note: this implementation inserts AH at the head of the
// fragmentable part, so the digest covers the (mutable-zeroed) base
// header, the AH itself, and everything after it — but not hop-by-hop
// or routing headers, which stay in the unfragmentable part.  The
// paper's walk zeroes mutable option fields instead; since this stack
// generates no mutable options, excluding the unfragmentable headers
// preserves the same end-to-end invariant with a simpler walk.

const ahFixedLen = 8

// ahSeqLen is the sequence-number field length of sequenced AH.
const ahSeqLen = 8

// ahHdrLen returns the AH length (fixed part + optional sequence
// number) before the authentication data.
func ahHdrLen(seq bool) int {
	if seq {
		return ahFixedLen + ahSeqLen
	}
	return ahFixedLen
}

// makeAH assembles the AH bytes for sa with a zeroed ICV, advancing
// the outbound sequence number for sequenced algorithms.
func makeAH(sa *key.SA, alg AuthAlg, nh uint8) []byte {
	seq := sequenced(alg)
	dlen := alg.DigestLen()
	hl := ahHdrLen(seq)
	ah := make([]byte, hl+dlen)
	ah[0] = nh
	ah[1] = byte((hl - ahFixedLen + dlen) / 4)
	put32(ah[4:], sa.SPI)
	if seq {
		put64(ah[ahFixedLen:], sa.NextSeq())
	}
	return ah
}

// buildAH wraps payload in an Authentication Header keyed by sa.
// hdr supplies the address/pseudo-header context.
func buildAH(sa *key.SA, hdr *ipv6.Header, payload []byte, nh uint8) ([]byte, error) {
	alg, ok := LookupAuth(sa.AuthAlg)
	if !ok {
		return nil, fmt.Errorf("ipsec: unknown auth algorithm %q", sa.AuthAlg)
	}
	ah := makeAH(sa, alg, nh)
	hl := ahHdrLen(sequenced(alg))
	digest := ahDigest(alg, sa.AuthKey, hdr, ah, payload)
	copy(ah[hl:], digest)
	return append(ah, payload...), nil
}

// buildAHChain prepends an Authentication Header to the packet chain
// in place: the digest streams over the chain's segments (no copy, no
// flatten) and the AH bytes land in the leading slab headroom.
func buildAHChain(sa *key.SA, hdr *ipv6.Header, payload *mbuf.Mbuf, nh uint8) error {
	alg, ok := LookupAuth(sa.AuthAlg)
	if !ok {
		return fmt.Errorf("ipsec: unknown auth algorithm %q", sa.AuthAlg)
	}
	ah := makeAH(sa, alg, nh)
	hl := ahHdrLen(sequenced(alg))

	pseudo := *hdr
	pseudo.FlowInfo = 0
	pseudo.HopLimit = 0
	pseudo.NextHdr = proto.AH
	pseudo.PayloadLen = len(ah) + payload.Len()
	h := alg.New(sa.AuthKey)
	h.Write(pseudo.Marshal(nil))
	h.Write(ah)
	cur := payload.Cursor()
	for seg := cur.Next(); seg != nil; seg = cur.Next() {
		h.Write(seg)
	}
	copy(ah[hl:], h.Sum(nil))
	payload.Prepend(ah)
	return nil
}

// verifyAH checks the digest of the AH at b[off:] within the packet
// image b. It returns the parsed next header and total AH length.
func verifyAH(sa *key.SA, hdr *ipv6.Header, b []byte, off int) (nh uint8, ahLen int, ok bool) {
	nh, ahLen, _, ok = verifyAHSeq(sa, hdr, b, off)
	return nh, ahLen, ok
}

// verifyAHSeq is verifyAH plus the sequence number of sequenced
// framings (0 for the classic RFC 1826 framing).
func verifyAHSeq(sa *key.SA, hdr *ipv6.Header, b []byte, off int) (nh uint8, ahLen int, seq uint64, ok bool) {
	alg, algOK := LookupAuth(sa.AuthAlg)
	if !algOK {
		return 0, 0, 0, false
	}
	hl := ahHdrLen(sequenced(alg))
	if off+hl > len(b) {
		return 0, 0, 0, false
	}
	dlen := int(b[off+1])*4 - (hl - ahFixedLen)
	ahLen = hl + dlen
	if dlen != alg.DigestLen() || off+ahLen > len(b) {
		return 0, 0, 0, false
	}
	nh = b[off]
	if hl > ahFixedLen {
		seq = get64be(b[off+ahFixedLen:])
	}
	// Zero the authentication data for the recomputation.
	ahZero := make([]byte, ahLen)
	copy(ahZero, b[off:off+hl])
	want := b[off+hl : off+ahLen]
	got := ahDigest(alg, sa.AuthKey, hdr, ahZero, b[off+ahLen:])
	if len(got) != len(want) {
		return 0, 0, 0, false
	}
	// Constant-time comparison is immaterial in the simulation but
	// costs nothing.
	var diff byte
	for i := range got {
		diff |= got[i] ^ want[i]
	}
	return nh, ahLen, seq, diff == 0
}

// ahDigest streams the pseudo base header (mutable fields zeroed), the
// AH (authentication data zeroed), and the protected payload into the
// keyed digest, truncating to the algorithm's digest length.
func ahDigest(alg AuthAlg, authKey []byte, hdr *ipv6.Header, ahZeroed []byte, payload []byte) []byte {
	pseudo := *hdr
	pseudo.FlowInfo = 0 // priority/flow may be rewritten for QoS
	pseudo.HopLimit = 0 // decremented per hop
	pseudo.NextHdr = proto.AH
	pseudo.PayloadLen = len(ahZeroed) + len(payload)
	h := alg.New(authKey)
	h.Write(pseudo.Marshal(nil))
	h.Write(ahZeroed)
	h.Write(payload)
	return h.Sum(nil)[:alg.DigestLen()]
}

package ipsec

import (
	"crypto/cipher"
	"errors"
	"fmt"

	"bsd6/internal/key"
	"bsd6/internal/mbuf"
)

// Encapsulating Security Payload processing (§3.2/§3.6).
//
// The ESP switch is two-dimensional: "the switch allows implementors
// to specify the header processing code and the encryption code
// separately for greater flexibility."  The cipher half is the EncAlg
// (alg.go) and AEADAlg (aead.go) switches; the header processing half
// is the framing the selected row implies.  Every block cipher shares
// the DES-CBC framing (RFC 1829) — idea-cbc and 3des-cbc are §3.6's
// worked example — and AEAD ciphers bring a framing whose sequence
// number feeds the replay window.
//
// Classic wire format after the IPv6 chain (RFC 1827 + RFC 1829):
//
//	| SPI (4) | IV (block) | ciphertext( payload | pad | padLen | payloadType ) |
//
// AEAD wire format (RFC 4303/4106 spirit):
//
//	| SPI (4) | Seq (8) | ciphertext( payload | payloadType ) | tag |
//
// with nonce = salt(4) || seq(8) and the SPI+Seq bytes as additional
// authenticated data.  Transport mode encrypts the upper-layer header
// and data; tunnel mode encrypts an entire IP datagram, with
// payloadType = 41 (IPv6).
//
// There is one seal path (wrapESPChain) and one open path
// (openESPInPlace, driven by Module.Input), and both work in place on
// the packet's own buffer; the flat reference builders they are
// tested against live in the package tests.

// Errors from ESP input processing.
var (
	errESPShort = errors.New("ipsec: ESP payload too short")
	errESPPad   = errors.New("ipsec: ESP padding check failed")
	errESPAuth  = errors.New("ipsec: ESP integrity check failed")
)

// espAEADHdr is the cleartext AEAD framing: SPI plus sequence number,
// doubling as the additional authenticated data.
const espAEADHdr = 4 + 8

// aeadNonceLen is the AEAD nonce: salt(4) || seq(8).
const aeadNonceLen = aeadSaltLen + 8

// espSched is one association's keyed ESP state (KAME's sav->sched):
// the switch row resolved from EncAlg and its cipher keyed from EncKey.
// It is built the first time the association carries a packet and
// kept in the SA's schedule slot, so the key schedule (and GCM's
// tables) are computed once per association, not once per packet.
type espSched struct {
	aead  cipher.AEAD  // AEAD rows: the keyed cipher
	salt  []byte       // AEAD rows: the implicit nonce salt
	block cipher.Block // CBC rows: the keyed block cipher
	seq   bool         // the framing carries a sequence number (AEAD rows)
	// err is an unknown algorithm or an unusable key; every packet on
	// the association is refused with it.
	err error
}

// espSchedule returns sa's ESP schedule, building it on first use.
func espSchedule(sa *key.SA) *espSched {
	if s, ok := sa.Sched().(*espSched); ok {
		return s
	}
	return sa.SetSched(newESPSched(sa.EncAlg, sa.EncKey)).(*espSched)
}

// newESPSched resolves the switch row for alg — an AEAD entry wins
// over a classic cipher of the same name — and keys its cipher.
func newESPSched(alg string, k []byte) *espSched {
	s := &espSched{}
	if a, ok := LookupAEAD(alg); ok {
		s.seq = true
		s.aead, s.salt, s.err = a.New(k)
		return s
	}
	enc, ok := LookupEnc(alg)
	if !ok {
		s.err = fmt.Errorf("ipsec: unknown encryption algorithm %q", alg)
		return s
	}
	s.block, s.err = enc.NewCipher(k)
	return s
}

// wrapESPChain is the ESP seal path, for both modes: it seals prefix
// (the marshaled inner header in tunnel mode, empty in transport mode)
// followed by pkt's content, in place, and returns the sealed packet.
// The SPI, sequence number or IV and the prefix are written into the
// slab's leading space, the pad, next-header byte and ICV into its
// trailing space, and the cipher runs over the bytes where they lie:
// no copy, no allocation.  A packet without that room (several
// segments, bytes not from the pool, or a slab too full for the
// trailer) is first gathered into a fresh pooled buffer — one copy —
// and sealed there by the same code.
//
// wrapESPChain consumes pkt: on success the sealed packet (pkt itself,
// or the gathered buffer that replaced it) is the caller's, and on
// error pkt has been freed.
func wrapESPChain(sa *key.SA, prefix []byte, pkt *mbuf.Mbuf, payloadType uint8) (*mbuf.Mbuf, error) {
	s := espSchedule(sa)
	if s.err != nil {
		pkt.Free()
		return nil, s.err
	}
	plen := len(prefix) + pkt.Len()
	if s.aead != nil {
		// The nonce is built in the trailing space just past the
		// sealed end and trimmed off afterwards, so it never escapes
		// to the heap.
		trail := 1 + s.aead.Overhead() + aeadNonceLen
		pkt = sealRoom(pkt, espAEADHdr+len(prefix), trail)
		seq := sa.NextSeq()
		h := pkt.PrependN(espAEADHdr + len(prefix))
		put32(h, sa.SPI)
		put64(h[4:], seq)
		copy(h[espAEADHdr:], prefix)
		t := pkt.AppendN(trail)
		t[0] = payloadType
		nonce := t[trail-aeadNonceLen:]
		copy(nonce, s.salt)
		put64(nonce[aeadSaltLen:], seq)
		b := pkt.Bytes()
		pt := b[espAEADHdr : espAEADHdr+plen+1]
		s.aead.Seal(pt[:0], nonce, pt, b[:espAEADHdr])
		pkt.Adj(-aeadNonceLen)
		return pkt, nil
	}

	bs := s.block.BlockSize()
	pad := (bs - (plen+2)%bs) % bs
	pkt = sealRoom(pkt, 4+bs+len(prefix), pad+2)
	h := pkt.PrependN(4 + bs + len(prefix))
	put32(h, sa.SPI)
	newIV(h[4 : 4+bs])
	copy(h[4+bs:], prefix)
	t := pkt.AppendN(pad + 2)
	clear(t[:pad])
	t[pad] = byte(pad)
	t[pad+1] = payloadType
	b := pkt.Bytes()
	if err := Reblock(s.block, b[4:4+bs], b[4+bs:], true); err != nil {
		pkt.Free()
		return nil, err
	}
	return pkt, nil
}

// sealRoom returns pkt if it is one pooled segment with lead bytes of
// leading and trail bytes of trailing slab space, so the ESP framing
// can be written around the payload where it lies.  Otherwise it
// gathers pkt into a fresh pooled buffer that has both, frees pkt, and
// returns the buffer carrying pkt's socket back pointer.
func sealRoom(pkt *mbuf.Mbuf, lead, trail int) *mbuf.Mbuf {
	if l, t := pkt.Room(); l >= lead && t >= trail {
		return pkt
	}
	n := pkt.Len()
	out := mbuf.Get(n + trail) // Get leaves Headroom >= lead in front
	pkt.CopyTo(out.Bytes())
	out.Adj(-trail)
	out.Hdr().Socket = pkt.Hdr().Socket
	pkt.Free()
	return out
}

// openESPInPlace is the ESP open path: it authenticates and decrypts
// the ESP payload that starts (at its SPI) at b[off], in place, and
// returns the plaintext — a subslice of b — and its payload type.
// The AEAD nonce is assembled in b[:aeadNonceLen], which belongs to the
// base header (off is at least ipv6.HeaderLen), and those bytes are
// restored before returning, so a dropped packet still shows its
// header.  A failed AEAD check leaves the ciphertext area cleared (Go's
// GCM zeroes its output); a failed CBC pad check leaves it decrypted.
func openESPInPlace(s *espSched, b []byte, off int) ([]byte, uint8, error) {
	if s.err != nil {
		return nil, 0, s.err
	}
	esp := b[off:]
	if s.aead != nil {
		if len(esp) < espAEADHdr+1+s.aead.Overhead() {
			return nil, 0, errESPShort
		}
		var saved [aeadNonceLen]byte
		nonce := b[:aeadNonceLen]
		copy(saved[:], nonce)
		copy(nonce, s.salt)
		copy(nonce[aeadSaltLen:], esp[4:espAEADHdr])
		ct := esp[espAEADHdr:]
		pt, err := s.aead.Open(ct[:0], nonce, ct, esp[:espAEADHdr])
		copy(nonce, saved[:])
		if err != nil {
			return nil, 0, errESPAuth
		}
		return pt[:len(pt)-1], pt[len(pt)-1], nil
	}

	bs := s.block.BlockSize()
	if len(esp) < 4+bs+bs {
		return nil, 0, errESPShort
	}
	ct := esp[4+bs:]
	if err := Reblock(s.block, esp[4:4+bs], ct, false); err != nil {
		return nil, 0, err
	}
	padLen := int(ct[len(ct)-2])
	if padLen+2 > len(ct) {
		return nil, 0, errESPPad
	}
	return ct[:len(ct)-2-padLen], ct[len(ct)-1], nil
}

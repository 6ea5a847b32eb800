package ipsec

import (
	"crypto/cipher"
	"fmt"

	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/proto"
)

// The flat ESP reference builders: one contiguous plaintext in, one
// freshly allocated wire image out, keyed from the SA on every call.
// They share nothing with the production paths (no schedule, no mbufs,
// no in-place cipher: CBC runs through the standard library's mode,
// not Reblock), which is what makes them oracles for wrapESPChain and
// openESPInPlace.

// flatCipher resolves sa's switch row afresh: exactly one of the
// returned AEAD and block cipher is non-nil on success.
func flatCipher(sa *key.SA) (cipher.AEAD, []byte, cipher.Block, error) {
	if a, ok := LookupAEAD(sa.EncAlg); ok {
		aead, salt, err := a.New(sa.EncKey)
		return aead, salt, nil, err
	}
	enc, ok := LookupEnc(sa.EncAlg)
	if !ok {
		return nil, nil, nil, fmt.Errorf("ipsec: unknown encryption algorithm %q", sa.EncAlg)
	}
	blk, err := enc.NewCipher(sa.EncKey)
	return nil, nil, blk, err
}

// buildESPTransport encrypts plaintext (an upper-layer payload in
// transport mode) under sa and returns the full ESP payload starting
// with the SPI.
func buildESPTransport(sa *key.SA, plaintext []byte, payloadType uint8) ([]byte, error) {
	return buildESPTransportIV(sa, plaintext, payloadType, nil)
}

// buildESPTransportIV is buildESPTransport with the CBC rows' IV given
// instead of drawn fresh (nil draws one), so a test can rebuild a
// sealed packet byte for byte from the IV it carries.  AEAD rows take
// no IV.
func buildESPTransportIV(sa *key.SA, plaintext []byte, payloadType uint8, iv []byte) ([]byte, error) {
	aead, salt, blk, err := flatCipher(sa)
	if err != nil {
		return nil, err
	}
	if aead != nil {
		seq := sa.NextSeq()
		out := make([]byte, espAEADHdr, espAEADHdr+len(plaintext)+1+aead.Overhead())
		put32(out, sa.SPI)
		put64(out[4:], seq)
		var nonce [12]byte
		copy(nonce[:], salt)
		put64(nonce[4:], seq)
		body := append(append([]byte(nil), plaintext...), payloadType)
		return aead.Seal(out, nonce[:], body, out[:espAEADHdr]), nil
	}
	bs := blk.BlockSize()
	pad := (bs - (len(plaintext)+2)%bs) % bs
	body := make([]byte, len(plaintext)+pad+2)
	copy(body, plaintext)
	body[len(body)-2] = byte(pad)
	body[len(body)-1] = payloadType
	out := make([]byte, 4+bs+len(body))
	put32(out, sa.SPI)
	if iv == nil {
		newIV(out[4 : 4+bs])
	} else {
		copy(out[4:4+bs], iv)
	}
	copy(out[4+bs:], body)
	cipher.NewCBCEncrypter(blk, out[4:4+bs]).CryptBlocks(out[4+bs:], out[4+bs:])
	return out, nil
}

// openESP decrypts the ESP payload b (starting at the SPI) and returns
// the inner plaintext and payload type; the plaintext never aliases b.
func openESP(sa *key.SA, b []byte) ([]byte, uint8, error) {
	aead, salt, blk, err := flatCipher(sa)
	if err != nil {
		return nil, 0, err
	}
	if aead != nil {
		if len(b) < espAEADHdr+1+aead.Overhead() {
			return nil, 0, errESPShort
		}
		var nonce [12]byte
		copy(nonce[:], salt)
		copy(nonce[4:], b[4:12])
		pt, err := aead.Open(nil, nonce[:], b[espAEADHdr:], b[:espAEADHdr])
		if err != nil {
			return nil, 0, errESPAuth
		}
		return pt[:len(pt)-1], pt[len(pt)-1], nil
	}
	bs := blk.BlockSize()
	if len(b) < 4+bs+bs {
		return nil, 0, errESPShort
	}
	if (len(b)-4-bs)%bs != 0 {
		return nil, 0, fmt.Errorf("ipsec: ciphertext not a whole number of blocks")
	}
	ct := append([]byte(nil), b[4+bs:]...)
	cipher.NewCBCDecrypter(blk, b[4:4+bs]).CryptBlocks(ct, ct)
	padLen := int(ct[len(ct)-2])
	if padLen+2 > len(ct) {
		return nil, 0, errESPPad
	}
	return ct[:len(ct)-2-padLen], ct[len(ct)-1], nil
}

// buildESPTunnel encapsulates an entire IPv6 datagram: the inner
// packet is rebuilt under hdr and encrypted whole; the caller prepends
// the cleartext outer header.
func buildESPTunnel(sa *key.SA, hdr *ipv6.Header, payload []byte, nh uint8) ([]byte, error) {
	return buildESPTransport(sa, tunnelDatagram(hdr, payload, nh), proto.IPv6)
}

// tunnelDatagram is the inner datagram tunnel mode encrypts: payload
// under a copy of hdr carrying next header nh.
func tunnelDatagram(hdr *ipv6.Header, payload []byte, nh uint8) []byte {
	inner := *hdr
	inner.NextHdr = nh
	inner.PayloadLen = len(payload)
	return append(inner.Marshal(nil), payload...)
}

package ipsec

import (
	"bytes"
	"testing"

	"bsd6/internal/key"
)

// FuzzESPUnpad attacks the RFC 1829 ESP trailer handling from both
// sides: the open path must survive arbitrary ciphertext (whose
// decrypted pad-length byte is attacker-ish garbage), and seal→open
// must be the identity on the plaintext and payload type for every
// input length, since the pad inserted to reach a whole DES block is
// exactly what the unpad strips.
func FuzzESPUnpad(f *testing.F) {
	f.Add([]byte("payload"), uint8(41))
	f.Add([]byte{}, uint8(6))
	f.Add(make([]byte, 64), uint8(17))
	f.Add([]byte{0, 0, 0x10, 0x01, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, ptype uint8) {
		if _, ok := LookupEnc("des-cbc"); !ok {
			t.Skip("des-cbc not registered")
		}
		sa := &key.SA{SPI: 0x1001, EncAlg: "des-cbc",
			EncKey: []byte{1, 2, 3, 4, 5, 6, 7, 8}}

		// Arbitrary bytes as ciphertext: any outcome but a panic.
		if inner, _, err := openCopy(t, sa, data); err == nil {
			if len(inner) > len(data) {
				t.Fatalf("open grew %d bytes into %d", len(data), len(inner))
			}
		}

		wrapped := sealBytes(t, sa, data, ptype)
		inner, pt, err := openCopy(t, sa, wrapped)
		if err != nil {
			t.Fatalf("open of own seal failed: %v", err)
		}
		if pt != ptype || !bytes.Equal(inner, data) {
			t.Fatalf("round trip mangled payload: type %d->%d, %d->%d bytes",
				ptype, pt, len(data), len(inner))
		}
	})
}

// FuzzAEADSeal attacks the sequenced AEAD framing from both sides: the
// open path must survive arbitrary bytes (truncations, bit flips,
// forged tags) without panicking and without ever returning success
// for anything the seal path did not produce; seal→open must be the
// identity on plaintext and payload type for every input length.
func FuzzAEADSeal(f *testing.F) {
	f.Add([]byte("payload"), uint8(41), []byte{})
	f.Add([]byte{}, uint8(6), []byte{1, 2, 3})
	f.Add(make([]byte, 64), uint8(17), make([]byte, 40))

	f.Fuzz(func(t *testing.T, data []byte, ptype uint8, garbage []byte) {
		alg, ok := LookupAEAD("aes-gcm")
		if !ok {
			t.Skip("aes-gcm not registered")
		}
		k := make([]byte, alg.KeySize())
		for i := range k {
			k[i] = byte(i * 3)
		}
		sa := &key.SA{SPI: 0x2002, EncAlg: "aes-gcm", EncKey: k}

		// Arbitrary bytes as ciphertext: must error, never panic (the
		// odds of garbage carrying a valid 128-bit tag are nil).
		if _, _, err := openCopy(t, sa, garbage); err == nil && len(garbage) > 0 {
			t.Fatalf("%d random bytes authenticated", len(garbage))
		}

		wrapped := sealBytes(t, sa, data, ptype)
		inner, pt, err := openCopy(t, sa, wrapped)
		if err != nil {
			t.Fatalf("open of own seal failed: %v", err)
		}
		if pt != ptype || !bytes.Equal(inner, data) {
			t.Fatalf("round trip mangled payload: type %d->%d, %d->%d bytes",
				ptype, pt, len(data), len(inner))
		}
		// Any single-byte corruption must be rejected.
		if len(wrapped) > 0 {
			i := len(data) % len(wrapped)
			wrapped[i] ^= 1
			if _, _, err := openCopy(t, sa, wrapped); err == nil {
				t.Fatalf("corruption at byte %d authenticated", i)
			}
		}
	})
}

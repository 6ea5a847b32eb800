package ipsec

import (
	"bytes"
	"testing"

	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

func aeadSA(t testing.TB, alg string) *key.SA {
	t.Helper()
	a, ok := LookupAEAD(alg)
	if !ok {
		t.Fatalf("no AEAD %s", alg)
	}
	k := make([]byte, a.KeySize())
	for i := range k {
		k[i] = byte(i * 7)
	}
	return &key.SA{
		SPI: 0x3003, Dst: ip6(t, "2001:db8::2"), Proto: key.ProtoESPTransport,
		EncAlg: alg, EncKey: k, Replay: &key.Replay{},
	}
}

func TestAEADESPRoundTrip(t *testing.T) {
	for _, alg := range []string{"aes-gcm", "aes256-gcm"} {
		sa := aeadSA(t, alg)
		payload := []byte("upper layer header and data carried at line rate")
		wire := sealBytes(t, sa, payload, proto.TCP)
		if get32be(wire) != sa.SPI {
			t.Fatalf("%s: SPI not cleartext", alg)
		}
		if get64be(wire[4:]) != 1 {
			t.Fatalf("%s: first sequence number = %d, want 1", alg, get64be(wire[4:]))
		}
		if bytes.Contains(wire, payload[:8]) {
			t.Fatalf("%s: plaintext visible", alg)
		}
		inner, nh, err := openCopy(t, sa, wire)
		if err != nil || nh != proto.TCP || !bytes.Equal(inner, payload) {
			t.Fatalf("%s: unwrap = %q nh=%d err=%v", alg, inner, nh, err)
		}
		// The sequence number advances per packet.
		wire2 := sealBytes(t, sa, payload, proto.TCP)
		if get64be(wire2[4:]) != 2 {
			t.Fatalf("%s: second sequence number = %d", alg, get64be(wire2[4:]))
		}
	}
}

func TestAEADESPTamperFails(t *testing.T) {
	sa := aeadSA(t, "aes-gcm")
	wire := sealBytes(t, sa, []byte("integrity protected"), proto.UDP)
	for _, flip := range []int{0, 5, espAEADHdr + 3, len(wire) - 1} {
		img := append([]byte(nil), wire...)
		img[flip] ^= 1
		if _, _, err := openCopy(t, sa, img); err == nil {
			t.Fatalf("tamper at byte %d accepted", flip)
		} else if flip >= 4 && err != errESPAuth {
			t.Fatalf("tamper at byte %d: err=%v, want errESPAuth", flip, err)
		}
	}
	// Flipping the SPI byte changes only the AAD — still errESPAuth.
	img := append([]byte(nil), wire...)
	img[0] ^= 1
	if _, _, err := openCopy(t, sa, img); err != errESPAuth {
		t.Fatalf("AAD tamper: err=%v", err)
	}
}

func TestAEADWireSeq(t *testing.T) {
	// The seal path numbers an association's packets 1, 2, 3, ... in
	// the cleartext framing the replay window reads.
	sa := aeadSA(t, "aes-gcm")
	for want := uint64(1); want <= 5; want++ {
		out, err := wrapESPChain(sa, nil, mbuf.New([]byte("p")), proto.UDP)
		if err != nil {
			t.Fatal(err)
		}
		if seq := get64be(out.Bytes()[4:]); seq != want {
			t.Fatalf("wire seq = %d want %d", seq, want)
		}
		out.Free()
	}
}

func TestAEADKeySizeEnforced(t *testing.T) {
	sa := aeadSA(t, "aes-gcm")
	sa.EncKey = sa.EncKey[:16] // missing the salt
	if _, err := buildESPTransport(sa, []byte("x"), proto.UDP); err == nil {
		t.Fatal("short AEAD key accepted by the oracle")
	}
	if _, err := wrapESPChain(sa, nil, mbuf.New([]byte("x")), proto.UDP); err == nil {
		t.Fatal("short AEAD key accepted by the seal path")
	}
}

func TestSequencedAHRoundTrip(t *testing.T) {
	sa := ahSA(t)
	sa.AuthAlg = "hmac-sha256"
	sa.AuthKey = []byte("a 32 byte hmac key for sha256!!!")
	hdr := testHdr(t)
	payload := []byte("sequenced authentication data")
	wrapped, err := buildAH(sa, hdr, payload, proto.UDP)
	if err != nil {
		t.Fatal(err)
	}
	whdr := *hdr
	whdr.NextHdr = proto.AH
	whdr.PayloadLen = len(wrapped)
	img := append(whdr.Marshal(nil), wrapped...)

	nh, ahLen, seq, ok := verifyAHSeq(sa, &whdr, img, ipv6.HeaderLen)
	wantLen := ahFixedLen + ahSeqLen + 16
	if !ok || nh != proto.UDP || ahLen != wantLen || seq != 1 {
		t.Fatalf("verify: nh=%d len=%d seq=%d ok=%v", nh, ahLen, seq, ok)
	}
	// Length field is in 4-byte units over seq+digest.
	if int(img[ipv6.HeaderLen+1]) != (ahSeqLen+16)/4 {
		t.Fatalf("AH length field = %d", img[ipv6.HeaderLen+1])
	}
	// Tamper with the sequence number: the digest covers it.
	img[ipv6.HeaderLen+ahFixedLen+7] ^= 1
	if _, _, _, ok := verifyAHSeq(sa, &whdr, img, ipv6.HeaderLen); ok {
		t.Fatal("sequence tamper accepted")
	}
}

func TestClassicAHFramingUnchanged(t *testing.T) {
	// The paper-era keyed digests must keep the RFC 1826 framing: no
	// sequence field, length = digest words.
	sa := ahSA(t)
	wrapped, err := buildAH(sa, testHdr(t), []byte("data"), proto.TCP)
	if err != nil {
		t.Fatal(err)
	}
	if int(wrapped[1]) != 16/4 {
		t.Fatalf("keyed-md5 AH length field = %d, want 4", wrapped[1])
	}
	if len(wrapped) < ahFixedLen+16 || sequenced(mustAuth(t, "keyed-md5")) {
		t.Fatal("classic framing grew a sequence number")
	}
}

func mustAuth(t testing.TB, name string) AuthAlg {
	t.Helper()
	a, ok := LookupAuth(name)
	if !ok {
		t.Fatalf("no auth %s", name)
	}
	return a
}

// chainOf builds a multi-segment mbuf chain carrying data split at
// arbitrary points, exercising the chain-aware gather paths.
func chainOf(data []byte, cuts ...int) *mbuf.Mbuf {
	m := mbuf.New(data[:cuts[0]])
	prev := cuts[0]
	for _, c := range cuts[1:] {
		m.AppendNoCopy(data[prev:c])
		prev = c
	}
	m.AppendNoCopy(data[prev:])
	return m
}

func TestWrapESPChainMatchesFlat(t *testing.T) {
	// The chain-aware seal must produce a payload the flat opener
	// accepts, for every AEAD and classic CBC row.
	for _, alg := range espRows {
		sa := rowSA(t, alg, key.ProtoESPTransport, 0x3003, ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2"))
		data := bytes.Repeat([]byte("chain-aware segment data "), 20)
		chain := chainOf(data, 17, 100, 333)
		out, err := wrapESPChain(sa, nil, chain, proto.TCP)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		inner, nh, err := openESP(sa, out.Bytes())
		if err != nil || nh != proto.TCP || !bytes.Equal(inner, data) {
			t.Fatalf("%s: chain wrap round trip failed: err=%v nh=%d", alg, err, nh)
		}
		out.Free()
		chain.Free()
	}
}

func TestWrapESPChainPrefix(t *testing.T) {
	// Tunnel mode passes the marshaled inner header as prefix; the
	// opener must see prefix||payload as one plaintext.
	sa := aeadSA(t, "aes-gcm")
	prefix := []byte("INNER-HEADER")
	data := []byte("inner payload bytes")
	chain := chainOf(data, 5)
	out, err := wrapESPChain(sa, prefix, chain, proto.IPv6)
	if err != nil {
		t.Fatal(err)
	}
	inner, nh, err := openESP(sa, out.Bytes())
	if err != nil || nh != proto.IPv6 || !bytes.Equal(inner, append(append([]byte(nil), prefix...), data...)) {
		t.Fatalf("prefix wrap: err=%v nh=%d", err, nh)
	}
	out.Free()
	chain.Free()
}

func TestBuildAHChainVerifies(t *testing.T) {
	sa := ahSA(t)
	sa.AuthAlg = "hmac-sha256"
	sa.AuthKey = []byte("a 32 byte hmac key for sha256!!!")
	hdr := testHdr(t)
	data := bytes.Repeat([]byte("streamed digest over segments "), 8)
	chain := chainOf(data, 31, 64)
	if err := buildAHChain(sa, hdr, chain, proto.TCP); err != nil {
		t.Fatal(err)
	}
	wrapped := chain.Bytes()
	whdr := *hdr
	whdr.NextHdr = proto.AH
	whdr.PayloadLen = len(wrapped)
	img := append(whdr.Marshal(nil), wrapped...)
	nh, _, seq, ok := verifyAHSeq(sa, &whdr, img, ipv6.HeaderLen)
	if !ok || nh != proto.TCP || seq != 1 {
		t.Fatalf("chain AH verify: nh=%d seq=%d ok=%v", nh, seq, ok)
	}
	chain.Free()
}

func BenchmarkAEADSeal(b *testing.B) {
	sa := aeadSA(b, "aes-gcm")
	data := bytes.Repeat([]byte("x"), 1400)
	chain := mbuf.New(data)
	defer chain.Free()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wrapESPChain(sa, nil, chain, proto.TCP)
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
	}
}

func BenchmarkDESCBCSeal(b *testing.B) {
	sa := espSA(b, "des-cbc")
	data := bytes.Repeat([]byte("x"), 1400)
	chain := mbuf.New(data)
	defer chain.Free()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wrapESPChain(sa, nil, chain, proto.TCP)
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
	}
}

// BenchmarkESPSealOpen is one secured packet's crypto round trip on the
// production paths: a 1400-byte aes-gcm seal, the base header
// prepended into the slab headroom, and the in-place open.
func BenchmarkESPSealOpen(b *testing.B) {
	sa := aeadSA(b, "aes-gcm")
	data := bytes.Repeat([]byte("x"), 1400)
	chain := mbuf.New(data)
	defer chain.Free()
	hdr := make([]byte, ipv6.HeaderLen)
	s := espSchedule(sa)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := wrapESPChain(sa, nil, chain, proto.TCP)
		if err != nil {
			b.Fatal(err)
		}
		out.Prepend(hdr)
		if _, _, err := openESPInPlace(s, out.Bytes(), ipv6.HeaderLen); err != nil {
			b.Fatal(err)
		}
		out.Free()
	}
}

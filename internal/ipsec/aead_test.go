package ipsec

import (
	"bytes"
	"testing"

	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
	"bsd6/internal/route"
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

// sealShapes are the packets the seal path meets, each built fresh
// around data: a pooled packet with room on both sides, sealed where
// it lies, and three that are first gathered into a fresh buffer — a
// multi-segment chain, a packet whose bytes are not from the pool, and
// a pooled packet whose slab has no trailing space left.
var sealShapes = []struct {
	name    string
	inPlace bool
	build   func(data []byte) *mbuf.Mbuf
}{
	{"pooled", true, func(data []byte) *mbuf.Mbuf {
		m := mbuf.Get(len(data))
		copy(m.Bytes(), data)
		return m
	}},
	{"chain", false, func(data []byte) *mbuf.Mbuf { return chainOf(data, 17, 100, 333) }},
	{"new", false, func(data []byte) *mbuf.Mbuf { return mbuf.New(data) }},
	{"full-slab", false, func(data []byte) *mbuf.Mbuf {
		m := mbuf.Get(1792 - mbuf.Headroom) // fills its slab class
		m.Adj(m.Len() - len(data))
		copy(m.Bytes(), data)
		return m
	}},
}

// sealMatchesOracle seals a packet of the given shape under tx with
// prefix and checks the result byte for byte against the flat oracle
// sealing prefix||data under ref, a twin of tx.  CBC rows draw a random
// IV, so the oracle is handed the one the sealed packet carries.
func sealMatchesOracle(t *testing.T, alg, shape string, inPlace bool, pkt *mbuf.Mbuf, tx, ref *key.SA, prefix, data []byte, ptype uint8) {
	t.Helper()
	out, err := wrapESPChain(tx, prefix, pkt, ptype)
	if err != nil {
		t.Fatalf("%s/%s: seal: %v", alg, shape, err)
	}
	defer out.Free()
	if (out == pkt) != inPlace {
		t.Fatalf("%s/%s: sealed in place = %v, want %v", alg, shape, out == pkt, inPlace)
	}
	if out.Segments() != 1 {
		t.Fatalf("%s/%s: sealed packet has %d segments", alg, shape, out.Segments())
	}
	got := out.Bytes()
	var iv []byte
	if _, ok := LookupAEAD(alg); !ok {
		bs := espSchedule(tx).block.BlockSize()
		iv = got[4 : 4+bs]
	}
	want, err := buildESPTransportIV(ref, append(append([]byte(nil), prefix...), data...), ptype, iv)
	if err != nil {
		t.Fatalf("%s/%s: oracle: %v", alg, shape, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s/%s: sealed %d bytes differ from the oracle's %d", alg, shape, len(got), len(want))
	}
}

func TestWrapESPChainMatchesFlat(t *testing.T) {
	// Transport mode: for every AEAD and CBC row and every packet
	// shape, in place or gathered, the seal is byte-identical to the
	// flat oracle's.  Poison is on, so a seal that read or left
	// anything in a freed slab would show.
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	src, dst := ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2")
	data := bytes.Repeat([]byte("chain-aware segment data "), 20)
	for _, alg := range espRows {
		for _, sh := range sealShapes {
			tx := rowSA(t, alg, key.ProtoESPTransport, 0x3003, src, dst)
			ref := rowSA(t, alg, key.ProtoESPTransport, 0x3003, src, dst)
			sealMatchesOracle(t, alg, sh.name, sh.inPlace, sh.build(data), tx, ref, nil, data, proto.TCP)
		}
	}
}

func TestWrapESPChainPrefix(t *testing.T) {
	// Tunnel mode passes the marshaled inner header as prefix: the
	// seal must equal the flat tunnel oracle's, prefix||payload
	// encrypted as one datagram, for every row and shape.
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	src, dst := ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2")
	inner := &ipv6.Header{HopLimit: 64, Src: src, Dst: dst}
	data := bytes.Repeat([]byte("inner payload bytes "), 25)
	prefix := tunnelDatagram(inner, data, proto.TCP)[:ipv6.HeaderLen]
	for _, alg := range espRows {
		for _, sh := range sealShapes {
			tx := rowSA(t, alg, key.ProtoESPTunnel, 0x3004, src, dst)
			ref := rowSA(t, alg, key.ProtoESPTunnel, 0x3004, src, dst)
			sealMatchesOracle(t, alg, sh.name, sh.inPlace, sh.build(data), tx, ref, prefix, data, proto.IPv6)
		}
	}
}

// TestOutputPolicyCounters drives a fixed stream through the output
// hook under ESP transport plus ESP tunnel and checks the service
// counters and each association's packet and byte counts: every
// association is charged the length of the packet it was handed,
// before its own wrapping.
func TestOutputPolicyCounters(t *testing.T) {
	src, dst := ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2")
	m := Attach(ipv6.NewLayer(route.NewTable()), key.NewEngine())
	esp := rowSA(t, "aes-gcm", key.ProtoESPTransport, 0x3101, src, dst)
	tun := rowSA(t, "des-cbc", key.ProtoESPTunnel, 0x3102, src, dst)
	for _, sa := range []*key.SA{esp, tun} {
		if err := m.Key.Add(sa); err != nil {
			t.Fatal(err)
		}
	}
	m.SetSystemPolicy(SockOpts{ESPTransport: LevelRequire, ESPTunnel: LevelRequire})
	hdr := ipv6.Header{HopLimit: 64, Src: src, Dst: dst}
	var espBytes, tunBytes uint64
	for i, n := range []int{1, 20, 100, 536, 1200, 1400} {
		pkt := mbuf.Get(n)
		copy(pkt.Bytes(), bytes.Repeat([]byte{byte(i)}, n))
		out, nh, odst, err := m.OutputPolicy(hdr, pkt, proto.UDP, nil, nil)
		if err != nil || nh != proto.ESP || odst != dst {
			t.Fatalf("%d bytes: nh=%d dst=%v err=%v", n, nh, odst, err)
		}
		espOut := espAEADHdr + n + 1 + 16               // aes-gcm transport framing
		tunIn := ipv6.HeaderLen + espOut                // inner header + transport ESP
		tunOut := 4 + 8 + tunIn + (8-(tunIn+2)%8)%8 + 2 // des-cbc framing
		if out.Len() != tunOut {
			t.Fatalf("%d bytes: sealed %d, want %d", n, out.Len(), tunOut)
		}
		out.Free()
		espBytes += uint64(n)
		tunBytes += uint64(espOut)
	}
	if got := m.Stats.OutESP.Get(); got != 6 {
		t.Errorf("OutESP = %d, want 6", got)
	}
	if got := m.Stats.OutTunnel.Get(); got != 6 {
		t.Errorf("OutTunnel = %d, want 6", got)
	}
	for _, c := range []struct {
		name  string
		sa    *key.SA
		bytes uint64
	}{{"transport", esp, espBytes}, {"tunnel", tun, tunBytes}} {
		if c.sa.OutPkts != 6 || c.sa.OutBytes != c.bytes || c.sa.ByteCount != c.bytes {
			t.Errorf("%s SA: OutPkts=%d OutBytes=%d ByteCount=%d, want 6, %d, %d",
				c.name, c.sa.OutPkts, c.sa.OutBytes, c.sa.ByteCount, c.bytes, c.bytes)
		}
	}
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

// sealBench times the seal path on a fresh pooled 1400-byte packet per
// iteration, as output hands it one: sealing consumes its input.
func sealBench(b *testing.B, sa *key.SA) {
	data := bytes.Repeat([]byte("x"), 1400)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := mbuf.Get(len(data))
		copy(pkt.Bytes(), data)
		out, err := wrapESPChain(sa, nil, pkt, proto.TCP)
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
	}
}

func BenchmarkAEADSeal(b *testing.B) { sealBench(b, aeadSA(b, "aes-gcm")) }

func BenchmarkDESCBCSeal(b *testing.B) { sealBench(b, espSA(b, "des-cbc")) }

// BenchmarkESPSealOpen is one secured packet's crypto round trip on the
// production paths: a fresh pooled 1400-byte segment sealed in place
// under aes-gcm, the base header prepended into the slab headroom, and
// the in-place open.
func BenchmarkESPSealOpen(b *testing.B) {
	sa := aeadSA(b, "aes-gcm")
	data := bytes.Repeat([]byte("x"), 1400)
	hdr := make([]byte, ipv6.HeaderLen)
	s := espSchedule(sa)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt := mbuf.Get(len(data))
		copy(pkt.Bytes(), data)
		out, err := wrapESPChain(sa, nil, pkt, proto.TCP)
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

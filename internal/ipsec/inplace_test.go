package ipsec

import (
	"bytes"
	"sync"
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// espRows is every ESP switch row: the AEAD entries and the classic
// block ciphers sharing the RFC 1829 framing.
var espRows = []string{"aes-gcm", "aes256-gcm", "des-cbc", "3des-cbc", "idea-cbc"}

// rowSA returns an association for one switch row, keyed with a fixed
// pattern of the row's key size.
func rowSA(t testing.TB, alg string, p key.SecProto, spi uint32, src, dst inet.IP6) *key.SA {
	t.Helper()
	n := 0
	if a, ok := LookupAEAD(alg); ok {
		n = a.KeySize()
	} else if e, ok := LookupEnc(alg); ok {
		n = e.KeySize()
	} else {
		t.Fatalf("no ESP row %s", alg)
	}
	k := make([]byte, n)
	for i := range k {
		k[i] = byte(i*11 + 5)
	}
	return &key.SA{SPI: spi, Src: src, Dst: dst, Proto: p, EncAlg: alg, EncKey: k}
}

// espPacket returns a pooled packet carrying an IPv6 header from src
// to dst followed by the ESP payload esp, and that header.
func espPacket(src, dst inet.IP6, esp []byte) (*mbuf.Mbuf, *ipv6.Header) {
	hdr := &ipv6.Header{NextHdr: proto.ESP, HopLimit: 64, Src: src, Dst: dst, PayloadLen: len(esp)}
	pkt := mbuf.Get(ipv6.HeaderLen + len(esp))
	b := pkt.Bytes()
	hdr.Marshal(b[:0])
	copy(b[ipv6.HeaderLen:], esp)
	return pkt, hdr
}

// openCopy runs the production open path over a copy of esp (an ESP
// payload starting at its SPI) placed behind a stand-in base header,
// and checks that the header bytes the AEAD nonce borrows come back
// unchanged whatever the outcome.
func openCopy(t testing.TB, sa *key.SA, esp []byte) ([]byte, uint8, error) {
	t.Helper()
	hdr := bytes.Repeat([]byte{0x60}, ipv6.HeaderLen)
	buf := append(append([]byte(nil), hdr...), esp...)
	inner, nh, err := openESPInPlace(espSchedule(sa), buf, ipv6.HeaderLen)
	if !bytes.Equal(buf[:ipv6.HeaderLen], hdr) {
		t.Fatalf("open left the base header modified (err=%v)", err)
	}
	return inner, nh, err
}

// sealBytes runs the production seal path over data and returns the
// ESP payload bytes.
func sealBytes(t testing.TB, sa *key.SA, data []byte, ptype uint8) []byte {
	t.Helper()
	out, err := wrapESPChain(sa, nil, mbuf.New(data), ptype)
	if err != nil {
		t.Fatalf("wrap(%d bytes): %v", len(data), err)
	}
	defer out.Free()
	return out.CopyBytes()
}

func TestInPlaceOpenMatchesOracle(t *testing.T) {
	// For every switch row and both modes, the in-place open turns the
	// oracle's wire image into exactly the datagram the flat opener
	// implies.
	src, dst := ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2")
	payload := bytes.Repeat([]byte("opened where it landed "), 23)
	for _, alg := range espRows {
		for _, p := range []key.SecProto{key.ProtoESPTransport, key.ProtoESPTunnel} {
			name := alg + "/" + p.String()
			tx := rowSA(t, alg, p, 0x4400, src, dst)
			rx := *tx
			m := Attach(ipv6.NewLayer(route.NewTable()), key.NewEngine())
			if err := m.Key.Add(&rx); err != nil {
				t.Fatal(err)
			}

			var esp, want []byte
			var err error
			innerNH := uint8(proto.UDP)
			if p == key.ProtoESPTransport {
				esp, err = buildESPTransport(tx, payload, proto.UDP)
				h := ipv6.Header{NextHdr: proto.UDP, HopLimit: 64, Src: src, Dst: dst, PayloadLen: len(payload)}
				want = append(h.Marshal(nil), payload...)
			} else {
				inner := &ipv6.Header{HopLimit: 63, Src: src, Dst: dst}
				esp, err = buildESPTunnel(tx, inner, payload, proto.UDP)
				h := *inner
				h.NextHdr, h.PayloadLen = proto.UDP, len(payload)
				want = append(h.Marshal(nil), payload...)
				innerNH = proto.IPv6
			}
			if err != nil {
				t.Fatalf("%s: oracle seal: %v", name, err)
			}
			flat, nh, err := openESP(&rx, esp)
			if err != nil || nh != innerNH || !bytes.Equal(flat, want[len(want)-len(flat):]) {
				t.Fatalf("%s: oracle open: nh=%d err=%v", name, nh, err)
			}

			pkt, hdr := espPacket(src, dst, esp)
			if act := m.Input(pkt, *hdr, proto.ESP, ipv6.HeaderLen); act != ipv6.SecReinject {
				t.Fatalf("%s: Input = %v, want SecReinject", name, act)
			}
			if got := pkt.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("%s: in-place open produced %d bytes, want %d (first diff at header? %v)",
					name, len(got), len(want), !bytes.Equal(got[:ipv6.HeaderLen], want[:ipv6.HeaderLen]))
			}
			h := pkt.Hdr()
			if h.Flags&mbuf.MDecrypted == 0 || len(h.AuxSPI) != 1 || h.AuxSPI[0] != rx.SPI {
				t.Fatalf("%s: flags=%#x AuxSPI=%v", name, h.Flags, h.AuxSPI)
			}
			pkt.Free()
		}
	}
}

// deliverESP feeds a pooled copy of hdr||esp into n's IPv6 input.
func deliverESP(n *secNode, src, dst inet.IP6, esp []byte) {
	pkt, _ := espPacket(src, dst, esp)
	n.l.Input(n.ifps[0], pkt)
}

// udpSink records the flags of every UDP datagram a node's IPv6 layer
// delivers, freeing each packet as a transport input routine would.
type udpSink struct {
	mu    sync.Mutex
	flags []int
}

func (s *udpSink) hook(n *secNode) {
	n.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		s.mu.Lock()
		s.flags = append(s.flags, pkt.Hdr().Flags)
		s.mu.Unlock()
		pkt.Free()
	}, nil)
}

func (s *udpSink) seen() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.flags...)
}

func lastDrop(t *testing.T, r *stat.Recorder, reason stat.Reason) stat.TraceEvent {
	t.Helper()
	ev := r.Events()
	if len(ev) == 0 || ev[len(ev)-1].Reason != reason.String() {
		t.Fatalf("last trace event %+v, want a %s drop", ev, reason)
	}
	return ev[len(ev)-1]
}

func TestESPInPlaceDropsUnderPoison(t *testing.T) {
	// The typed drops of the open path, with every freed slab
	// poisoned: a tampered packet is a bad-ICV drop, a replay is
	// refused before any decryption, a forged tunnel source loses its
	// credentials, and no slab is lost on any of those paths.
	mbuf.SetPoison(true)
	t.Cleanup(func() { mbuf.SetPoison(false) })
	base := mbuf.Outstanding()

	a, b := securePair(t)
	b.l.Drops = stat.NewRecorder(16)
	sink := &udpSink{}
	sink.hook(b)
	src, dst := a.ll(), b.ll()
	udp := []byte{0x30, 0x39, 0x00, 0x07, 0x00, 0x10, 0x00, 0x00, 'p', 'o', 'i', 's', 'o', 'n', 'e', 'd'}

	tx := rowSA(t, "aes-gcm", key.ProtoESPTransport, 0xc00, src, dst)
	rx := *tx
	if err := b.ke.Add(&rx); err != nil {
		t.Fatal(err)
	}
	good, _ := buildESPTransport(tx, udp, proto.UDP)
	deliverESP(b, src, dst, good)
	if got := sink.seen(); len(got) != 1 || got[0]&mbuf.MDecrypted == 0 {
		t.Fatalf("good packet: deliveries %v", got)
	}

	// Tampered: the trace keeps header, SPI and sequence, but GCM has
	// cleared the would-be plaintext.
	bad, _ := buildESPTransport(tx, udp, proto.UDP)
	bad[espAEADHdr+3] ^= 1
	deliverESP(b, src, dst, bad)
	if n := b.l.Drops.Reasons.Get(stat.RSecBadICV); n != 1 {
		t.Fatalf("bad-icv drops = %d", n)
	}
	ev := lastDrop(t, b.l.Drops, stat.RSecBadICV)
	wantHdr := (&ipv6.Header{NextHdr: proto.ESP, HopLimit: 64, Src: src, Dst: dst, PayloadLen: len(bad)}).Marshal(nil)
	if !bytes.Equal(ev.Pkt[:ipv6.HeaderLen], wantHdr) || !bytes.Equal(ev.Pkt[ipv6.HeaderLen:ipv6.HeaderLen+espAEADHdr], bad[:espAEADHdr]) {
		t.Fatal("bad-icv trace lost the header, SPI or sequence")
	}
	if ct := ev.Pkt[ipv6.HeaderLen+espAEADHdr : ipv6.HeaderLen+espAEADHdr+len(udp)]; !bytes.Equal(ct, make([]byte, len(udp))) {
		t.Fatalf("bad-icv trace kept ciphertext %x", ct)
	}

	// Replayed: refused by the window before the cipher ran, so the
	// trace still shows the untouched ciphertext.
	okBefore := b.sec.Stats.InDecryptOK.Get()
	deliverESP(b, src, dst, good)
	if n := b.l.Drops.Reasons.Get(stat.RSecReplay); n != 1 {
		t.Fatalf("replay drops = %d", n)
	}
	ev = lastDrop(t, b.l.Drops, stat.RSecReplay)
	if !bytes.Equal(ev.Pkt[ipv6.HeaderLen:], good[:len(ev.Pkt)-ipv6.HeaderLen]) {
		t.Fatal("replayed packet was touched before the replay check")
	}
	if b.sec.Stats.InDecryptOK.Get() != okBefore || len(sink.seen()) != 1 {
		t.Fatal("replayed packet was decrypted or delivered")
	}

	// Forged tunnel source: delivered, but without MAuthentic or
	// MDecrypted.
	ttx := rowSA(t, "aes-gcm", key.ProtoESPTunnel, 0xc10, src, dst)
	trx := *ttx
	if err := b.ke.Add(&trx); err != nil {
		t.Fatal(err)
	}
	inner := &ipv6.Header{HopLimit: 64, Src: ip6(t, "fe80::bad"), Dst: dst}
	forged, err := buildESPTunnel(ttx, inner, udp, proto.UDP)
	if err != nil {
		t.Fatal(err)
	}
	deliverESP(b, src, dst, forged)
	if b.sec.Stats.TunnelSrcFail.Get() != 1 {
		t.Fatal("forged tunnel source not detected")
	}
	got := sink.seen()
	if len(got) != 2 || got[1]&(mbuf.MAuthentic|mbuf.MDecrypted) != 0 {
		t.Fatalf("forged inner packet: deliveries %v", got)
	}

	if out := mbuf.Outstanding(); out != base {
		t.Fatalf("mbuf.Outstanding = %d, want %d", out, base)
	}
}

func TestRekeyTakesEffectAtOnce(t *testing.T) {
	// The ESP schedule belongs to the *key.SA, not to its SPI: once
	// SADB_UPDATE installs a new key under the same SPI, the very next
	// packet in each direction uses it.
	hub := netif.NewHub()
	a, b := newSecNode("a"), newSecNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	b.l.Drops = stat.NewRecorder(16)
	var mu sync.Mutex
	var lastESP []byte
	hub.Capture = func(fr netif.Frame) {
		if img := fr.Payload.CopyBytes(); len(img) > ipv6.HeaderLen && img[6] == proto.ESP {
			mu.Lock()
			lastESP = img[ipv6.HeaderLen:]
			mu.Unlock()
		}
	}
	sink := &udpSink{}
	sink.hook(b)
	src, dst := a.ll(), b.ll()
	k1 := rowSA(t, "aes-gcm", key.ProtoESPTransport, 0xd00, src, dst)
	k2 := rowSA(t, "aes-gcm", key.ProtoESPTransport, 0xd00, src, dst)
	k2.EncKey[0] ^= 0xff
	// Each engine gets its own SA objects, built field by field: a
	// copy of an SA that has carried traffic would share its schedule.
	clone := func(sa *key.SA) *key.SA {
		c := &key.SA{SPI: sa.SPI, Src: sa.Src, Dst: sa.Dst, Proto: sa.Proto, EncAlg: sa.EncAlg}
		c.EncKey = append([]byte(nil), sa.EncKey...)
		return c
	}
	if err := a.ke.Add(clone(k1)); err != nil {
		t.Fatal(err)
	}
	if err := b.ke.Add(clone(k1)); err != nil {
		t.Fatal(err)
	}
	a.sec.SetSystemPolicy(SockOpts{ESPTransport: LevelRequire})
	send := func() {
		t.Helper()
		if err := a.l.Output(mbuf.New([]byte("rekeyed datagram")), inet.IP6{}, dst, proto.UDP, ipv6.OutputOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	if len(sink.seen()) != 1 {
		t.Fatal("first datagram not delivered")
	}

	if err := a.ke.Update(clone(k2)); err != nil {
		t.Fatal(err)
	}
	if err := b.ke.Update(clone(k2)); err != nil {
		t.Fatal(err)
	}
	send()
	if len(sink.seen()) != 2 || b.l.Drops.Reasons.Get(stat.RSecBadICV) != 0 {
		t.Fatalf("datagram after rekey: deliveries %d, bad-icv %d", len(sink.seen()), b.l.Drops.Reasons.Get(stat.RSecBadICV))
	}
	mu.Lock()
	wire := lastESP
	mu.Unlock()
	if _, _, err := openESP(clone(k2), wire); err != nil {
		t.Fatalf("sender did not seal under the new key: %v", err)
	}

	// A packet sealed under the old key, with a sequence number the
	// window would accept, is now an integrity failure at the receiver.
	old := clone(k1)
	old.SeqOut = 9
	stale, _ := buildESPTransport(old, []byte("old key"), proto.UDP)
	deliverESP(b, src, dst, stale)
	if n := b.l.Drops.Reasons.Get(stat.RSecBadICV); n != 1 || len(sink.seen()) != 2 {
		t.Fatalf("old-key packet after rekey: bad-icv %d, deliveries %d", n, len(sink.seen()))
	}
}

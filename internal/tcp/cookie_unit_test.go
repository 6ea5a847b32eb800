package tcp

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/ipv4"
	"bsd6/internal/ipv6"
	"bsd6/internal/proto"
	"bsd6/internal/route"
	"bsd6/internal/stat"
)

// TestCookieACKNeedsRecentOverflow pins the gate in front of cookie
// validation: a correctly computed cookie ACK at a listener that has
// sent no cookie is answered with the RFC 793 reset, accepts nothing
// and charges nothing to the cookie counters.  The same ACK completes
// the handshake once the listener has sent a cookie, and the gate
// shuts again two cookie time units after the last one.
func TestCookieACKNeedsRecentOverflow(t *testing.T) {
	tc := New(ipv4.NewLayer(route.NewTable()), ipv6.NewLayer(route.NewTable()))
	tc.Drops = stat.NewRecorder(0)
	l := tc.Attach(inet.AFInet6, nil)
	if err := l.Bind(inet.IP6{}, 80); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(8); err != nil {
		t.Fatal(err)
	}
	src := inet.IP6{0x20, 0x01, 0x0d, 0xb8, 15: 2}
	dst := inet.IP6{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	meta := proto.Meta{Family: inet.AFInet6, Src6: src, Dst6: dst}
	const clientISN = 1000

	tc.mu.Lock()
	defer tc.mu.Unlock()
	// cookieACK is the completing ACK of a handshake from fport whose
	// SYN-ACK carried a cookie minted now.
	cookieACK := func(fport uint16) *Header {
		k := twTuple{laddr: dst, faddr: src, lport: 80, fport: fport}
		cookie := tc.cookieISN(k, clientISN, 1)
		if _, ok := tc.cookieCheck(k, clientISN, cookie); !ok {
			t.Fatal("freshly minted cookie fails its own check")
		}
		return &Header{SPort: fport, DPort: 80, Seq: clientISN + 1, Ack: cookie + 1, Flags: FlagACK, Wnd: 8192}
	}
	// wantReset checks that ack drew exactly one RST and nothing else.
	wantReset := func(what string, ack *Header) {
		t.Helper()
		rst, validated := tc.Stats.RstOut.Get(), tc.Stats.SynCookiesValidated.Get()
		l.listenInput(ack, nil, &meta, src, dst)
		if got := tc.Stats.RstOut.Get() - rst; got != 1 || len(tc.outbox) != 1 {
			t.Fatalf("%s: %d resets, %d segments out; want the one reset", what, got, len(tc.outbox))
		}
		if h, _, err := parse(tc.outbox[0].pkt.Bytes()); err != nil || h.Flags != FlagRST || h.Seq != ack.Ack {
			t.Fatalf("%s: answered with %+v (%v), want RST seq %d", what, h, err, ack.Ack)
		}
		tc.outbox[0].pkt.Free()
		tc.outbox = tc.outbox[:0]
		if len(l.acceptQ) != 0 || len(tc.conns) != 1 {
			t.Fatalf("%s: %d accepted, %d connections; want none beside the listener", what, len(l.acceptQ), len(tc.conns))
		}
		if tc.Stats.SynCookiesValidated.Get() != validated || tc.Stats.SynCookiesFailed.Get() != 0 ||
			tc.Drops.Reasons.Get(stat.RTCPSynCookieFailed) != 0 {
			t.Fatalf("%s: charged to the cookie counters", what)
		}
	}

	wantReset("listener that never overflowed", cookieACK(4000))

	syn := &Header{SPort: 4000, DPort: 80, Seq: clientISN, Flags: FlagSYN, Wnd: 8192, MSS: 1440}
	l.sendSynCookie(syn, &meta, src, dst)
	for _, seg := range tc.outbox {
		seg.pkt.Free()
	}
	tc.outbox = tc.outbox[:0]
	tc.cookieTick += 1 << cookieTickShift // the next unit still accepts
	l.listenInput(cookieACK(4000), nil, &meta, src, dst)
	if tc.Stats.SynCookiesValidated.Get() != 1 || len(l.acceptQ) != 1 {
		t.Fatalf("cookie ACK after an overflow: %d validated, %d accepted; want 1, 1",
			tc.Stats.SynCookiesValidated.Get(), len(l.acceptQ))
	}
	l.acceptQ[0].closeLocked(nil)
	l.acceptQ = l.acceptQ[:0]

	tc.cookieTick += 1 << cookieTickShift // two units past the last cookie
	wantReset("two units after the last cookie", cookieACK(4001))
}

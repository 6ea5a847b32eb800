package icmp6

import (
	"testing"

	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
)

// TestICMPErrorLinkMulticastSilent: a unicast packet with an unknown
// next header that arrived in a link-layer multicast or broadcast
// frame draws no Parameter Problem (RFC 1885 §2.4(e)); the same packet
// in a unicast frame draws one.
func TestICMPErrorLinkMulticastSilent(t *testing.T) {
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	all, bll := a.linkLocal(0), b.linkLocal(0)
	send := func(flags int) {
		h := &ipv6.Header{NextHdr: 200, HopLimit: 64, PayloadLen: 8, Src: all, Dst: bll}
		pkt := mbuf.New(h.Marshal(nil))
		pkt.Append(make([]byte, 8))
		pkt.Hdr().Flags |= flags
		b.l.Input(b.ifps[0], pkt)
	}
	send(mbuf.MMcast)
	send(mbuf.MBcast)
	if got := b.m.Stats.OutErrors.Get(); got != 0 || b.l.Stats.InUnknownProt.Get() != 2 {
		t.Fatalf("OutErrors = %d over %d unknown-header packets, want 0", got, b.l.Stats.InUnknownProt.Get())
	}
	send(0)
	if got := b.m.Stats.OutErrors.Get(); got != 1 {
		t.Fatalf("OutErrors = %d after a unicast frame, want 1", got)
	}
}

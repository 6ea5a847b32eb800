package ipv4

import (
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
	"bsd6/internal/vclock"
)

// TestICMPErrorReasmTimeoutToGroupSilent: a datagram sent to the
// limited broadcast or a multicast group whose reassembly times out
// draws no Time Exceeded (RFC 1122 §3.2.2), though fragment zero
// arrived and the timeout is counted.
func TestICMPErrorReasmTimeoutToGroupSilent(t *testing.T) {
	for _, dst := range []inet.IP4{{255, 255, 255, 255}, {224, 0, 0, 1}} {
		t.Run(dst.String(), func(t *testing.T) {
			_, b := twoNodes(t)
			h := &Header{TotalLen: HeaderLen + 16, ID: 9, MF: true, TTL: 5, Proto: proto.UDP, Src: addrA, Dst: dst}
			frag := mbuf.New(h.Marshal(nil))
			frag.Append(make([]byte, 16))
			b.l.Input(b.ifps[0], frag)
			if b.l.FragQueueLen() != 1 {
				t.Fatal("fragment not queued")
			}
			b.l.SlowTimo(time.Now().Add(time.Minute))
			if b.l.FragQueueLen() != 0 || b.l.Stats.ReasmFails.Get() != 1 {
				t.Fatalf("queue %d, ReasmFails %d after the timeout", b.l.FragQueueLen(), b.l.Stats.ReasmFails.Get())
			}
			if got := b.ic.Stats.OutErrors.Get(); got != 0 {
				t.Fatalf("OutErrors = %d, want 0", got)
			}
		})
	}
}

// TestICMPErrorLinkBroadcastSilent: a unicast datagram for an unknown
// protocol that arrived in a link-layer broadcast or multicast frame
// draws no Protocol Unreachable (RFC 1122 §3.2.2); the same datagram
// in a unicast frame draws one.
func TestICMPErrorLinkBroadcastSilent(t *testing.T) {
	_, b := twoNodes(t)
	send := func(flags int) {
		h := &Header{TotalLen: HeaderLen + 8, TTL: 5, Proto: 200, Src: addrA, Dst: addrB}
		pkt := mbuf.New(h.Marshal(nil))
		pkt.Append(make([]byte, 8))
		pkt.Hdr().Flags |= flags
		b.l.Input(b.ifps[0], pkt)
	}
	send(mbuf.MBcast)
	send(mbuf.MMcast)
	if got := b.ic.Stats.OutErrors.Get(); got != 0 || b.l.Stats.InUnknownProt.Get() != 2 {
		t.Fatalf("OutErrors = %d over %d unknown-protocol datagrams, want 0", got, b.l.Stats.InUnknownProt.Get())
	}
	send(0)
	if got := b.ic.Stats.OutErrors.Get(); got != 1 {
		t.Fatalf("OutErrors = %d after a unicast frame, want 1", got)
	}
}

// TestICMPErrorRateLimitedV4: a router answers a storm of TTL-1
// datagrams arriving in one instant with DefaultErrPPS Time Exceeded
// messages and refuses the rest, counted and charged as
// icmp4-rate-limited; a second later the bucket has refilled.
func TestICMPErrorRateLimitedV4(t *testing.T) {
	a, r, b := threeNodeNet(t, 1500)
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	onClock(clk, a, r, b)
	rec := stat.NewRecorder(16)
	r.l.Drops = rec
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrB2, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warm-up echo reply", func() bool { return p.count() >= 1 })
	sink(a)
	send := func() {
		if err := a.l.Output(mbuf.New(pattern(32)), inet.IP4{}, addrB2, proto.UDP, OutputOpts{TTL: 1}); err != nil {
			t.Fatal(err)
		}
	}
	const storm = 300
	for i := 0; i < storm; i++ {
		send()
	}
	if got := r.ic.Stats.OutErrors.Get(); got != ip.DefaultErrPPS {
		t.Fatalf("errors sent = %d, want %d (DefaultErrPPS)", got, ip.DefaultErrPPS)
	}
	if got := a.ic.Stats.InMsgs.Get() - 1; got != ip.DefaultErrPPS {
		t.Fatalf("A received %d errors, want %d", got, ip.DefaultErrPPS)
	}
	const limited = storm - ip.DefaultErrPPS
	if got := r.ic.Stats.RateLimited.Get(); got != limited {
		t.Fatalf("RateLimited = %d, want %d", got, limited)
	}
	if got := rec.Reasons.Get(stat.RICMP4RateLimited); got != limited {
		t.Fatalf("icmp4-rate-limited reason = %d, want %d", got, limited)
	}
	clk.Advance(time.Second)
	send()
	if got := r.ic.Stats.OutErrors.Get(); got != ip.DefaultErrPPS+1 {
		t.Fatalf("errors sent after refill = %d, want %d", got, ip.DefaultErrPPS+1)
	}
}

package icmp6

import (
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
	"bsd6/internal/vclock"
)

// forgeInner builds a bare IPv6 header (plus pad payload bytes) to
// embed in a forged ICMPv6 error, claiming src sent dst a packet.
func forgeInner(src, dst inet.IP6, nxt uint8, pad int) []byte {
	b := make([]byte, ipv6.HeaderLen+pad)
	b[0] = 6 << 4
	b[4], b[5] = byte(pad>>8), byte(pad)
	b[6] = nxt
	b[7] = 64
	copy(b[8:24], src[:])
	copy(b[24:40], dst[:])
	return b
}

// forgePTB wraps an inner packet in a Packet Too Big with the given
// claimed MTU, checksummed as from src to dst.
func forgePTB(mtu uint32, inner []byte, src, dst inet.IP6) []byte {
	body := make([]byte, 4+len(inner))
	body[0], body[1], body[2], body[3] = byte(mtu>>24), byte(mtu>>16), byte(mtu>>8), byte(mtu)
	copy(body[4:], inner)
	return marshal(TypePacketTooBig, 0, body, src, dst)
}

func TestHostilePTBClampedAtMinMTU(t *testing.T) {
	// RFC 1883 §5, the specification the paper implements: no
	// conforming IPv6 link is narrower than 576 bytes (ipv6.MinMTU;
	// RFC 2460 later raised the floor to 1280).  A forged Packet Too
	// Big claiming less must not shrink the host route's MTU (and
	// therefore TCP's derived MSS) below the floor.
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	rec := stat.NewRecorder(32)
	a.l.Drops = rec
	all, bll := a.linkLocal(0), b.linkLocal(0)

	// Establish the host route (neighbor entry) the PTB will target.
	p := &pinger{}
	p.hook(a.m)
	if err := a.m.SendEcho(bll, 7, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "echo reply", func() bool { return p.count() >= 1 })

	// A legitimate PTB narrows the path to 1400.
	msg := forgePTB(1400, forgeInner(all, bll, proto.UDP, 0), bll, all)
	if err := b.l.Output(mbuf.New(msg), bll, all, proto.ICMPv6, ipv6.OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	rt, ok := a.rt.Lookup(inet.AFInet6, bll[:])
	if !ok || !rt.Host() || rt.MTU != 1400 {
		t.Fatalf("legitimate PTB not applied: ok=%v mtu=%d", ok, rt.MTU)
	}

	// The hostile PTB claims 296 (an IPv4-era number); the route may
	// drop to the IPv6 floor but never below it.
	msg = forgePTB(296, forgeInner(all, bll, proto.UDP, 0), bll, all)
	if err := b.l.Output(mbuf.New(msg), bll, all, proto.ICMPv6, ipv6.OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	rt, ok = a.rt.Lookup(inet.AFInet6, bll[:])
	if !ok || rt.MTU < ipv6.MinMTU {
		t.Fatalf("hostile PTB shrank MTU below the floor: ok=%v mtu=%d", ok, rt.MTU)
	}
	if rt.MTU != ipv6.MinMTU {
		t.Fatalf("clamped PTB should land exactly on the floor, got %d", rt.MTU)
	}
	if got := rec.Reasons.Get(stat.RICMP6PTBClamped); got != 1 {
		t.Fatalf("icmp6-ptb-clamped reason = %d, want 1", got)
	}
}

func TestSendErrorRateLimited(t *testing.T) {
	// RFC 1885 §2.4(f): bound the rate of outbound errors so a
	// corruption storm is not amplified into an error storm. The token
	// bucket runs off the virtual clock, so the test is deterministic.
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	aif := a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	clk := vclock.NewVirtual(time.Unix(1_000_000, 0))
	a.rt.Now = clk.Now
	rec := stat.NewRecorder(256)
	rec.Now = clk.Now
	a.l.Drops = rec
	all, bll := a.linkLocal(0), b.linkLocal(0)

	// Storm: 1.5 s worth of offending packets at the same virtual
	// instant.
	const storm = DefaultErrPPS * 3 / 2
	const limited = storm - DefaultErrPPS
	orig := forgeInner(bll, all, proto.UDP, 8)
	out0 := a.m.Stats.OutErrors.Get()
	for i := 0; i < storm; i++ {
		a.m.SendError(TypeDstUnreach, UnreachPort, 0, mbuf.New(orig), aif.Name)
	}
	if got := a.m.Stats.OutErrors.Get() - out0; got != DefaultErrPPS {
		t.Fatalf("errors sent during storm = %d, want %d (DefaultErrPPS)", got, DefaultErrPPS)
	}
	if got := a.m.Stats.RateLimited.Get(); got != limited {
		t.Fatalf("RateLimited = %d, want %d", got, limited)
	}
	if got := rec.Reasons.Get(stat.RICMP6RateLimited); got != limited {
		t.Fatalf("icmp6-rate-limited reason = %d, want %d", got, limited)
	}

	// A virtual second later the bucket has refilled.
	clk.Advance(time.Second)
	a.m.SendError(TypeDstUnreach, UnreachPort, 0, mbuf.New(orig), aif.Name)
	if got := a.m.Stats.OutErrors.Get() - out0; got != DefaultErrPPS+1 {
		t.Fatalf("error after refill not sent: total %d, want %d", got, DefaultErrPPS+1)
	}
	if got := a.m.Stats.RateLimited.Get(); got != limited {
		t.Fatalf("RateLimited moved after refill: %d", got)
	}
}

func TestMLDOffLinkForgeryRejected(t *testing.T) {
	// §4.1 group membership is link-scope traffic: hop limit 1 and a
	// link-local (or unspecified) source. Forged off-link messages
	// must neither elicit Reports nor mutate router membership state.
	hub := netif.NewHub()
	r, h := newNode("r"), newNode("h")
	rifp := r.join(hub, macR, 1500)
	hifp := h.join(hub, macB, 1500)
	r.m.EnableRouter(rifp.Name, RouterConfig{Interval: time.Hour, Lifetime: time.Hour})
	hrec := stat.NewRecorder(32)
	h.l.Drops = hrec
	rrec := stat.NewRecorder(32)
	r.l.Drops = rrec

	group := ip6(t, "ff02::1:2345")
	h.l.JoinGroup(hifp.Name, group)
	waitFor(t, "legitimate membership recorded", func() bool {
		return len(r.m.Memberships(rifp.Name)) == 1
	})

	// Forgery 1: a Group Query that crossed a router (hop limit 64).
	// The host must not answer it.
	rll := r.linkLocal(0)
	reports := h.m.Stats.OutReports.Get()
	badq := marshal(TypeGroupQuery, 0, groupBody(0, inet.IP6{}), rll, inet.AllNodes)
	if err := r.l.Output(mbuf.New(badq), rll, inet.AllNodes, proto.ICMPv6, ipv6.OutputOpts{HopLimit: 64}); err != nil {
		t.Fatal(err)
	}
	if h.m.Stats.BadHopLimit.Get() == 0 {
		t.Fatal("off-link query not counted as BadHopLimit")
	}
	if got := h.m.Stats.OutReports.Get(); got != reports {
		t.Fatalf("off-link query elicited %d reports", got-reports)
	}
	if hrec.Reasons.Get(stat.RMLDBadHopLimit) == 0 {
		t.Fatal("mld-bad-hop-limit reason not recorded")
	}

	// Forgery 2: a Report with a global (routable) source address.
	// The router must not learn the membership.
	gsrc := ip6(t, "2001:db8::beef")
	h.addGlobal(hifp, gsrc, 64)
	g2 := ip6(t, "ff02::9999")
	rep := marshal(TypeGroupReport, 0, groupBody(0, g2), gsrc, g2)
	if err := h.l.Output(mbuf.New(rep), gsrc, g2, proto.ICMPv6, ipv6.OutputOpts{HopLimit: 1}); err != nil {
		t.Fatal(err)
	}
	for _, g := range r.m.Memberships(rifp.Name) {
		if g == g2 {
			t.Fatal("router learned membership from global-source report")
		}
	}
	if rrec.Reasons.Get(stat.RMLDBadSource) == 0 {
		t.Fatal("mld-bad-source reason not recorded")
	}
}

func TestCtlDispatchConformance(t *testing.T) {
	// Errors about traffic we have no state for must not create state,
	// and truncated inner headers are counted, not trusted.
	hub := netif.NewHub()
	a, b := newNode("a"), newNode("b")
	a.join(hub, macA, 1500)
	b.join(hub, macB, 1500)
	rec := stat.NewRecorder(32)
	a.l.Drops = rec
	all, bll := a.linkLocal(0), b.linkLocal(0)

	// PTB about a destination with no route: nothing to update, and no
	// route may be conjured into existence.
	ghost := ip6(t, "2001:db8:dead::1")
	pmtu0 := a.m.Stats.PmtuUpdates.Get()
	msg := forgePTB(1300, forgeInner(all, ghost, proto.UDP, 0), bll, all)
	if err := b.l.Output(mbuf.New(msg), bll, all, proto.ICMPv6, ipv6.OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := a.m.Stats.PmtuUpdates.Get(); got != pmtu0 {
		t.Fatalf("PTB for unrouted destination updated PMTU (%d -> %d)", pmtu0, got)
	}
	if _, ok := a.rt.Lookup(inet.AFInet6, ghost[:]); ok {
		t.Fatal("PTB conjured a route for an unknown destination")
	}

	// Unreach with a truncated inner header: counted as InErrors with
	// a typed reason, no dispatch.
	inErr0 := a.m.Stats.InErrors.Get()
	short := marshal(TypeDstUnreach, UnreachPort, make([]byte, 4+20), bll, all)
	if err := b.l.Output(mbuf.New(short), bll, all, proto.ICMPv6, ipv6.OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := a.m.Stats.InErrors.Get(); got != inErr0+1 {
		t.Fatalf("truncated inner header: InErrors %d -> %d, want +1", inErr0, got)
	}
	if rec.Reasons.Get(stat.RICMP6CtlShort) == 0 {
		t.Fatal("icmp6-ctl-short reason not recorded")
	}

	// Unreach for a transport with no handler registered: harmless.
	un := marshal(TypeDstUnreach, UnreachPort, append(make([]byte, 4), forgeInner(all, bll, proto.UDP, 0)...), bll, all)
	if err := b.l.Output(mbuf.New(un), bll, all, proto.ICMPv6, ipv6.OutputOpts{}); err != nil {
		t.Fatal(err)
	}
	if got := a.m.Stats.InErrors.Get(); got != inErr0+1 {
		t.Fatalf("well-formed unreach miscounted as error: InErrors = %d", got)
	}
}

//go:build !race

package ipv4

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

// TestV4ForwardAllocatesOnlyItsMbuf pins the IPv4 send and forward
// paths at one allocation per datagram, the packet's Mbuf: ip_output
// on A, the router's forward with its incremental checksum update, and
// delivery to a sink protocol on B, over warm ARP entries and held
// routes.  It sends with the source given, as the transports do, and
// unspecified, as ICMP does, which reads the interface's address list
// in place.  Built without the race detector, whose instrumentation
// allocates.
func TestV4ForwardAllocatesOnlyItsMbuf(t *testing.T) {
	a, r, b := threeNodeNet(t, 1500)
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrB2, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warm-up echo reply", func() bool { return p.count() >= 1 })
	delivered := 0
	b.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		delivered++
		pkt.Free()
	}, nil)
	for _, src := range []inet.IP4{addrA, {}} {
		send := func() {
			pkt := mbuf.Get(64)
			if err := a.l.Output(pkt, src, addrB2, proto.UDP, OutputOpts{}); err != nil {
				t.Fatal(err)
			}
		}
		send()
		forwarded, before := r.l.Stats.Forwarded.Get(), delivered
		const runs = 50
		allocs := testing.AllocsPerRun(runs, send)
		if got := r.l.Stats.Forwarded.Get() - forwarded; got != runs+1 {
			t.Fatalf("source %v: router forwarded %d datagrams over %d sends", src, got, runs+1)
		}
		if got := delivered - before; got != runs+1 {
			t.Fatalf("source %v: %d datagrams delivered over %d sends", src, got, runs+1)
		}
		if allocs != 1 {
			t.Fatalf("source %v: %v allocations per forwarded datagram, want 1 (its Mbuf)", src, allocs)
		}
	}
}

// TestV4ReassemblyAllocatesOnlyMbufs pins a router-fragmented datagram
// at its mbufs and one reassembly record: a 1000-byte datagram from A
// crosses R onto B's 576-byte link in two fragments, and B links the
// second fragment's mbuf behind the first's and delivers the datagram
// with no payload byte copied.  The four allocations are the sender's
// Mbuf, the router's two fragments and the record.  Built without the
// race detector, whose instrumentation allocates.
func TestV4ReassemblyAllocatesOnlyMbufs(t *testing.T) {
	a, r, b := threeNodeNet(t, 576)
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrB2, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warm-up echo reply", func() bool { return p.count() >= 1 })
	delivered := 0
	b.l.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		if pkt.Len() == 1000 {
			delivered++
		}
		pkt.Free()
	}, nil)
	send := func() {
		if err := a.l.Output(mbuf.Get(1000), addrA, addrB2, proto.UDP, OutputOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	frags := r.l.Stats.FragsCreated.Get()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, send)
	if got := r.l.Stats.FragsCreated.Get() - frags; got != 2*(runs+1) || delivered != runs+2 {
		t.Fatalf("router cut %d fragments, B delivered %d datagrams; want %d, %d", got, delivered, 2*(runs+1), runs+2)
	}
	if allocs != 4 {
		t.Fatalf("%v allocations per reassembled datagram, want 4", allocs)
	}
}

// TestEchoAllocatesOnlyItsMbufs pins an ICMP echo round trip at its
// two messages' Mbufs: the request and the reply are each written by
// ip.BuildICMP straight into a pooled slab, over a warm ARP entry.
// TestEchoAllocatesOnlyItsMbufs in internal/icmp6 pins ICMPv6 at the
// same count.  Built without the race detector, whose instrumentation
// allocates.
func TestEchoAllocatesOnlyItsMbufs(t *testing.T) {
	a, b := twoNodes(t)
	p := &pinger{}
	p.hook(a.ic)
	if err := a.ic.SendEcho(addrB, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "warm-up echo reply", func() bool { return p.count() >= 1 })
	a.ic.OnEcho = nil
	payload := make([]byte, 56)
	replies := a.ic.Stats.InEchoReps.Get()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if err := a.ic.SendEcho(addrB, 1, 2, payload); err != nil {
			t.Fatal(err)
		}
	})
	if got := a.ic.Stats.InEchoReps.Get() - replies; got != runs+1 || b.ic.Stats.InEchos.Get() != runs+2 {
		t.Fatalf("%d replies over %d echos", got, runs+1)
	}
	if allocs != 2 {
		t.Fatalf("%v allocations per echo round trip, want 2 (its Mbufs)", allocs)
	}
}

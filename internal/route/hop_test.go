package route_test

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/testnet"
)

// hopBed is one warm transit-router hop cut out of a four-node topo
// line n0 - r1 - r2 - n3: a bare interface stands in for n0 on the
// first link and a bare sink for r2 on the second, so a frame the
// test puts on the wire crosses exactly one hub, r1's netisr and IPv6
// forward path (an indirect route through r2, whose neighbor entry is
// reachable) and the next hub.  The test goroutine stays counted on
// the virtual clock, which therefore never steps: no protocol timer
// runs and r1's neighbor entry stays reachable.
type hopBed struct {
	in   *netif.Interface
	rmac inet.LinkAddr
	got  chan *mbuf.Mbuf
	pkt  *mbuf.Mbuf
}

func newHopBed(tb testing.TB) *hopBed {
	tb.Helper()
	nw := lineNet(tb, 4)
	clk := nw.Clock
	n0, r1, r2 := nw.Nodes[0], nw.Nodes[1], nw.Nodes[2]
	src, _ := n0.Addr()
	dst, _ := nw.Nodes[3].Addr()

	// Warm the path with pings until one comes back: DAD and every
	// neighbor resolution on the way run on the driven clock.
	clk.Runnable(1) // the test goroutine, from here on
	seq := uint16(0)
	testnet.WaitClock(tb, clk, "echo reply across the line", func() bool {
		seq++
		if err := n0.S.Ping6(dst, 1, seq, nil); err != nil {
			tb.Fatal(err)
		}
		return n0.S.Snapshot().ICMP6["InEchoReps"] > 0
	})
	testnet.WaitFor(tb, "quiescent line", func() bool { return nw.Pending() == 0 })

	b := &hopBed{rmac: r1.Ports[0].HW, got: make(chan *mbuf.Mbuf, forwardWindow)}
	first, second := nw.Links[0].Hub, nw.Links[1].Hub
	first.Detach(n0.Ports[0])
	b.in = netif.New("in0", n0.Ports[0].HW, 1500)
	b.in.SetInput(func(_ *netif.Interface, fr netif.Frame) { fr.Payload.Free() })
	first.Attach(b.in)
	second.Detach(r2.Ports[1])
	sink := netif.New("sink0", r2.Ports[1].HW, 1500)
	sink.SetInput(func(_ *netif.Interface, fr netif.Frame) { b.got <- fr.Payload })
	second.Attach(sink)

	// A 64-byte datagram with nothing after the base header: the sink
	// hands the same buffer back, so the loop needs no new packet.
	h := ipv6.Header{PayloadLen: 24, NextHdr: proto.NoNext, HopLimit: 64, Src: src, Dst: dst}
	b.pkt = mbuf.New(append(h.Marshal(nil), make([]byte, 24)...))
	return b
}

// send puts pkt on the first wire toward the router.
func (b *hopBed) send(tb testing.TB, pkt *mbuf.Mbuf) {
	pkt.Bytes()[7] = 64 // the router decremented the hop limit
	if err := b.in.Output(b.rmac, netif.EtherTypeIPv6, pkt); err != nil {
		tb.Fatal(err)
	}
}

// hop sends the packet across the router and waits for it at the sink.
func (b *hopBed) hop(tb testing.TB) {
	b.send(tb, b.pkt)
	b.pkt = <-b.got
}

// forwardWindow is how many frames BenchmarkForwardWindow keeps in
// flight across the router.
const forwardWindow = 64

// open puts forwardWindow copies of the packet in flight; each turn
// then sends on the frame that reached the sink, so the window stays
// full.
func (b *hopBed) open(tb testing.TB) {
	for i := 0; i < forwardWindow; i++ {
		b.send(tb, b.pkt.Copy())
	}
}

// turn waits for the next frame at the sink and sends it again.
func (b *hopBed) turn(tb testing.TB) { b.send(tb, <-b.got) }

// close waits for the window's frames and frees them.
func (b *hopBed) close() {
	for i := 0; i < forwardWindow; i++ {
		(<-b.got).Free()
	}
}

// BenchmarkForwardHop times one warm IPv6 router hop: hub, netisr
// hand-off, forward (held route and held gateway route, neighbor
// fast path) and the next hub.
//
// With one frame in flight it mostly times the wakeup of the router's
// netisr; BenchmarkForwardWindow times the hop with the pipeline full.
func BenchmarkForwardHop(b *testing.B) {
	bed := newHopBed(b)
	bed.hop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.hop(b)
	}
}

// BenchmarkForwardWindow times the same hop with forwardWindow frames
// in flight, as a windowed sender keeps it: the router's netisr then
// takes several frames per wakeup, and an iteration is the cost of a
// hop under load rather than of a wakeup.
func BenchmarkForwardWindow(b *testing.B) {
	bed := newHopBed(b)
	bed.open(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bed.turn(b)
	}
	b.StopTimer()
	bed.close()
}

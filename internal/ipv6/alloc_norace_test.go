//go:build !race

package ipv6

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/route"
)

// TestV6ReassemblyAllocatesOnlyMbufs pins a source-fragmented datagram
// at its mbufs and one reassembly record: a 2000-byte datagram leaves
// A on a 1280-byte link in two fragments, and B links the second
// fragment's mbuf behind the first's, takes the fragment header out in
// place and delivers the datagram with no payload byte copied.  The
// four allocations are the sender's Mbuf, its two fragments and the
// record.  The neighbor is a static route, so no Neighbor Discovery
// runs.  Built without the race detector, whose instrumentation
// allocates.
func TestV6ReassemblyAllocatesOnlyMbufs(t *testing.T) {
	hub := netif.NewHub()
	node := func(mac inet.LinkAddr) (*Layer, *route.Table, inet.IP6) {
		rt := route.NewTable()
		l := NewLayer(rt)
		ifp := netif.New("t"+mac.String(), mac, 1280)
		ifp.SetInput(func(ifp *netif.Interface, fr netif.Frame) { l.Input(ifp, fr.Payload) })
		hub.Attach(ifp)
		ll := inet.LinkLocal(mac.Token())
		if err := ifp.AddAddr6(netif.Addr6{Addr: ll, Plen: 64}); err != nil {
			t.Fatal(err)
		}
		l.AddInterface(ifp)
		return l, rt, ll
	}
	macB := inet.LinkAddr{2, 0, 0, 0, 0, 0xb}
	a, rtA, llA := node(inet.LinkAddr{2, 0, 0, 0, 0, 0xa})
	b, _, llB := node(macB)
	rtA.Add(&route.Entry{Family: inet.AFInet6, Dst: llB[:], Plen: 128, Gateway: macB,
		Flags: route.FlagUp | route.FlagHost | route.FlagLLInfo, IfName: a.Interfaces()[0].Name})
	delivered := 0
	b.Register(proto.UDP, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		if pkt.Len() == 2000 {
			delivered++
		}
		pkt.Free()
	}, nil)
	send := func() {
		if err := a.Output(mbuf.Get(2000), llA, llB, proto.UDP, OutputOpts{}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, send)
	if got := a.Stats.OutFrags.Get(); got != 2*(runs+2) || delivered != runs+2 {
		t.Fatalf("A sent %d fragments, B delivered %d datagrams; want %d, %d", got, delivered, 2*(runs+2), runs+2)
	}
	if allocs != 4 {
		t.Fatalf("%v allocations per reassembled datagram, want 4", allocs)
	}
}

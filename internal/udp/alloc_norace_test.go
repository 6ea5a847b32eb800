//go:build !race

package udp_test

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
)

// TestDatagramAllocatesOnlyItsMbuf pins the UDP datapath at one
// allocation per datagram, the packet's Mbuf: udp_output through a
// perfect hub to the socket-enqueue hook, in both families.  The hook
// here keeps nothing; a real socket's copy of the payload is its own.
// Built without the race detector, whose instrumentation allocates.
func TestDatagramAllocatesOnlyItsMbuf(t *testing.T) {
	a, b := pair(t)
	delivered := 0
	b.u.Deliver = func(*pcb.PCB, []byte, inet.IP6, uint16, proto.Meta) { delivered++ }
	srv := b.u.Table.Attach(inet.AFInet6, nil)
	if err := b.u.Table.Bind(srv, inet.IP6{}, 7); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fam  inet.Family
		dst  inet.IP6
	}{
		{"ipv6", inet.AFInet6, b.LinkLocal(0)},
		{"ipv4", inet.AFInet, inet.V4Mapped(inet.IP4{10, 0, 0, 2})},
	} {
		cli := a.u.Table.Attach(tc.fam, nil)
		if err := a.u.Connect(cli, tc.dst, 7); err != nil {
			t.Fatal(err)
		}
		msg := make([]byte, 64)
		send := func() {
			if err := a.u.Output(cli, msg, inet.IP6{}, 0); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 4; i++ { // warm: neighbor resolution, held routes
			send()
		}
		before := delivered
		const runs = 50
		allocs := testing.AllocsPerRun(runs, send)
		if got := delivered - before; got != runs+1 {
			t.Fatalf("%s: %d datagrams delivered over %d sends", tc.name, got, runs+1)
		}
		if allocs != 1 {
			t.Errorf("%s: %v allocations per datagram, want 1 (its Mbuf)", tc.name, allocs)
		}
	}
}

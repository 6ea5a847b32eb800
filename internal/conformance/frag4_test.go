package conformance

import (
	"testing"
	"time"

	"bsd6/internal/ipv4"
	"bsd6/internal/stat"
)

func TestV4OverlapFirstArrivalWins(t *testing.T) {
	// The same RFC 5722-style rewrite attack, against the IPv4
	// reassembly queue: an overlap cannot change bytes already held.
	n := NewNet()
	orig := Pattern(0x40, 24) // covers [0,24)
	evil := Pattern(0xC0, 24) // covers [8,32)
	tail := Pattern(0x70, 8)  // covers [32,40)
	n.Inject4(Frag4{Off: 0, More: true, ID: 21, Data: orig})
	n.Inject4(Frag4{Off: 8, More: true, ID: 21, Data: evil})
	n.Inject4(Frag4{Off: 32, More: false, ID: 21, Data: tail})

	want := append(append(append([]byte(nil), orig...), evil[16:24]...), tail...)
	wantDelivered(t, n.Delivered4, want)
	if got := n.B.V4.Stats.ReasmFails.Get(); got != 0 {
		t.Fatalf("ReasmFails = %d, want 0", got)
	}
}

func TestV4DuplicateFinalFragment(t *testing.T) {
	// Duplicate final fragment on IPv4: accepted once, and the stray
	// buffer the duplicate opened expires silently (no fragment 0).
	n := NewNet()
	d := Pattern(0x55, 32)
	n.Inject4(Frag4{Off: 0, More: true, ID: 22, Data: d[0:24]})
	n.Inject4(Frag4{Off: 24, More: false, ID: 22, Data: d[24:32]})
	n.Inject4(Frag4{Off: 24, More: false, ID: 22, Data: d[24:32]})
	wantDelivered(t, n.Delivered4, d)
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered4, d)
	wantErrors(t, n.Errors4)
	if got := n.B.V4.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1", got)
	}
}

func TestV4TimeoutTimeExceeded(t *testing.T) {
	// IPv4 reassembly timeout with the first fragment present sends
	// Time Exceeded code 1, as ip_freef's caller does in BSD.
	n := NewNet()
	n.Inject4(Frag4{Off: 0, More: true, ID: 23, Data: Pattern(5, 24)})
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered4)
	wantErrors(t, n.Errors4, IcmpErr{ipv4.IcmpTimeExceeded, 1})
	if got := n.B.V4.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1", got)
	}
}

func TestV4TimeoutSilentWithoutFirst(t *testing.T) {
	// Without fragment zero the timeout must not emit an error — RFC
	// 792's Time Exceeded quotes the offending header, which never
	// arrived.
	n := NewNet()
	n.Inject4(Frag4{Off: 8, More: true, ID: 24, Data: Pattern(6, 24)})
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered4)
	wantErrors(t, n.Errors4)
	if got := n.B.V4.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1", got)
	}
}

func TestV4ProtoUnreachAfterReassembly(t *testing.T) {
	// A reassembled datagram for a protocol nobody serves draws
	// Protocol Unreachable whatever order its fragments came in: the
	// error quotes the datagram's own header, fragment zero's, not the
	// fragment that completed it.
	for _, order := range [][]int{{0, 1}, {1, 0}} {
		n := NewNet()
		d := Pattern(0x77, 32)
		frags := []Frag4{
			{Off: 0, More: true, ID: 25, Data: d[:16], Proto: 200},
			{Off: 16, More: false, ID: 25, Data: d[16:], Proto: 200},
		}
		for _, i := range order {
			n.Inject4(frags[i])
		}
		n.Run(time.Second)
		wantErrors(t, n.Errors4, IcmpErr{ipv4.IcmpUnreach, ipv4.CodeProtoUnreach})
		if got := n.B.V4.Stats.Reassembled.Get(); got != 1 {
			t.Fatalf("order %v: Reassembled = %d, want 1", order, got)
		}
	}
}

func TestV4UnalignedFragment(t *testing.T) {
	// A fragment that is not the last must be a multiple of 8 bytes
	// long: a 12-byte first fragment is discarded at once, as
	// FreeBSD's ip_reass does, so no Time Exceeded quotes it later;
	// the tail opens a datagram that expires silently.
	n := NewNet()
	d := Pattern(0x61, 24)
	n.Inject4(Frag4{Off: 0, More: true, ID: 25, Data: d[0:12]})
	n.Inject4(Frag4{Off: 16, More: false, ID: 25, Data: d[16:24]})
	if got := n.B.Drops.Reasons.Get(stat.RV4FragUnaligned); got != 1 {
		t.Fatalf("%v drops = %d, want 1", stat.RV4FragUnaligned, got)
	}
	if got := n.B.V4.FragQueueLen(); got != 1 {
		t.Fatalf("FragQueueLen = %d, want 1 (the tail alone)", got)
	}
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered4)
	wantErrors(t, n.Errors4)
}

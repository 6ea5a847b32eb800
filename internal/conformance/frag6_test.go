package conformance

import (
	"bytes"
	"testing"
	"time"

	"bsd6/internal/icmp6"
	"bsd6/internal/ipv6"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
)

// want asserts the exact set of datagrams the receiver accepted.
func wantDelivered(t *testing.T, got [][]byte, want ...[]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("delivered %d datagrams, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("datagram %d = %x, want %x", i, got[i], want[i])
		}
	}
}

func wantErrors(t *testing.T, got []IcmpErr, want ...IcmpErr) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d ICMP errors (%v), want %d (%v)", len(got), got, len(want), want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ICMP error %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestV6InOrderBaseline(t *testing.T) {
	// Three fragments in order: the well-behaved case every deviant
	// scenario below is measured against.
	n := NewNet()
	d := Pattern(0x10, 56)
	n.Inject6(Frag6{Off: 0, More: true, ID: 1, Data: d[0:24]})
	n.Inject6(Frag6{Off: 24, More: true, ID: 1, Data: d[24:48]})
	n.Inject6(Frag6{Off: 48, More: false, ID: 1, Data: d[48:56]})
	wantDelivered(t, n.Delivered6, d)
	wantErrors(t, n.Errors6)
	if got := n.B.V6.Stats.Reassembled.Get(); got != 1 {
		t.Fatalf("Reassembled = %d, want 1", got)
	}
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 0 {
		t.Fatalf("ReasmFails = %d, want 0", got)
	}
}

func TestV6OverlapRewriteAttack(t *testing.T) {
	// RFC 5722's motivating attack: after the real first fragment is
	// queued, an overlapping fragment tries to rewrite bytes [8,24)
	// while smuggling new data at [24,32).  IPv6 abandons a datagram
	// whose fragments overlap (RFC 5722, RFC 8200 §4.5), so neither
	// the original bytes nor the attacker's are delivered, and the
	// tail that arrives afterwards only opens a datagram that expires.
	n := NewNet()
	orig := Pattern(0x40, 24) // covers [0,24)
	evil := Pattern(0xC0, 24) // covers [8,32)
	tail := Pattern(0x70, 8)  // covers [32,40)
	n.Inject6(Frag6{Off: 0, More: true, ID: 2, Data: orig})
	n.Inject6(Frag6{Off: 8, More: true, ID: 2, Data: evil})
	n.Inject6(Frag6{Off: 32, More: false, ID: 2, Data: tail})

	wantDelivered(t, n.Delivered6)
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1", got)
	}
	if got := n.B.Drops.Reasons.Get(stat.RV6ReasmOverlap); got != 1 {
		t.Fatalf("%v drops = %d, want 1", stat.RV6ReasmOverlap, got)
	}
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered6)
	wantErrors(t, n.Errors6) // the tail's datagram lacks fragment zero
}

func TestV6TinyFragmentsOutOfOrder(t *testing.T) {
	// A 64-byte datagram minced into eight 8-byte fragments arriving
	// in a scrambled order.  Hole-filling must tolerate arbitrary
	// arrival order and the minimum legal fragment size.
	n := NewNet()
	d := Pattern(0x20, 64)
	order := []int{5, 0, 7, 3, 1, 6, 2, 4}
	for _, i := range order {
		off := i * 8
		n.Inject6(Frag6{Off: off, More: i != 7, ID: 3, Data: d[off : off+8]})
	}
	wantDelivered(t, n.Delivered6, d)
	if got := n.B.V6.Stats.Reassembled.Get(); got != 1 {
		t.Fatalf("Reassembled = %d, want 1", got)
	}
}

func TestV6AtomicFragment(t *testing.T) {
	// A fragment header with offset 0 and M clear (an "atomic
	// fragment") must complete immediately — one datagram, no state
	// left behind to expire.
	n := NewNet()
	d := Pattern(0x30, 40)
	n.Inject6(Frag6{Off: 0, More: false, ID: 4, Data: d})
	wantDelivered(t, n.Delivered6, d)
	n.ExpireReassembly()
	wantErrors(t, n.Errors6)
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 0 {
		t.Fatalf("ReasmFails = %d, want 0", got)
	}
}

func TestV6AtomicFragmentBesideOpenDatagram(t *testing.T) {
	// An atomic fragment that shares its ID with a datagram under
	// reassembly is a datagram of its own (RFC 6946): it must not
	// splice into the open datagram, which completes untouched.
	n := NewNet()
	open := Pattern(0x10, 24)
	atomic := Pattern(0xA0, 40)
	n.Inject6(Frag6{Off: 0, More: true, ID: 7, Data: open[:16]})
	n.Inject6(Frag6{Off: 0, More: false, ID: 7, Data: atomic})
	if got := n.B.V6.FragQueueLen(); got != 1 {
		t.Fatalf("FragQueueLen = %d after the atomic fragment, want 1", got)
	}
	n.Inject6(Frag6{Off: 16, More: false, ID: 7, Data: open[16:]})
	wantDelivered(t, n.Delivered6, atomic, open)
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 0 {
		t.Fatalf("ReasmFails = %d, want 0", got)
	}
}

func TestV6DuplicateFinalFragment(t *testing.T) {
	// The final fragment arrives twice.  The datagram must be
	// accepted exactly once; the late duplicate opens a fresh buffer
	// which, lacking fragment zero, must expire silently.
	n := NewNet()
	d := Pattern(0x50, 32)
	n.Inject6(Frag6{Off: 0, More: true, ID: 5, Data: d[0:24]})
	n.Inject6(Frag6{Off: 24, More: false, ID: 5, Data: d[24:32]})
	n.Inject6(Frag6{Off: 24, More: false, ID: 5, Data: d[24:32]})
	wantDelivered(t, n.Delivered6, d)

	n.ExpireReassembly()
	wantDelivered(t, n.Delivered6, d) // still exactly one
	wantErrors(t, n.Errors6)          // no Time Exceeded: no fragment 0 in the stray buffer
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1 (expired stray duplicate)", got)
	}
}

func TestV6ConflictingFinalFragment(t *testing.T) {
	// Two final fragments disagree on the total length.  The
	// inconsistency discards the whole reassembly — as 4.4 BSD drops
	// a chain on a malformed fragment — so nothing is delivered until
	// the sender retransmits a coherent train.
	n := NewNet()
	d := Pattern(0x60, 40)
	n.Inject6(Frag6{Off: 0, More: true, ID: 6, Data: d[0:24]})
	n.Inject6(Frag6{Off: 32, More: false, ID: 6, Data: d[32:40]})         // total = 40
	n.Inject6(Frag6{Off: 40, More: false, ID: 6, Data: Pattern(0xE0, 8)}) // claims total = 48
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1 (conflicting final)", got)
	}
	n.Inject6(Frag6{Off: 24, More: true, ID: 6, Data: d[24:32]})
	wantDelivered(t, n.Delivered6) // buffer was dropped; still incomplete

	// A coherent retransmission completes cleanly.
	n.Inject6(Frag6{Off: 0, More: true, ID: 6, Data: d[0:24]})
	n.Inject6(Frag6{Off: 32, More: false, ID: 6, Data: d[32:40]})
	wantDelivered(t, n.Delivered6, d)
	if got := n.B.V6.Stats.Reassembled.Get(); got != 1 {
		t.Fatalf("Reassembled = %d, want 1", got)
	}
}

func TestV6TimeoutWithFirstFragment(t *testing.T) {
	// Reassembly timeout with fragment zero present: RFC 2460 §4.5
	// requires Time Exceeded code 1 (fragment reassembly time
	// exceeded) quoting the offending packet.  The paper's
	// implementation could not send it (§4.1 footnote: the packet was
	// gone); we keep the first fragment precisely so this works.
	n := NewNet()
	n.Inject6(Frag6{Off: 0, More: true, ID: 7, Data: Pattern(1, 24)})
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered6)
	wantErrors(t, n.Errors6, IcmpErr{icmp6.TypeTimeExceeded, 1})
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1", got)
	}
}

func TestV6TimeoutWithoutFirstFragment(t *testing.T) {
	// Same timeout, but fragment zero never arrived: the RFC forbids
	// the error, so expiry must be silent.
	n := NewNet()
	n.Inject6(Frag6{Off: 8, More: true, ID: 8, Data: Pattern(2, 24)})
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered6)
	wantErrors(t, n.Errors6)
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1", got)
	}
}

func TestV6TimeoutStraddlingRetransmission(t *testing.T) {
	// A partial train expires mid-transfer, then the sender
	// retransmits the whole datagram with the same ID.  The expiry
	// must not leak state into the retransmission: one Time Exceeded
	// for the dead buffer, then a clean single acceptance.
	n := NewNet()
	d := Pattern(0x33, 48)
	n.Inject6(Frag6{Off: 0, More: true, ID: 9, Data: d[0:24]})
	n.Inject6(Frag6{Off: 24, More: true, ID: 9, Data: d[24:40]})
	n.ExpireReassembly()
	wantErrors(t, n.Errors6, IcmpErr{icmp6.TypeTimeExceeded, 1})

	n.Inject6(Frag6{Off: 0, More: true, ID: 9, Data: d[0:24]})
	n.Inject6(Frag6{Off: 24, More: true, ID: 9, Data: d[24:40]})
	n.Inject6(Frag6{Off: 40, More: false, ID: 9, Data: d[40:48]})
	wantDelivered(t, n.Delivered6, d)
	if got := n.B.V6.Stats.Reassembled.Get(); got != 1 {
		t.Fatalf("Reassembled = %d, want 1", got)
	}
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1 (only the expired buffer)", got)
	}
}

func TestV6OversizeFragment(t *testing.T) {
	// A final fragment whose offset+length exceeds the 65535-byte
	// ceiling the 16-bit payload length can express.  It must be
	// rejected; the buffer it tried to join keeps working.
	n := NewNet()
	n.Inject6(Frag6{Off: 0, More: true, ID: 10, Data: Pattern(3, 24)})
	n.Inject6(Frag6{Off: 65528, More: false, ID: 10, Data: Pattern(4, 100)})
	wantDelivered(t, n.Delivered6)
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1 (oversize fragment)", got)
	}
}

func TestV6FragmentFlood(t *testing.T) {
	// One buffer cannot hoard unbounded fragments: after 512 disjoint
	// pieces the next insert is refused.  (Deliberately leaves a gap
	// at offset 0 so nothing completes.)
	n := NewNet()
	for i := 1; i <= 513; i++ {
		n.Inject6(Frag6{Off: i * 8, More: true, ID: 11, Data: Pattern(byte(i), 8)})
	}
	wantDelivered(t, n.Delivered6)
	if got := n.B.V6.Stats.ReasmFails.Get(); got != 1 {
		t.Fatalf("ReasmFails = %d, want 1 (piece limit)", got)
	}
}

func TestV6UnalignedFragment(t *testing.T) {
	// A fragment that is not the last must be a multiple of 8 bytes
	// long (RFC 8200 §4.5): a 12-byte first fragment leaves a hole at
	// [12,16) no legal fragment can fill.  It is discarded at once with
	// Parameter Problem code 0 pointing at its Payload Length field,
	// and the tail opens a datagram that expires silently.
	n := NewNet()
	d := Pattern(0x60, 24)
	n.Inject6(Frag6{Off: 0, More: true, ID: 8, Data: d[0:12]})
	n.Inject6(Frag6{Off: 16, More: false, ID: 8, Data: d[16:24]})
	n.Run(time.Second)
	wantErrors(t, n.Errors6, IcmpErr{icmp6.TypeParamProblem, 0})
	if len(n.Params6) != 1 || n.Params6[0] != 4 {
		t.Fatalf("Parameter Problem pointers %v, want [4] (the Payload Length field)", n.Params6)
	}
	if got := n.B.Drops.Reasons.Get(stat.RV6FragUnaligned); got != 1 {
		t.Fatalf("%v drops = %d, want 1", stat.RV6FragUnaligned, got)
	}
	if got := n.B.V6.FragQueueLen(); got != 1 {
		t.Fatalf("FragQueueLen = %d, want 1 (the tail alone)", got)
	}
	n.ExpireReassembly()
	wantDelivered(t, n.Delivered6)
	wantErrors(t, n.Errors6, IcmpErr{icmp6.TypeParamProblem, 0})
}

func TestV6FirstFragmentSplitsHeaderChain(t *testing.T) {
	// RFC 7112: the first fragment must carry the whole header chain,
	// through the upper-layer header.  Each train's first fragment
	// stops short of it, so it is discarded with Parameter Problem
	// code 3, pointer 0, and nothing is reassembled.
	dstopts := append([]byte{proto.UDP, 1, 1, 12}, make([]byte, 12)...) // PadN to 16 bytes
	tcpHdr := Pattern(0xa0, 20)
	tcpHdr[12] = 5 << 4 // data offset: 20 bytes, no options
	for _, tc := range []struct {
		name string
		nh   uint8
		body []byte
	}{
		// A 16-byte Destination Options header split across the
		// boundary: the first fragment ends before the UDP header.
		{"dstopts-split", proto.DstOpts, append(dstopts, Pattern(0x90, 8)...)},
		// A TCP header cut after 8 of its 20 bytes: the ports are
		// there, the flags a filter reads are not.
		{"tcp-header-cut", proto.TCP, append(tcpHdr, Pattern(0x90, 8)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNet()
			n.Inject6(Frag6{Off: 0, More: true, ID: 9, NextHdr: tc.nh, Data: tc.body[0:8]})
			n.Inject6(Frag6{Off: 8, More: false, ID: 9, NextHdr: tc.nh, Data: tc.body[8:]})
			n.Run(time.Second)
			wantErrors(t, n.Errors6, IcmpErr{icmp6.TypeParamProblem, ipv6.ParamHeaderChain})
			if len(n.Params6) != 1 || n.Params6[0] != 0 {
				t.Fatalf("Parameter Problem pointers %v, want [0]", n.Params6)
			}
			if got := n.B.Drops.Reasons.Get(stat.RV6FragHeaderChain); got != 1 {
				t.Fatalf("%v drops = %d, want 1", stat.RV6FragHeaderChain, got)
			}
			n.ExpireReassembly()
			wantDelivered(t, n.Delivered6)
			wantErrors(t, n.Errors6, IcmpErr{icmp6.TypeParamProblem, ipv6.ParamHeaderChain})
			if got := n.B.V6.Stats.Reassembled.Get(); got != 0 {
				t.Fatalf("Reassembled = %d, want 0", got)
			}
		})
	}
}

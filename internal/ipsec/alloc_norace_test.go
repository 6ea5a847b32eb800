//go:build !race

package ipsec

import (
	"testing"

	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

// TestSealOpenAllocatesOnlyTheMbuf pins every ESP switch row's seal and
// open at one allocation per packet, the packet's own Mbuf: the framing
// is written into the slab around the payload and both ciphers run
// where the bytes lie.  Built without the race detector, whose
// instrumentation allocates.
func TestSealOpenAllocatesOnlyTheMbuf(t *testing.T) {
	src, dst := ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2")
	data := make([]byte, 1400)
	hdr := make([]byte, ipv6.HeaderLen)
	for _, alg := range espRows {
		sa := rowSA(t, alg, key.ProtoESPTransport, 0x3201, src, dst)
		s := espSchedule(sa)
		allocs := testing.AllocsPerRun(50, func() {
			pkt := mbuf.Get(len(data))
			copy(pkt.Bytes(), data)
			out, err := wrapESPChain(sa, nil, pkt, proto.TCP)
			if err != nil {
				t.Fatal(err)
			}
			copy(out.PrependN(ipv6.HeaderLen), hdr)
			if _, _, err := openESPInPlace(s, out.Bytes(), ipv6.HeaderLen); err != nil {
				t.Fatal(err)
			}
			out.Free()
		})
		if allocs != 1 {
			t.Errorf("%s: %v allocations per sealed and opened packet, want 1", alg, allocs)
		}
	}
}

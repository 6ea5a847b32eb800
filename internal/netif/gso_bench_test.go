package netif

import (
	"testing"

	"bsd6/internal/inet"
)

// BenchmarkGSOSplit measures fanning a 16-chunk super-segment out as
// MSS-sized wire frames: headers replicated, sequence numbers and
// flags patched, checksums finalized from the cached per-chunk sums.
// Each iteration fills a fresh pooled super-segment whose descriptor
// comes from the free list and goes back with its Free, so allocs/op
// is 17: the super-segment's Mbuf and one per frame.
func BenchmarkGSOSplit(b *testing.B) {
	ifp := New("bench0", inet.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	ifp.SetFlags(FlagUp, true)
	ifp.output = func(fr Frame) error {
		fr.Payload.Free()
		return nil
	}

	const mss, chunks = 1440, 16
	super, sums := gsoSuper(mss, chunks)
	dst := inet.LinkAddr{2, 0, 0, 0, 0, 2}

	b.SetBytes(mss * chunks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ifp.Output(dst, EtherTypeIPv6, gsoPacket(super, sums, mss)); err != nil {
			b.Fatal(err)
		}
	}
}

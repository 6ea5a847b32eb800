package inet

import (
	"bytes"
	"testing"
	"testing/quick"
)

// The wide-word engine (Sum, SumCopy) is differentially tested against
// sumSlow, the original byte-pair loop kept as the oracle. The oracle
// accumulates in a bare uint32, which is exact for anything up to the
// 64 KB maximum datagram but wraps beyond it, so inputs are capped and
// initial accumulators masked to the range real call sites produce
// (pseudo-header sums are a few times 0xffff).

const fuzzMaxLen = 64 << 10

// sumSlow is the original byte-pair reference implementation, the
// oracle for the differential tests and fuzzer: any divergence between
// Sum and sumSlow is a bug in the wide-word engine.
func sumSlow(initial uint32, b []byte) uint32 {
	sum := initial
	n := len(b) &^ 1
	for i := 0; i < n; i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)&1 != 0 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// FuzzChecksum feeds arbitrary buffers, start offsets and initial
// accumulators through Sum and SumCopy and cross-checks them against
// sumSlow. The offset shifts the slice against its backing array so
// the 8-byte loads run at every alignment; odd lengths exercise the
// trailing-byte padding.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint32(0))
	f.Add([]byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}, uint8(0), uint32(0))
	f.Add([]byte{0xab}, uint8(1), uint32(0xffff))
	f.Add(bytes.Repeat([]byte{0xff}, 97), uint8(3), uint32(1))
	f.Add(bytes.Repeat([]byte{0x7f, 0x01}, 40), uint8(7), uint32(0xfffe))
	f.Fuzz(func(t *testing.T, data []byte, off uint8, initial uint32) {
		if len(data) > fuzzMaxLen {
			data = data[:fuzzMaxLen]
		}
		initial &= 0xffffff // keep the uint32 oracle exact
		b := data[int(off)%(len(data)+1):]

		want := Fold(sumSlow(initial, b))
		if got := Fold(Sum(initial, b)); got != want {
			t.Fatalf("Sum(%#x, %d bytes @%d) folds to %#x, oracle %#x",
				initial, len(b), int(off)%(len(data)+1), got, want)
		}

		dst := make([]byte, len(b))
		if got := Fold(SumCopy(initial, dst, b)); got != want {
			t.Fatalf("SumCopy sum folds to %#x, oracle %#x", got, want)
		}
		if !bytes.Equal(dst, b) {
			t.Fatal("SumCopy did not copy the source verbatim")
		}
	})
}

// TestSumMatchesSlowSweep pins the engine against the oracle for every
// length 0..129 at every offset 0..8 — all alignments of the unrolled
// loop, the 8/4/2/1-byte tails, and odd trailing bytes — plus one
// jumbo buffer that crosses many unrolled iterations.
func TestSumMatchesSlowSweep(t *testing.T) {
	raw := make([]byte, 160)
	for i := range raw {
		raw[i] = byte(i*37 + 11)
	}
	for off := 0; off <= 8; off++ {
		for n := 0; off+n <= len(raw) && n <= 129; n++ {
			b := raw[off : off+n]
			if got, want := Fold(Sum(0x1234, b)), Fold(sumSlow(0x1234, b)); got != want {
				t.Fatalf("off=%d len=%d: Sum %#x, slow %#x", off, n, got, want)
			}
		}
	}
	jumbo := make([]byte, 9001)
	for i := range jumbo {
		jumbo[i] = byte(i ^ i>>5)
	}
	if got, want := Fold(Sum(0, jumbo)), Fold(sumSlow(0, jumbo)); got != want {
		t.Fatalf("jumbo: Sum %#x, slow %#x", got, want)
	}
}

// TestSumCopySweep checks the fused copy-with-checksum across the same
// length/offset lattice: the copy must be verbatim and the sum must
// match the oracle, including when source and destination alignments
// differ.
func TestSumCopySweep(t *testing.T) {
	raw := make([]byte, 160)
	for i := range raw {
		raw[i] = byte(i*73 + 5)
	}
	for off := 0; off <= 8; off++ {
		for n := 0; off+n <= len(raw) && n <= 129; n++ {
			src := raw[off : off+n]
			dst := make([]byte, n+3)
			got := Fold(SumCopy(7, dst[3:], src)) // destination misaligned vs source
			if want := Fold(sumSlow(7, src)); got != want {
				t.Fatalf("off=%d len=%d: SumCopy %#x, slow %#x", off, n, got, want)
			}
			if !bytes.Equal(dst[3:], src) {
				t.Fatalf("off=%d len=%d: copy mismatch", off, n)
			}
		}
	}
}

// TestQuickIncrementalUpdate is the RFC 1624 property: after a 16-bit
// field rewrite, the incrementally updated checksum still
// verifies — re-summing the whole packet with the patched checksum in
// place folds to zero, the receiver-side invariant. Byte-identity with
// a full recompute additionally holds whenever neither representation
// hits the degenerate 0xffff form, which TestUpdateChecksumMatchesRecompute
// pins for the IPv4 header shapes the callers rewrite.
func TestQuickIncrementalUpdate(t *testing.T) {
	f := func(data []byte, pos uint8, to16 uint16) bool {
		// Build a packet with its checksum at [0:2].
		pkt := append([]byte{0, 0}, data...)
		if len(pkt)%2 != 0 {
			pkt = append(pkt, 0)
		}
		ck := Checksum(pkt)
		pkt[0], pkt[1] = byte(ck>>8), byte(ck)

		// 16-bit rewrite at an even offset past the checksum.
		if len(pkt) >= 4 {
			p := 2 + 2*(int(pos)%((len(pkt)-2)/2))
			from := uint16(pkt[p])<<8 | uint16(pkt[p+1])
			pkt[p], pkt[p+1] = byte(to16>>8), byte(to16)
			ck = UpdateChecksum16(ck, from, to16)
			pkt[0], pkt[1] = byte(ck>>8), byte(ck)
			if Fold(Sum(0, pkt)) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateChecksumMatchesRecompute pins byte-identity for the header
// shapes the incremental path actually rewrites: an IPv4 forwarder's
// TTL decrement and a GRO super-segment's total-length patch. The
// header carries a nonzero invariant sum (version byte, protocol
// number), which keeps every representative out of the degenerate
// 0xffff class, so incremental and full recompute agree exactly.
func TestUpdateChecksumMatchesRecompute(t *testing.T) {
	// IPv4 header, TTL 64 -> 63 at byte 8 (shares a column with the
	// protocol byte).
	hdr := []byte{0x45, 0, 0, 0x54, 0x12, 0x34, 0x40, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2}
	ck := Checksum(hdr)
	hdr[10], hdr[11] = byte(ck>>8), byte(ck)
	for ttl := 64; ttl > 1; ttl-- {
		from := uint16(hdr[8])<<8 | uint16(hdr[9])
		hdr[8] = byte(ttl - 1)
		to := uint16(hdr[8])<<8 | uint16(hdr[9])
		ck = UpdateChecksum16(ck, from, to)
		hdr[10], hdr[11] = 0, 0
		if full := Checksum(hdr); full != ck {
			t.Fatalf("ttl %d: incremental %#x, recompute %#x", ttl-1, ck, full)
		}
		hdr[10], hdr[11] = byte(ck>>8), byte(ck)
	}

	// Total length of n coalesced 1460-byte segments, as GRO patches it.
	for n := 1; n <= 44; n++ {
		from := uint16(hdr[2])<<8 | uint16(hdr[3])
		to := uint16(40 + n*1460)
		hdr[2], hdr[3] = byte(to>>8), byte(to)
		ck = UpdateChecksum16(ck, from, to)
		hdr[10], hdr[11] = 0, 0
		if full := Checksum(hdr); full != ck {
			t.Fatalf("total length %d: incremental %#x, recompute %#x", to, ck, full)
		}
		hdr[10], hdr[11] = byte(ck>>8), byte(ck)
	}
}

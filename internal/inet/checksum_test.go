package inet

import (
	"testing"
	"testing/quick"
)

func TestChecksumRFC1071Example(t *testing.T) {
	// RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2
	// before complement.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd trailing byte is padded with zero on the right.
	if Checksum([]byte{0xab}) != ^uint16(0xab00) {
		t.Fatal("odd-length checksum")
	}
	if Checksum([]byte{0x12, 0x34, 0x56}) != ^uint16(0x1234+0x5600) {
		t.Fatal("3-byte checksum")
	}
}

func TestChecksumEmpty(t *testing.T) {
	if Checksum(nil) != 0xffff {
		t.Fatal("empty checksum must be 0xffff")
	}
}

func TestChecksumCarryFold(t *testing.T) {
	// Many 0xffff words force carries.
	b := make([]byte, 4096)
	for i := range b {
		b[i] = 0xff
	}
	if got := Checksum(b); got != 0 {
		t.Fatalf("all-ones checksum = %#x, want 0", got)
	}
}

// Property: a packet with its checksum inserted verifies to zero —
// the receiver-side invariant every protocol here relies on.
func TestQuickVerifyInsertedChecksum(t *testing.T) {
	f := func(data []byte) bool {
		b := append([]byte{0, 0}, data...)
		ck := Checksum(b)
		b[0], b[1] = byte(ck>>8), byte(ck)
		return Fold(Sum(0, b)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the sum is independent of how the data is chunked
// (associativity of the accumulator), provided chunks stay 16-bit
// aligned — this is what lets us sum pseudo-header and payload
// separately.
func TestQuickChunkedSum(t *testing.T) {
	f := func(data []byte, cut uint8) bool {
		k := int(cut) % (len(data) + 1)
		k &^= 1 // keep 16-bit alignment
		whole := Fold(Sum(0, data))
		split := Fold(Sum(Sum(0, data[:k]), data[k:]))
		return whole == split
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransportChecksum6(t *testing.T) {
	src := IP6{15: 1}
	dst := IP6{15: 2}
	payload := []byte{1, 2, 3, 4}
	ck := TransportChecksum6(src, dst, 17, payload)
	// Verify by receiver rule: sum(pseudo)+sum(payload with ck) == 0.
	sum := PseudoHeader6(src, dst, uint32(len(payload)), 17)
	sum = Sum(sum, payload)
	sum += uint32(ck)
	if Fold(sum) != 0 {
		t.Fatal("v6 transport checksum does not verify")
	}
	// Changing any pseudo-header input changes the checksum
	// (the integrity-protection role from §5.2).  Note the
	// ones-complement sum is commutative, so we perturb a byte rather
	// than swap src/dst.
	src2 := src
	src2[0] ^= 0x40
	if TransportChecksum6(src2, dst, 17, payload) == ck {
		t.Fatal("checksum must cover addresses")
	}
	if TransportChecksum6(src, dst, 6, payload) == ck {
		t.Fatal("checksum must cover next header")
	}
}

func TestTransportChecksum4(t *testing.T) {
	src := IP4{10, 0, 0, 1}
	dst := IP4{10, 0, 0, 2}
	payload := []byte{9, 8, 7}
	ck := TransportChecksum4(src, dst, 17, payload)
	sum := PseudoHeader4(src, dst, uint16(len(payload)), 17)
	sum = Sum(sum, payload)
	sum += uint32(ck)
	if Fold(sum) != 0 {
		t.Fatal("v4 transport checksum does not verify")
	}
}

func BenchmarkChecksum1500(b *testing.B) {
	buf := make([]byte, 1500)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Checksum(buf)
	}
}

// BenchmarkChecksumSlow1500 times the retired byte-pair loop on the
// same buffer, so the wide-word speedup is visible as the ratio of the
// two in any bench run.
func BenchmarkChecksumSlow1500(b *testing.B) {
	buf := make([]byte, 1500)
	for i := range buf {
		buf[i] = byte(i)
	}
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		Fold(sumSlow(0, buf))
	}
}

func BenchmarkSumCopy1500(b *testing.B) {
	buf := make([]byte, 1500)
	for i := range buf {
		buf[i] = byte(i)
	}
	dst := make([]byte, 1500)
	b.SetBytes(1500)
	for i := 0; i < b.N; i++ {
		SumCopy(0, dst, buf)
	}
}

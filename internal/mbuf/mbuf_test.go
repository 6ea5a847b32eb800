package mbuf

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func chainOf(parts ...[]byte) *Mbuf {
	m := &Mbuf{}
	for _, p := range parts {
		m.Append(p)
	}
	return m
}

func TestEmpty(t *testing.T) {
	m := &Mbuf{}
	if m.Len() != 0 || m.Segments() != 0 {
		t.Fatalf("empty mbuf: len=%d segs=%d", m.Len(), m.Segments())
	}
	if got := m.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %v", got)
	}
	if got := m.PullUp(0); got == nil {
		t.Fatalf("PullUp(0) on empty should return empty slice, got nil")
	}
	if got := m.PullUp(1); got != nil {
		t.Fatalf("PullUp(1) on empty = %v, want nil", got)
	}
}

func TestAppendPrependLen(t *testing.T) {
	m := New([]byte("world"))
	m.Prepend([]byte("hello "))
	if m.Len() != 11 {
		t.Fatalf("len = %d", m.Len())
	}
	if string(m.CopyBytes()) != "hello world" {
		t.Fatalf("contents = %q", m.CopyBytes())
	}
	if m.Segments() != 2 {
		t.Fatalf("segments = %d", m.Segments())
	}
}

func TestAppendEmptyNoop(t *testing.T) {
	m := New([]byte("x"))
	m.Append(nil)
	m.Prepend(nil)
	if m.Len() != 1 || m.Segments() != 1 {
		t.Fatalf("empty append changed chain: len=%d segs=%d", m.Len(), m.Segments())
	}
}

func TestNewCopies(t *testing.T) {
	src := []byte("abc")
	m := New(src)
	src[0] = 'X'
	if string(m.CopyBytes()) != "abc" {
		t.Fatal("New must copy its argument")
	}
}

func TestNewNoCopyAliases(t *testing.T) {
	src := []byte("abc")
	m := NewNoCopy(src)
	src[0] = 'X'
	if string(m.CopyBytes()) != "Xbc" {
		t.Fatal("NewNoCopy must alias its argument")
	}
}

func TestPullUp(t *testing.T) {
	m := chainOf([]byte("ab"), []byte("cd"), []byte("ef"))
	got := m.PullUp(5)
	if string(got) != "abcde" {
		t.Fatalf("PullUp(5) = %q", got)
	}
	if string(m.CopyBytes()) != "abcdef" {
		t.Fatalf("contents after PullUp = %q", m.CopyBytes())
	}
	if m.Len() != 6 {
		t.Fatalf("len changed: %d", m.Len())
	}
	// Already contiguous: no restructuring.
	segs := m.Segments()
	m.PullUp(3)
	if m.Segments() != segs {
		t.Fatal("PullUp restructured an already-contiguous prefix")
	}
	if m.PullUp(7) != nil {
		t.Fatal("PullUp beyond length should fail")
	}
	if m.PullUp(-1) != nil {
		t.Fatal("PullUp(-1) should fail")
	}
}

func TestPullUpCoalesceAll(t *testing.T) {
	m := chainOf([]byte("ab"), []byte("cd"))
	got := m.PullUp(4)
	if string(got) != "abcd" || m.Segments() != 1 {
		t.Fatalf("PullUp(all): %q segs=%d", got, m.Segments())
	}
	// Tail pointer must still be valid for appends.
	m.Append([]byte("ef"))
	if string(m.CopyBytes()) != "abcdef" {
		t.Fatalf("append after full PullUp = %q", m.CopyBytes())
	}
}

func TestBytesAliasing(t *testing.T) {
	m := chainOf([]byte("ab"), []byte("cd"))
	b := m.Bytes()
	b[0] = 'X'
	if string(m.CopyBytes()) != "Xbcd" {
		t.Fatal("Bytes must alias packet contents")
	}
}

func TestAdjFront(t *testing.T) {
	m := chainOf([]byte("abc"), []byte("def"))
	m.Adj(2)
	if string(m.CopyBytes()) != "cdef" || m.Len() != 4 {
		t.Fatalf("Adj(2): %q len=%d", m.CopyBytes(), m.Len())
	}
	m.Adj(1) // drops the remainder of the first segment exactly... 'c'
	if string(m.CopyBytes()) != "def" {
		t.Fatalf("Adj(1): %q", m.CopyBytes())
	}
}

func TestAdjFrontWholeSegments(t *testing.T) {
	m := chainOf([]byte("ab"), []byte("cd"), []byte("ef"))
	m.Adj(4)
	if string(m.CopyBytes()) != "ef" || m.Segments() != 1 {
		t.Fatalf("Adj(4): %q segs=%d", m.CopyBytes(), m.Segments())
	}
	m.Append([]byte("gh"))
	if string(m.CopyBytes()) != "efgh" {
		t.Fatalf("append after Adj: %q", m.CopyBytes())
	}
}

func TestAdjBack(t *testing.T) {
	m := chainOf([]byte("abc"), []byte("def"))
	m.Adj(-2)
	if string(m.CopyBytes()) != "abcd" || m.Len() != 4 {
		t.Fatalf("Adj(-2): %q len=%d", m.CopyBytes(), m.Len())
	}
	m.Append([]byte("XY"))
	if string(m.CopyBytes()) != "abcdXY" {
		t.Fatalf("append after Adj(-2): %q", m.CopyBytes())
	}
}

func TestAdjAll(t *testing.T) {
	for _, n := range []int{3, 5, -3, -9} {
		m := chainOf([]byte("ab"), []byte("c"))
		m.Adj(n)
		if m.Len() != 0 || m.Segments() != 0 {
			t.Fatalf("Adj(%d) should empty packet, len=%d", n, m.Len())
		}
	}
}

func TestSplitMidSegment(t *testing.T) {
	m := chainOf([]byte("abcd"), []byte("efgh"))
	tail := m.Split(2)
	if string(m.CopyBytes()) != "ab" || string(tail.CopyBytes()) != "cdefgh" {
		t.Fatalf("split: head=%q tail=%q", m.CopyBytes(), tail.CopyBytes())
	}
	if m.Len() != 2 || tail.Len() != 6 {
		t.Fatalf("lens: %d %d", m.Len(), tail.Len())
	}
	m.Append([]byte("ZZ"))
	tail.Append([]byte("!!"))
	if string(m.CopyBytes()) != "abZZ" || string(tail.CopyBytes()) != "cdefgh!!" {
		t.Fatalf("appends after split: %q %q", m.CopyBytes(), tail.CopyBytes())
	}
}

func TestSplitOnBoundary(t *testing.T) {
	m := chainOf([]byte("abcd"), []byte("efgh"))
	tail := m.Split(4)
	if string(m.CopyBytes()) != "abcd" || string(tail.CopyBytes()) != "efgh" {
		t.Fatalf("split: head=%q tail=%q", m.CopyBytes(), tail.CopyBytes())
	}
}

func TestSplitEdges(t *testing.T) {
	m := chainOf([]byte("abcd"))
	tail := m.Split(0)
	if m.Len() != 0 || string(tail.CopyBytes()) != "abcd" {
		t.Fatalf("split(0): head len=%d tail=%q", m.Len(), tail.CopyBytes())
	}
	m2 := chainOf([]byte("abcd"))
	tail2 := m2.Split(4)
	if tail2 == nil || tail2.Len() != 0 || m2.Len() != 4 {
		t.Fatalf("split(len): %v", tail2)
	}
	if m2.Split(5) != nil || m2.Split(-1) != nil {
		t.Fatal("out-of-range split must return nil")
	}
}

func TestSplitCopiesHeaderFlags(t *testing.T) {
	m := chainOf([]byte("abcd"))
	m.Hdr().Flags = MAuthentic | MDecrypted
	m.Hdr().AuxSPI = []uint32{256}
	tail := m.Split(2)
	if tail.Hdr().Flags != (MAuthentic | MDecrypted) {
		t.Fatal("split tail lost flags")
	}
	tail.Hdr().AuxSPI[0] = 999
	if m.Hdr().AuxSPI[0] != 256 {
		t.Fatal("AuxSPI must be deep-copied on split")
	}
}

func TestCat(t *testing.T) {
	a := chainOf([]byte("ab"))
	b := chainOf([]byte("cd"), []byte("ef"))
	b.Hdr().Flags = MAuthentic
	a.Cat(b)
	if string(a.CopyBytes()) != "abcdef" || a.Len() != 6 {
		t.Fatalf("cat: %q len=%d", a.CopyBytes(), a.Len())
	}
	if a.Hdr().Flags&MAuthentic == 0 {
		t.Fatal("cat must OR flags")
	}
	empty := &Mbuf{}
	empty.Cat(chainOf([]byte("x")))
	if string(empty.CopyBytes()) != "x" {
		t.Fatal("cat into empty failed")
	}
	empty.Cat(nil)
	empty.Cat(&Mbuf{})
	if empty.Len() != 1 {
		t.Fatal("cat of empty changed length")
	}
}

func TestCopyDeep(t *testing.T) {
	m := chainOf([]byte("ab"), []byte("cd"))
	m.Hdr().Flags = MDecrypted
	m.Hdr().RcvIf = "sim0"
	m.Hdr().AuxSPI = []uint32{7}
	c := m.Copy()
	c.Bytes()[0] = 'X'
	c.Hdr().AuxSPI[0] = 8
	if string(m.CopyBytes()) != "abcd" || m.Hdr().AuxSPI[0] != 7 {
		t.Fatal("Copy must be deep")
	}
	if c.Hdr().Flags != MDecrypted || c.Hdr().RcvIf != "sim0" {
		t.Fatal("Copy must preserve header")
	}
}

func TestCursorWalksNonEmptySegments(t *testing.T) {
	m := chainOf([]byte("ab"), []byte("cde"), []byte("f"))
	m.head.next.next = &segment{next: m.head.next.next} // an empty segment mid-chain
	var got []string
	cur := m.Cursor()
	for b := cur.Next(); b != nil; b = cur.Next() {
		got = append(got, string(b))
	}
	if len(got) != 3 || got[0] != "ab" || got[1] != "cde" || got[2] != "f" {
		t.Fatalf("cursor walked %q, want [ab cde f]", got)
	}
	if cur.Next() != nil {
		t.Fatal("exhausted cursor returned bytes")
	}
	empty := (&Mbuf{}).Cursor()
	if empty.Next() != nil {
		t.Fatal("cursor over an empty packet returned bytes")
	}
	var zero Cursor
	if zero.Next() != nil {
		t.Fatal("zero cursor returned bytes")
	}
}

func TestCopyRange(t *testing.T) {
	m := chainOf([]byte("ab"), []byte("cdef"), []byte("gh"))
	if got := m.CopyRange(1, 5); string(got) != "bcdef" {
		t.Fatalf("CopyRange(1,5) = %q", got)
	}
	if got := m.CopyRange(0, 8); string(got) != "abcdefgh" {
		t.Fatalf("CopyRange(all) = %q", got)
	}
	if got := m.CopyRange(8, 0); got == nil || len(got) != 0 {
		t.Fatalf("CopyRange(len,0) = %v", got)
	}
	if m.CopyRange(7, 2) != nil || m.CopyRange(-1, 1) != nil || m.CopyRange(0, -1) != nil {
		t.Fatal("out-of-range CopyRange must return nil")
	}
}

func TestEqual(t *testing.T) {
	a := chainOf([]byte("ab"), []byte("cd"))
	b := chainOf([]byte("abcd"))
	if !Equal(a, b) {
		t.Fatal("segmentation must not affect equality")
	}
	c := chainOf([]byte("abce"))
	if Equal(a, c) {
		t.Fatal("different contents reported equal")
	}
}

// Property: for any data and any sequence of chunk boundaries, Split
// followed by Cat is the identity on contents.
func TestQuickSplitCatIdentity(t *testing.T) {
	f := func(data []byte, at uint16) bool {
		m := New(data)
		off := 0
		if len(data) > 0 {
			off = int(at) % (len(data) + 1)
		}
		tail := m.Split(off)
		m.Cat(tail)
		return bytes.Equal(m.CopyBytes(), data) && m.Len() == len(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Adj(front) then Adj(back) yields the matching subslice.
func TestQuickAdjSubslice(t *testing.T) {
	f := func(data []byte, a, b uint8) bool {
		front := int(a) % (len(data) + 1)
		back := int(b) % (len(data) - front + 1)
		m := New(data)
		m.Adj(front)
		m.Adj(-back)
		want := data[front : len(data)-back]
		return bytes.Equal(m.CopyBytes(), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: random chain construction preserves contents and length.
func TestQuickChainContents(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(data []byte) bool {
		m := &Mbuf{}
		rest := data
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			m.Append(rest[:n])
			rest = rest[n:]
		}
		if !bytes.Equal(m.CopyBytes(), data) || m.Len() != len(data) {
			return false
		}
		// PullUp of a random prefix preserves everything.
		k := rng.Intn(len(data) + 1)
		m.PullUp(k)
		return bytes.Equal(m.CopyBytes(), data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPullUpNoop measures the m_pullup fast path: when the first
// segment already holds the requested bytes, PullUp must return them
// without copying or allocating — this is the case on every received
// packet whose headers arrived contiguous, i.e. nearly all of them.
func BenchmarkPullUpNoop(b *testing.B) {
	m := Get(1500)
	defer m.Free()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.PullUp(40) == nil {
			b.Fatal("PullUp failed")
		}
	}
}

// BenchmarkPullUpCoalesce measures the slow path for contrast: the
// requested bytes span segments, so PullUp builds a contiguous prefix.
func BenchmarkPullUpCoalesce(b *testing.B) {
	seg1 := make([]byte, 8)
	seg2 := make([]byte, 1492)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(seg1)
		m.Append(seg2)
		if m.PullUp(40) == nil {
			b.Fatal("PullUp failed")
		}
	}
}

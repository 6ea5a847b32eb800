package mbuf

import (
	"bytes"
	"testing"
)

// TestTrimReturnsSlabs pins the release of every segment a trimming
// operation unlinks: a two-slab chain cut by Adj (either direction),
// PullUp's coalesce or Split must leave nothing outstanding once the
// survivors are freed.  Poison is on, so a released slab that a
// survivor still aliased would show up as corrupt bytes.
func TestTrimReturnsSlabs(t *testing.T) {
	SetPoison(true)
	defer SetPoison(false)
	for _, tc := range []struct {
		name string
		op   func(m *Mbuf) *Mbuf // returns any second packet to free
		want []byte
	}{
		{"Adj back", func(m *Mbuf) *Mbuf { m.Adj(-60); return nil }, pattern(150)[:90]},
		{"Adj front", func(m *Mbuf) *Mbuf { m.Adj(120); return nil }, pattern(150)[120:]},
		{"Adj all", func(m *Mbuf) *Mbuf { m.Adj(150); return nil }, []byte{}},
		{"PullUp", func(m *Mbuf) *Mbuf { m.PullUp(120); return nil }, pattern(150)},
		{"Split mid", func(m *Mbuf) *Mbuf { return m.Split(60) }, pattern(150)[:60]},
		{"Split boundary", func(m *Mbuf) *Mbuf { return m.Split(100) }, pattern(150)[:100]},
		{"Split front", func(m *Mbuf) *Mbuf { return m.Split(0) }, []byte{}},
	} {
		before := Outstanding()
		m := Get(100)
		copy(m.Bytes(), pattern(150))
		n := Get(50)
		copy(n.Bytes(), pattern(150)[100:])
		m.Cat(n)
		other := tc.op(m)
		if got := m.CopyBytes(); !bytes.Equal(got, tc.want) {
			t.Fatalf("%s: packet holds %d bytes %x, want %x", tc.name, len(got), got, tc.want)
		}
		m.Free()
		other.Free()
		if d := Outstanding() - before; d != 0 {
			t.Errorf("%s: %d slab bytes outstanding after Free, want 0", tc.name, d)
		}
	}
}

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + 1)
	}
	return b
}

// TestPrependNAppendNInPlace checks that a pooled packet's leading and
// trailing slab space absorbs PrependN and AppendN without a new
// segment, that Room reports exactly that space, and that the bytes
// around the claimed areas are untouched.
func TestPrependNAppendNInPlace(t *testing.T) {
	m := Get(100)
	defer m.Free()
	copy(m.Bytes(), pattern(100))
	lead, trail := m.Room()
	if lead != Headroom || trail != 512-Headroom-100 {
		t.Fatalf("Room() = %d, %d; want %d, %d", lead, trail, Headroom, 512-Headroom-100)
	}
	before := PrependSpills()
	copy(m.PrependN(8), "HEADERS!")
	copy(m.AppendN(7), "TRAILER")
	if m.Segments() != 1 || PrependSpills() != before {
		t.Fatalf("in-place claims left %d segments, %d spills", m.Segments(), PrependSpills()-before)
	}
	want := append(append([]byte("HEADERS!"), pattern(100)...), "TRAILER"...)
	if !bytes.Equal(m.Bytes(), want) || m.Len() != len(want) {
		t.Fatalf("packet = %q, want %q", m.Bytes(), want)
	}
	if l, tr := m.Room(); l != lead-8 || tr != trail-7 {
		t.Fatalf("Room() after claims = %d, %d; want %d, %d", l, tr, lead-8, trail-7)
	}
	// A trailing trim gives the space back to AppendN.
	m.Adj(-7)
	if _, tr := m.Room(); tr != trail {
		t.Fatalf("Room() trail after trim = %d, want %d", tr, trail)
	}
}

// TestRoomNoneOffPool: packets whose bytes are not one pooled slab
// report no room, and PrependN/AppendN on them fall back to new
// segments that still carry the bytes in order.
func TestRoomNoneOffPool(t *testing.T) {
	flat := New([]byte("body"))
	chain := Get(10)
	chain.Cat(Get(10))
	for name, m := range map[string]*Mbuf{"New": flat, "chain": chain} {
		if l, tr := m.Room(); l != 0 || tr != 0 {
			t.Errorf("%s: Room() = %d, %d; want 0, 0", name, l, tr)
		}
	}
	copy(flat.PrependN(2), "<<")
	copy(flat.AppendN(2), ">>")
	if got := string(flat.Bytes()); got != "<<body>>" {
		t.Fatalf("off-pool PrependN/AppendN built %q", got)
	}
	// A slab whose trailing space is used up spills AppendN.
	full := Get(512 - Headroom)
	if _, tr := full.Room(); tr != 0 {
		t.Fatalf("full slab reports %d trailing bytes", tr)
	}
	full.AppendN(1)
	if full.Segments() != 2 || full.Len() != 512-Headroom+1 {
		t.Fatalf("spilled AppendN: %d segments, len %d", full.Segments(), full.Len())
	}
	full.Free()
	chain.Free()
}

// TestAddSPIInline checks that AuxSPI grows past its inline storage
// and that copies never share the original's entries.
func TestAddSPIInline(t *testing.T) {
	m := Get(4)
	defer m.Free()
	for spi := uint32(1); spi <= 3; spi++ {
		m.Hdr().AddSPI(spi)
	}
	c := m.Copy()
	s := m.Split(2)
	m.Hdr().AuxSPI[0] = 99
	for _, h := range []*PktHdr{c.Hdr(), s.Hdr()} {
		if len(h.AuxSPI) != 3 || h.AuxSPI[0] != 1 || h.AuxSPI[2] != 3 {
			t.Fatalf("copied AuxSPI = %v, want [1 2 3]", h.AuxSPI)
		}
	}
}

// Package mbuf implements BSD-style packet data chains.
//
// 4.4 BSD carries every packet through the kernel as a chain of "mbufs":
// fixed-size buffers linked by m_next, with the first mbuf of a packet
// carrying a packet header (m_pkthdr) that records the total length, the
// receiving interface, and per-packet flags.  The NRL IPv6 work extended
// the packet header in two ways this package reproduces:
//
//   - two new flags, M_AUTHENTIC and M_DECRYPTED, set by IP security
//     input processing when a packet passes Authentication Header or ESP
//     processing (and cleared again if the tunnel source-address checks
//     fail), and
//   - a back pointer from the packet to the sending socket, so that
//     ipsec_output_policy() can read the socket's requested security
//     level while the packet is already deep in the output path.
//
// A Mbuf here is a chain of segments rather than 128-byte clusters; what
// matters for the reproduction is the chain structure (headers are
// written into a pooled segment's leading space, or prepended as
// separate segments when it has none; PullUp linearizes on demand) and
// the packet-header metadata, not the allocator geometry.
package mbuf

import (
	"bytes"
	"fmt"

	"bsd6/internal/inet"
)

// Packet flags carried in the packet header. MAuthentic and MDecrypted
// are the NRL additions described in the paper's §3.4.
const (
	MBcast     = 1 << iota // received as a link-level broadcast
	MMcast                 // received as a link-level multicast
	MAuthentic             // packet passed AH authentication processing
	MDecrypted             // packet passed ESP decryption processing
	MLoop                  // looped back (sent and received on loopback)
	MFrag                  // packet is a fragment of a larger datagram
	MSumOK                 // transport checksum already verified (GRO)
)

// PktHdr is the per-packet header present on the first mbuf of a chain
// (BSD's m_pkthdr).
type PktHdr struct {
	Len    int    // total length of the chain
	RcvIf  string // name of the receiving interface, "" on output
	Flags  int    // MBcast, MMcast, MAuthentic, MDecrypted, ...
	Socket any    // back pointer to the sending socket (NRL addition)

	// AuxSPI records the SPIs of security associations already applied
	// to this packet on input, so the transport-layer policy check can
	// tell *which* associations protected the data.  Add entries with
	// AddSPI: the first two live in auxSPI, inline in the header.
	AuxSPI []uint32
	auxSPI [2]uint32

	// Encap counts tunnel encapsulations this packet has traversed on
	// this node — incremented on every tunnel encap and decap, checked
	// against the configured nesting limit (RFC 2473 "Tunnel
	// Encapsulation Limit" in spirit) so a tunnel routed into itself
	// terminates deterministically instead of recursing.
	Encap uint8

	// GRO, when non-nil, carries receive-coalescing metadata: the
	// transport-defined record of the original segment boundaries
	// merged into this super-segment, so transport input can replay
	// per-segment effects (ACK cadence, window history) exactly.
	GRO any
}

// AddSPI records spi in AuxSPI.  A packet rarely carries more than an
// AH and an ESP association, so the first two SPIs go into storage
// inline in the packet header and recording them allocates nothing.
func (h *PktHdr) AddSPI(spi uint32) {
	if h.AuxSPI == nil {
		h.AuxSPI = h.auxSPI[:0]
	}
	h.AuxSPI = append(h.AuxSPI, spi)
}

// cloneHdr returns a copy of h for a new packet: AuxSPI is copied
// into the copy's own storage, never shared, and Len starts at 0.
func cloneHdr(h *PktHdr) PktHdr {
	c := *h
	c.Len = 0
	c.AuxSPI = nil
	for _, spi := range h.AuxSPI {
		c.AddSPI(spi)
	}
	return c
}

// segment is one buffer in the chain (an mbuf without a packet header).
//
// A segment backed by a pooled slab (slab != nil) keeps the invariant
// data == (*slab)[off : off+len(data)]: Adj, PullUp and Prepend
// maintain off so the slab's spare front capacity can absorb prepended
// headers in place, and Free can return the whole slab to its pool.
type segment struct {
	data []byte
	next *segment
	slab *[]byte // the pool's handle on the backing array, nil when not pool-owned
	off  int     // start of data within slab
}

// Mbuf is a packet: a chain of data segments plus a packet header.
// The zero value is an empty packet.
type Mbuf struct {
	hdr  PktHdr
	head *segment
	tail *segment
	// seg0 is the inline first segment: single-segment packets (the
	// overwhelming majority) cost one allocation instead of two.  It
	// is claimed only while virgin, by whichever constructor or first
	// Append touches the packet.
	seg0 segment
}

// firstSeg returns the inline segment if it has never been used,
// otherwise a fresh allocation.
func (m *Mbuf) firstSeg() *segment {
	if m.seg0.data == nil && m.seg0.slab == nil && m.seg0.next == nil {
		return &m.seg0
	}
	return &segment{}
}

// release drops the segment's bytes, returning a pooled slab to its
// pool.  Every path that unlinks a segment from a chain (Free, Adj,
// PullUp, Split) goes through it, so none can leak a slab.
func (s *segment) release() {
	if s.slab != nil {
		putSlab(s.slab)
		s.slab = nil
	}
	s.data, s.next = nil, nil
}

// releaseFrom releases s and every segment after it.
func releaseFrom(s *segment) {
	for s != nil {
		next := s.next
		s.release()
		s = next
	}
}

// New builds a packet holding a copy of data.
func New(data []byte) *Mbuf {
	m := &Mbuf{}
	m.Append(data)
	return m
}

// NewNoCopy builds a packet that takes ownership of data without copying.
// The caller must not modify data afterwards.
func NewNoCopy(data []byte) *Mbuf {
	m := &Mbuf{}
	if len(data) > 0 {
		seg := &m.seg0
		seg.data = data
		m.head, m.tail = seg, seg
		m.hdr.Len = len(data)
	}
	return m
}

// Hdr returns the packet header for inspection and modification.
func (m *Mbuf) Hdr() *PktHdr { return &m.hdr }

// Len returns the total number of bytes in the chain.
func (m *Mbuf) Len() int { return m.hdr.Len }

// Segments returns the number of segments in the chain.
func (m *Mbuf) Segments() int {
	n := 0
	for s := m.head; s != nil; s = s.next {
		n++
	}
	return n
}

// Append adds a copy of data at the tail of the chain.
func (m *Mbuf) Append(data []byte) {
	if len(data) == 0 {
		return
	}
	var seg *segment
	if m.tail == nil {
		seg = m.firstSeg()
		m.head, m.tail = seg, seg
	} else {
		seg = &segment{}
		m.tail.next = seg
		m.tail = seg
	}
	seg.data = append([]byte(nil), data...)
	m.hdr.Len += len(data)
}

// Prepend adds a copy of data at the head of the chain (BSD's
// M_PREPEND followed by a copy); see PrependN.
func (m *Mbuf) Prepend(data []byte) {
	copy(m.PrependN(len(data)), data)
}

// PrependN reserves n bytes at the head of the chain and returns them
// for the caller to fill: BSD's M_PREPEND followed by mtod.  This is
// how each protocol layer writes its header on the output path.  When
// the first segment is a pooled slab with at least n bytes of leading
// space (M_LEADINGSPACE), the bytes are claimed in place: no new
// segment, no allocation.  Otherwise they go into a new segment.  The
// returned bytes are not zeroed when claimed in place.
func (m *Mbuf) PrependN(n int) []byte {
	if n <= 0 {
		return nil
	}
	m.hdr.Len += n
	if h := m.head; h != nil && h.slab != nil && h.off >= n {
		h.off -= n
		h.data = (*h.slab)[h.off : h.off+n+len(h.data)]
		return h.data[:n]
	}
	if m.head != nil && m.head.slab != nil {
		// A pooled packet ran out of leading space: the header goes
		// into a fresh segment, i.e. Headroom was sized too small for
		// this encap stack.  Counted so tests can prove it never
		// happens on the supported paths.
		prependSpills.Add(1)
	}
	seg := &segment{data: make([]byte, n), next: m.head}
	m.head = seg
	if m.tail == nil {
		m.tail = seg
	}
	return seg.data
}

// AppendN reserves n bytes at the tail of the chain and returns them
// for the caller to fill (BSD's M_TRAILINGSPACE, then a write past
// the end).  When the last segment is a pooled slab with at least n
// bytes of trailing space, the bytes are claimed in place; otherwise
// they go into a new segment.  The returned bytes are not zeroed when
// claimed in place.
func (m *Mbuf) AppendN(n int) []byte {
	if n <= 0 {
		return nil
	}
	if t := m.tail; t != nil && t.slab != nil && len(*t.slab)-t.off-len(t.data) >= n {
		old := len(t.data)
		t.data = (*t.slab)[t.off : t.off+old+n]
		m.hdr.Len += n
		return t.data[old:]
	}
	b := make([]byte, n)
	m.AppendNoCopy(b)
	return b
}

// Room reports the leading and trailing slab space of a packet held in
// a single pooled segment: how many bytes PrependN and AppendN can
// claim without leaving that segment.  Any other packet (several
// segments, or bytes not from the pool) reports no room.
func (m *Mbuf) Room() (lead, trail int) {
	h := m.head
	if h == nil || h.next != nil || h.slab == nil {
		return 0, 0
	}
	return h.off, len(*h.slab) - h.off - len(h.data)
}

// AppendNoCopy adds data at the tail of the chain without copying,
// taking ownership: the caller must not modify data afterwards.
func (m *Mbuf) AppendNoCopy(data []byte) {
	if len(data) == 0 {
		return
	}
	var seg *segment
	if m.tail == nil {
		seg = m.firstSeg()
		m.head, m.tail = seg, seg
	} else {
		seg = &segment{}
		m.tail.next = seg
		m.tail = seg
	}
	seg.data = data
	m.hdr.Len += len(data)
}

// Cat appends the segments of n to m, transferring ownership. n must not
// be used afterwards. Packet-header flags of n are ORed into m.
func (m *Mbuf) Cat(n *Mbuf) {
	if n == nil || n.head == nil {
		return
	}
	if m.tail == nil {
		m.head, m.tail = n.head, n.tail
	} else {
		m.tail.next = n.head
		m.tail = n.tail
	}
	m.hdr.Len += n.hdr.Len
	m.hdr.Flags |= n.hdr.Flags
	n.head, n.tail, n.hdr.Len = nil, nil, 0
}

// PullUp guarantees that the first n bytes of the packet are contiguous
// in the first segment and returns them. It returns nil if the packet is
// shorter than n. This is BSD's m_pullup: protocol input routines call
// it before overlaying header structures on the data.
func (m *Mbuf) PullUp(n int) []byte {
	if n < 0 || n > m.hdr.Len {
		return nil
	}
	if n == 0 {
		return []byte{}
	}
	if len(m.head.data) >= n {
		// Fast path: the first segment already holds the bytes — no
		// copy, no new segment.
		return m.head.data[:n]
	}
	// Coalesce exactly n bytes into a new first segment; a partially
	// consumed segment is trimmed in place and keeps the remainder of
	// the chain intact (the old code copied whole segments past n).
	buf := make([]byte, 0, n)
	s := m.head
	for len(buf) < n {
		need := n - len(buf)
		if len(s.data) <= need {
			buf = append(buf, s.data...)
			next := s.next
			s.release()
			s = next
		} else {
			buf = append(buf, s.data[:need]...)
			s.data = s.data[need:]
			s.off += need
		}
	}
	first := &segment{data: buf, next: s}
	m.head = first
	if s == nil {
		m.tail = first
	}
	return m.head.data[:n]
}

// Bytes linearizes the whole chain into a single contiguous slice and
// returns it. After Bytes the chain has one segment; the returned slice
// aliases it, so callers may modify packet contents in place.
func (m *Mbuf) Bytes() []byte {
	if m.head == nil {
		return []byte{}
	}
	if m.head.next == nil {
		return m.head.data
	}
	return m.PullUp(m.hdr.Len)
}

// Cursor walks a packet's chain segment by segment without copying,
// restructuring or allocating: BSD's loop over m_next, for callers
// outside the package.  The zero value is an exhausted cursor.
type Cursor struct {
	s *segment
}

// Cursor returns a cursor positioned before the packet's first
// segment.  The packet must not be modified while the cursor is used.
func (m *Mbuf) Cursor() Cursor { return Cursor{s: m.head} }

// Next returns the bytes of the next non-empty segment, in stream
// order, or nil when the chain is exhausted.  The bytes alias the
// packet and die with it.
func (c *Cursor) Next() []byte {
	for c.s != nil {
		b := c.s.data
		c.s = c.s.next
		if len(b) > 0 {
			return b
		}
	}
	return nil
}

// CopySum copies the whole chain into dst while accumulating the
// ones-complement checksum of the copied bytes — the split-buffer
// form of BSD's in_cksum-with-copy fusion, so gathering a chain into
// a wire buffer and checksumming it costs one traversal instead of
// two.  dst must hold Len() bytes; the chain is not altered.  The
// returned accumulator (initial included) is unfolded, ready for
// inet.Fold.  Odd-length segments are handled by byte-swapping the
// partial sum at each odd stream offset (RFC 1071 §2(B)), so the
// result is identical to summing the linearized packet.
func (m *Mbuf) CopySum(initial uint32, dst []byte) uint32 {
	sum := uint64(initial)
	odd := false
	for s := m.head; s != nil; s = s.next {
		f := uint32(inet.FoldRaw(inet.SumCopy(0, dst, s.data)))
		if odd {
			f = f>>8 | f&0xff<<8
		}
		sum += uint64(f)
		if len(s.data)&1 == 1 {
			odd = !odd
		}
		dst = dst[len(s.data):]
	}
	// Deferred carries back to the unfolded 32-bit form.
	sum = sum>>32 + sum&0xffffffff
	sum = sum>>32 + sum&0xffffffff
	return uint32(sum)
}

// CopyTo copies the packet contents into dst without altering the
// chain structure (BSD's m_copydata into a caller buffer) and returns
// the number of bytes copied: the smaller of len(dst) and Len().
func (m *Mbuf) CopyTo(dst []byte) int {
	n := 0
	for s := m.head; s != nil && n < len(dst); s = s.next {
		n += copy(dst[n:], s.data)
	}
	return n
}

// CopyBytes returns a copy of the packet contents without altering the
// chain structure.
func (m *Mbuf) CopyBytes() []byte {
	buf := make([]byte, 0, m.hdr.Len)
	for s := m.head; s != nil; s = s.next {
		buf = append(buf, s.data...)
	}
	return buf
}

// Copy returns a deep copy of the packet, including the packet header.
// The copy is flattened into a single segment: one allocation however
// many segments the original has.
func (m *Mbuf) Copy() *Mbuf {
	n := &Mbuf{hdr: cloneHdr(&m.hdr)}
	if m.hdr.Len > 0 {
		buf := make([]byte, 0, m.hdr.Len)
		for s := m.head; s != nil; s = s.next {
			buf = append(buf, s.data...)
		}
		n.AppendNoCopy(buf)
	}
	return n
}

// Adj trims bytes from the packet, as BSD's m_adj: positive n trims from
// the front, negative n trims -n bytes from the back. Trimming more than
// the packet holds empties it.  Segments trimmed away entirely are
// released.
func (m *Mbuf) Adj(n int) {
	if n >= 0 {
		if n >= m.hdr.Len {
			releaseFrom(m.head)
			m.head, m.tail, m.hdr.Len = nil, nil, 0
			return
		}
		m.hdr.Len -= n
		for n > 0 {
			if len(m.head.data) > n {
				m.head.data = m.head.data[n:]
				m.head.off += n
				return
			}
			n -= len(m.head.data)
			next := m.head.next
			m.head.release()
			m.head = next
		}
		return
	}
	drop := -n
	if drop >= m.hdr.Len {
		releaseFrom(m.head)
		m.head, m.tail, m.hdr.Len = nil, nil, 0
		return
	}
	keep := m.hdr.Len - drop
	m.hdr.Len = keep
	s := m.head
	for keep > len(s.data) {
		keep -= len(s.data)
		s = s.next
	}
	s.data = s.data[:keep]
	releaseFrom(s.next)
	s.next = nil
	m.tail = s
}

// Split severs the packet at offset off, returning a new packet holding
// everything from off onward. The receiver keeps the first off bytes and
// the packet header; the tail packet gets a copy of the header with its
// length fixed up (BSD's m_split). Returns nil if off is out of range.
// The tail's bytes are copied, and the receiver's segments past off
// are released.
func (m *Mbuf) Split(off int) *Mbuf {
	if off < 0 || off > m.hdr.Len {
		return nil
	}
	t := &Mbuf{hdr: cloneHdr(&m.hdr)}
	if off == m.hdr.Len {
		return t
	}
	// Walk to the split point.
	var prev *segment
	s := m.head
	rem := off
	for s != nil && rem >= len(s.data) {
		rem -= len(s.data)
		prev, s = s, s.next
	}
	if rem > 0 { // split lands inside segment s
		t.Append(s.data[rem:])
		s.data = s.data[:rem]
		prev, s = s, s.next
	}
	for n := s; n != nil; n = n.next {
		t.Append(n.data)
	}
	releaseFrom(s)
	if prev == nil {
		m.head, m.tail = nil, nil
	} else {
		prev.next = nil
		m.tail = prev
	}
	m.hdr.Len = off
	return t
}

// CopyRange copies n bytes starting at offset off into a fresh slice.
// It returns nil if the range is out of bounds (BSD's m_copydata).
func (m *Mbuf) CopyRange(off, n int) []byte {
	if off < 0 || n < 0 || off+n > m.hdr.Len {
		return nil
	}
	out := make([]byte, 0, n)
	s := m.head
	for s != nil && off >= len(s.data) {
		off -= len(s.data)
		s = s.next
	}
	for s != nil && n > 0 {
		chunk := s.data[off:]
		if len(chunk) > n {
			chunk = chunk[:n]
		}
		out = append(out, chunk...)
		n -= len(chunk)
		off = 0
		s = s.next
	}
	return out
}

// Equal reports whether two packets carry identical byte contents.
func Equal(a, b *Mbuf) bool {
	return a.Len() == b.Len() && bytes.Equal(a.CopyBytes(), b.CopyBytes())
}

// String summarizes the chain for diagnostics.
func (m *Mbuf) String() string {
	return fmt.Sprintf("mbuf{len=%d segs=%d flags=%#x}", m.hdr.Len, m.Segments(), m.hdr.Flags)
}

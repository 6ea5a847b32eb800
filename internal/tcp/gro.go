package tcp

import (
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

// Receive coalescing (a GRO analog).  The netisr, draining a burst
// of queued frames, offers each IP frame to the GRO engine before IP
// input.  Consecutive in-order data segments of the same
// TCP 4-tuple with compatible headers are merged into one
// super-segment, so the whole burst pays one IP input pass, one demux
// lookup, one policy check and one lock acquisition instead of one per
// wire frame.  The engine verifies each absorbed segment's transport
// checksum as it merges (marking the result MSumOK so tcp_input does
// not re-verify), and records the original segment boundaries in the
// packet header so input applies per-segment effects — the delayed-ACK
// cadence, window history — exactly; the wire out the other side is
// byte-identical to the unbatched path's.
//
// Flush rules (what breaks coalescing): any flag beyond ACK
// (SYN/FIN/RST/URG/PSH), TCP options, a sequence gap, a window
// change, a non-monotone ACK, a pure ACK, an IP fragment or any
// extension header, a checksum failure, differing IP headers, a
// tuple no PCB claims, or the coalesced-size ceiling.  A frame that
// breaks the rules first flushes the pending super-segment, then
// passes through untouched, so global arrival order is preserved.
//
// Each stack has one engine, owned by its netisr goroutine; it holds
// at most one pending super-segment and the netisr flushes it before
// sleeping, so coalescing state never outlives a burst.
//
// The boundary record is the engine's own, not a per-flush
// allocation: a multi-segment flush hands out &g.rec, and the next
// one rewrites it.  That is safe because the netisr delivers every
// flushed super-segment synchronously through IP and TCP input, which
// read the record, before it offers the engine another frame: a
// record is always consumed before the engine's next multi-segment
// flush reuses it.  A caller that holds a flushed super-segment across
// a later Push or Flush must not read its record.

// groSeg is one original segment's boundary inside a super-segment.
type groSeg struct {
	len int    // payload bytes
	ack uint32 // the segment's acknowledgment field
}

// groMeta rides mbuf.PktHdr.GRO on a coalesced super-segment: the
// original segment boundaries, first to last.  The first entry's ack
// equals the super-segment's TCP header ack; the window and flags of
// every merged segment are identical by the merge rules.
type groMeta struct {
	segs []groSeg
}

// GRO is a netisr's receive-coalescing engine. Not safe for
// concurrent use; the netisr goroutine owns it.
type GRO struct {
	t *TCP

	// Pending super-segment, nil when none.
	pkt     *mbuf.Mbuf
	hb      []byte // its IP+TCP header bytes (writable view into pkt)
	v4      bool
	iplen   int
	nextSeq uint32
	lastAck uint32
	dataLen int
	segs    []groSeg // the pending train's boundaries

	// rec is the record the last multi-segment flush handed out.
	// Flush swaps buffers with segs, so the next train never appends
	// into the array a just-flushed record reads.
	rec groMeta
}

// NewGRO creates a coalescing engine for a stack's netisr.
func (t *TCP) NewGRO() *GRO {
	return &GRO{t: t}
}

// groCand is the shallow parse of a coalescing candidate.
type groCand struct {
	b        []byte // full linearized frame
	iplen    int
	src, dst inet.IP6
	seq, ack uint32
	tlen     int
}

// Push offers one IP frame on its way to IP input.  flushed, when
// non-nil, is a previously pending super-segment that must be
// dispatched first; pass, when non-nil, is the offered frame itself,
// to be dispatched next (the engine declined it).  When pass is nil
// the engine took ownership of the frame — it is now the pending
// super-segment (or was absorbed into it) and will surface from a
// later Push or Flush.
func (g *GRO) Push(pkt *mbuf.Mbuf, v4 bool) (flushed, pass *mbuf.Mbuf) {
	c, ok := g.parse(pkt, v4)
	if !ok {
		return g.Flush(), pkt
	}
	if g.pkt != nil && g.matches(&c, v4) {
		if !g.verify(&c, v4) {
			// Corrupt segment: flush the pending train and let the
			// normal input path charge and drop it, as unbatched would.
			return g.Flush(), pkt
		}
		pkt.Adj(c.iplen + HeaderLen)
		g.pkt.Cat(pkt)
		g.segs = append(g.segs, groSeg{len: c.tlen, ack: c.ack})
		g.nextSeq += uint32(c.tlen)
		g.lastAck = c.ack
		g.dataLen += c.tlen
		g.t.Stats.GROCoalesced.Inc()
		return nil, nil
	}
	// Not mergeable into the pending train (or none pending): flush,
	// then hold this frame as the new candidate — verified now so a
	// later merge needs no second look and the eventual flush can be
	// marked MSumOK either way.
	flushed = g.Flush()
	if !g.verify(&c, v4) {
		return flushed, pkt
	}
	if g.t.Table.Lookup(c.dst, dport(c.b[c.iplen:]), c.src, sport(c.b[c.iplen:]), v4) == nil {
		// No PCB claims the tuple: merging K segments would collapse K
		// RST responses into one.  Pass through unbatched.
		return flushed, pkt
	}
	g.pkt = pkt
	g.hb = c.b
	g.v4 = v4
	g.iplen = c.iplen
	g.nextSeq = c.seq + uint32(c.tlen)
	g.lastAck = c.ack
	g.dataLen = c.tlen
	g.segs = append(g.segs[:0], groSeg{len: c.tlen, ack: c.ack})
	return flushed, nil
}

// Flush surfaces the pending super-segment, if any.  The caller must
// invoke it at the end of every burst so no frame waits on a quiet
// link.
func (g *GRO) Flush() *mbuf.Mbuf {
	if g.pkt == nil {
		return nil
	}
	pkt := g.pkt
	g.pkt = nil
	if len(g.segs) > 1 {
		// Patch the IP payload length for the coalesced size; the
		// super-segment's TCP checksum field is stale but MSumOK makes
		// it unread.
		if g.v4 {
			oldTot := uint16(g.hb[2])<<8 | uint16(g.hb[3])
			newTot := uint16(g.iplen + HeaderLen + g.dataLen)
			g.hb[2], g.hb[3] = byte(newTot>>8), byte(newTot)
			ck := uint16(g.hb[10])<<8 | uint16(g.hb[11])
			ck = inet.UpdateChecksum16(ck, oldTot, newTot)
			g.hb[10], g.hb[11] = byte(ck>>8), byte(ck)
		} else {
			plen := HeaderLen + g.dataLen
			g.hb[4], g.hb[5] = byte(plen>>8), byte(plen)
		}
		g.rec.segs, g.segs = g.segs, g.rec.segs
		pkt.Hdr().GRO = &g.rec
		g.t.Stats.GROFlushes.Inc()
	}
	pkt.Hdr().Flags |= mbuf.MSumOK
	g.hb = nil
	g.segs = g.segs[:0]
	g.dataLen = 0
	return pkt
}

// parse is the shallow candidate check: a whole, option-free,
// ACK-only, data-bearing TCP segment carried directly in IPv6 (no
// extension headers) or an unfragmented option-free IPv4 header.
// Anything else — including every flag and boundary the conformance
// tests pin — is declined and travels the unbatched path.
func (g *GRO) parse(pkt *mbuf.Mbuf, v4 bool) (c groCand, ok bool) {
	iplen := 40
	if v4 {
		iplen = 20
	}
	if pkt.Len() <= iplen+HeaderLen || pkt.Len() > iplen+HeaderLen+DefaultGROMax {
		return c, false
	}
	b := pkt.PullUp(pkt.Len())
	if b == nil {
		return c, false
	}
	if v4 {
		if b[0] != 0x45 { // version 4, no options
			return c, false
		}
		if int(b[2])<<8|int(b[3]) != len(b) {
			return c, false
		}
		frag := uint16(b[6])<<8 | uint16(b[7])
		if frag&0x3fff != 0 { // MF set or offset: a fragment
			return c, false
		}
		if b[9] != proto.TCP {
			return c, false
		}
		if inet.Checksum(b[:20]) != 0 {
			// Bad IP header checksum: ipv4 input must see and count it.
			return c, false
		}
		s4, d4 := inet.IP4{b[12], b[13], b[14], b[15]}, inet.IP4{b[16], b[17], b[18], b[19]}
		c.src, c.dst = inet.V4Mapped(s4), inet.V4Mapped(d4)
	} else {
		if b[0]>>4 != 6 {
			return c, false
		}
		if int(b[4])<<8|int(b[5]) != len(b)-40 {
			return c, false
		}
		if b[6] != proto.TCP { // extension headers (incl. Fragment) decline
			return c, false
		}
		copy(c.src[:], b[8:24])
		copy(c.dst[:], b[24:40])
	}
	th := b[iplen:]
	if int(th[12]>>4)*4 != HeaderLen { // TCP options present
		return c, false
	}
	if th[13] != FlagACK { // only flag-free data rides a train
		return c, false
	}
	if th[18] != 0 || th[19] != 0 { // urgent pointer without URG
		return c, false
	}
	c.b = b
	c.iplen = iplen
	c.seq = be32(th[4:])
	c.ack = be32(th[8:])
	c.tlen = len(b) - iplen - HeaderLen
	return c, true
}

// matches reports whether the candidate extends the pending train:
// same family, identical IP header (bar the length, and for IPv4 the
// ID and header checksum), same ports and window, contiguous
// sequence, monotone acknowledgment, and room under the ceiling.
func (g *GRO) matches(c *groCand, v4 bool) bool {
	if v4 != g.v4 || g.dataLen+c.tlen > DefaultGROMax {
		return false
	}
	p, n := g.hb, c.b
	if v4 {
		// Compare ver/ihl+tos, frag+ttl+proto, addresses; skip total
		// length (2:4), ID (4:6) and header checksum (10:12).
		if !eq(p[0:2], n[0:2]) || !eq(p[6:10], n[6:10]) || !eq(p[12:20], n[12:20]) {
			return false
		}
	} else {
		// Compare ver/class/flow, next-header+hop-limit, addresses;
		// skip payload length (4:6).
		if !eq(p[0:4], n[0:4]) || !eq(p[6:8], n[6:8]) || !eq(p[8:40], n[8:40]) {
			return false
		}
	}
	pt, nt := p[g.iplen:], n[c.iplen:]
	if !eq(pt[0:4], nt[0:4]) { // ports
		return false
	}
	if !eq(pt[14:16], nt[14:16]) { // window change breaks the train
		return false
	}
	if c.seq != g.nextSeq {
		return false
	}
	return seqGEQ(c.ack, g.lastAck)
}

// verify checks the candidate's transport checksum, so a corrupt
// segment is never absorbed (it must travel the unbatched drop path)
// and a flushed train can skip re-verification in tcp_input.
func (g *GRO) verify(c *groCand, v4 bool) bool {
	seg := c.b[c.iplen:]
	if v4 {
		s4, _ := c.src.MappedV4()
		d4, _ := c.dst.MappedV4()
		return inet.TransportChecksum4(s4, d4, proto.TCP, seg) == 0
	}
	return inet.TransportChecksum6(c.src, c.dst, proto.TCP, seg) == 0
}

func be32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}

func sport(th []byte) uint16 { return uint16(th[0])<<8 | uint16(th[1]) }
func dport(th []byte) uint16 { return uint16(th[2])<<8 | uint16(th[3]) }

func eq(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

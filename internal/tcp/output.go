package tcp

import (
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

// output is tcp_output: decide whether a segment should be sent and
// build it. Caller holds t.mu; segments land in the outbox.
func (c *Conn) output() {
	t := c.t
	for {
		off := int(c.sndNxt - c.sndUna)
		if off < 0 {
			off = 0
		}
		avail := len(c.sndBuf) - off
		if avail < 0 {
			avail = 0
		}
		wnd := c.sndWnd
		if c.cwnd < wnd {
			wnd = c.cwnd
		}

		flags := FlagACK
		synPending := false
		switch c.state {
		case StateClosed, StateListen:
			return
		case StateSynSent:
			flags = FlagSYN
			synPending = c.sndNxt == c.iss
		case StateSynRcvd:
			flags = FlagSYN | FlagACK
			synPending = c.sndNxt == c.iss
		}
		if (c.state == StateSynSent || c.state == StateSynRcvd) && !synPending {
			return // SYN in flight; the retransmit timer re-arms it
		}

		length := 0
		if !synPending {
			usable := wnd - off
			if usable < 0 {
				usable = 0
			}
			length = avail
			if length > usable {
				length = usable
			}
			if length > c.mss {
				length = c.mss
			}
		}

		// FIN goes out once all buffered data is included.
		finSeq := c.sndUna + uint32(len(c.sndBuf))
		finNow := c.sndClosed && !synPending &&
			off+length == len(c.sndBuf) && !seqGT(c.sndNxt+uint32(length), finSeq)
		if finNow {
			flags |= FlagFIN
			c.finQueued = true
			c.finSeq = finSeq
		}

		if length == 0 && !synPending && !finNow && !c.needAck {
			// Nothing to send. Start the persist timer if data is
			// stalled on a zero window.
			if avail > 0 && wnd == 0 && c.tRexmt == 0 && c.tPersist == 0 {
				c.tPersist = c.rto
			}
			return
		}

		hdr := &Header{
			SPort: c.pcb.LPort, DPort: c.pcb.FPort,
			Seq: c.sndNxt, Ack: c.rcvNxt,
			Flags: flags, Wnd: uint16(c.rcvSpace()),
		}
		if synPending {
			hdr.MSS = c.mss
		}
		if length > 0 && off+length == len(c.sndBuf) {
			hdr.Flags |= FlagPSH
		}
		var payload []byte
		if length > 0 {
			payload = c.sndBuf[off : off+length]
		}
		c.queueSegment(hdr, payload)
		t.Stats.SndPack.Inc()
		t.Stats.SndByte.Add(uint64(length))

		adv := uint32(length)
		if synPending {
			adv++
		}
		if finNow {
			adv++
		}
		wasRexmit := !seqGT(c.sndNxt+adv, c.sndMax) && adv > 0
		c.sndNxt += adv
		if seqGT(c.sndNxt, c.sndMax) {
			c.sndMax = c.sndNxt
			if c.rttTicks < 0 && adv > 0 {
				// Time this segment for RTT estimation.
				c.rttTicks = c.ticks
				c.rttSeq = c.sndNxt
			}
		} else if wasRexmit {
			t.Stats.SndRexmit.Inc()
		}
		if adv > 0 && c.tRexmt == 0 {
			c.tRexmt = c.rto
		}
		if uint32(c.rcvSpace()) > 0 {
			c.rcvAdv = c.rcvNxt + uint32(c.rcvSpace())
		}
		c.needAck = false
		c.delack = false

		// Keep going while full-size segments remain sendable.
		if length != c.mss || avail <= length {
			return
		}
	}
}

// queueSegment finalizes a segment (checksum over the right
// pseudo-header for the session's protocol family — the §5.3 code
// split) and places it in the outbox. Every segment, a pure ACK
// included, is marshalled by Header.Put and summed in one pass; data
// segments fuse the payload copy with that pass (SumCopy) so the bytes
// are touched once, not twice. Caller holds t.mu.
func (c *Conn) queueSegment(hdr *Header, payload []byte) {
	src, dst := c.pcb.LAddr, c.pcb.FAddr
	v6 := !dst.IsV4Mapped()
	hlen := hdr.Len()
	tlen := hlen + len(payload)
	// One pooled buffer carries header and payload contiguously: the
	// header is written in place, the checksum runs in a single pass
	// and the IP header lands in the slab's headroom on output.
	pkt := mbuf.Get(tlen)
	seg := pkt.Bytes()
	hdr.Put(seg)
	sum := inet.Sum(pseudoSum(src, dst, tlen, v6), seg[:hlen])
	sum = inet.SumCopy(sum, seg[hlen:], payload)
	ck := inet.Fold(sum)
	seg[16], seg[17] = byte(ck>>8), byte(ck)
	pkt.Hdr().Socket = c.pcb.Socket
	c.t.outbox = append(c.t.outbox, outSeg{
		v6: v6, src: src, dst: dst, pkt: pkt,
		flow: c.pcb.FlowInfo, sock: c.pcb.Socket, conn: c, rc: &c.pcb.Route,
		sc: &c.pcb.Sec,
	})
}

// sendRST aborts the peer's view of the connection. Caller holds t.mu.
func (c *Conn) sendRST() {
	c.t.Stats.RstOut.Inc()
	hdr := &Header{
		SPort: c.pcb.LPort, DPort: c.pcb.FPort,
		Seq: c.sndNxt, Ack: c.rcvNxt, Flags: FlagRST | FlagACK,
	}
	c.queueSegment(hdr, nil)
}

// respondRST answers a segment that has no connection (tcp_respond
// with TH_RST). Caller holds t.mu.
func (t *TCP) respondRST(meta *proto.Meta, th *Header, tlen int) {
	t.Stats.RstOut.Inc()
	hdr := &Header{SPort: th.DPort, DPort: th.SPort}
	if th.Flags&FlagACK != 0 {
		hdr.Seq = th.Ack
		hdr.Flags = FlagRST
	} else {
		ack := th.Seq + uint32(tlen)
		if th.Flags&FlagSYN != 0 {
			ack++
		}
		if th.Flags&FlagFIN != 0 {
			ack++
		}
		hdr.Flags = FlagRST | FlagACK
		hdr.Ack = ack
	}
	src := meta.DstIs6() // swap: we answer from the packet's destination
	dst := meta.SrcIs6()
	v6 := meta.Family == inet.AFInet6
	t.outbox = append(t.outbox, outSeg{v6: v6, src: src, dst: dst, pkt: ctlSegment(hdr, src, dst, v6)})
}

// ctlSegment builds a segment that is its header alone (a RST, a
// TIME_WAIT ACK, a SYN-ACK cookie) in a pooled buffer, checksummed for
// the given endpoints (v4-mapped unless v6).
func ctlSegment(hdr *Header, src, dst inet.IP6, v6 bool) *mbuf.Mbuf {
	pkt := mbuf.Get(hdr.Len())
	seg := pkt.Bytes()
	hdr.Put(seg)
	ck := inet.Fold(inet.Sum(pseudoSum(src, dst, len(seg), v6), seg))
	seg[16], seg[17] = byte(ck>>8), byte(ck)
	return pkt
}

// pseudoSum returns the unfolded pseudo-header sum of a TCP segment of
// tlen bytes between src and dst, over IPv6 or (for v4-mapped
// endpoints) IPv4: the §5.3 split between struct ipv6ovly and struct
// ipovly.
func pseudoSum(src, dst inet.IP6, tlen int, v6 bool) uint32 {
	if v6 {
		return inet.PseudoHeader6(src, dst, uint32(tlen), proto.TCP)
	}
	s4, _ := src.MappedV4()
	d4, _ := dst.MappedV4()
	return inet.PseudoHeader4(s4, d4, uint16(tlen), proto.TCP)
}

//
// Timers.
//

// FastTimo runs every 200ms: flush delayed ACKs.
func (t *TCP) FastTimo() {
	t.mu.Lock()
	for c := range t.conns {
		if c.delack {
			c.delack = false
			c.needAck = true
			t.Stats.DelAcks.Inc()
			c.output()
		}
	}
	t.mu.Unlock()
	t.flush()
}

// SlowTimo runs every 500ms: retransmission, persist, 2MSL and
// connection-establishment timers.
func (t *TCP) SlowTimo() {
	t.mu.Lock()
	for c := range t.conns {
		c.ticks++
		if c.tConn > 0 {
			if c.tConn--; c.tConn == 0 {
				c.drop(ErrTimeout)
				continue
			}
		}
		if c.tRexmt > 0 {
			if c.tRexmt--; c.tRexmt == 0 {
				c.timeoutRexmt()
				continue
			}
		}
		if c.tPersist > 0 {
			if c.tPersist--; c.tPersist == 0 {
				c.persistProbe()
			}
		}
	}
	// The 2MSL wheel and the SYN-cookie clock ride the same cadence.
	t.twTick()
	t.cookieTick++
	t.mu.Unlock()
	t.flush()
}

// timeoutRexmt handles retransmission timer expiry. Caller holds t.mu.
func (c *Conn) timeoutRexmt() {
	c.rexmtShift++
	if c.rexmtShift > rexmtMax {
		c.drop(ErrTimeout)
		return
	}
	// Exponential backoff, clamped.
	rto := c.rto << c.rexmtShift
	if rto > rtoMax {
		rto = rtoMax
	}
	c.tRexmt = rto
	// Karn: discard the in-flight RTT measurement.
	c.rttTicks = -1
	// Congestion response: halve the window, restart slow start.
	half := c.sndWnd
	if c.cwnd < half {
		half = c.cwnd
	}
	half /= 2
	if half < 2*c.mss {
		half = 2 * c.mss
	}
	c.ssthresh = half
	c.cwnd = c.mss
	c.dupAcks = 0
	c.sndNxt = c.sndUna
	c.output()
}

// persistProbe forces one byte into a zero window. Caller holds t.mu.
func (c *Conn) persistProbe() {
	c.t.Stats.PersistProbe.Inc()
	off := int(c.sndNxt - c.sndUna)
	if off < len(c.sndBuf) {
		hdr := &Header{
			SPort: c.pcb.LPort, DPort: c.pcb.FPort,
			Seq: c.sndNxt, Ack: c.rcvNxt,
			Flags: FlagACK | FlagPSH, Wnd: uint16(c.rcvSpace()),
		}
		c.queueSegment(hdr, c.sndBuf[off:off+1])
		if seqGEQ(c.sndNxt, c.sndMax) {
			c.sndMax = c.sndNxt + 1
		}
	}
	// Re-arm with backoff.
	c.rexmtShift++
	rto := c.rto << c.rexmtShift
	if rto > rtoMax {
		rto = rtoMax
	}
	c.tPersist = rto
	if c.rexmtShift > rexmtMax {
		c.drop(ErrTimeout)
	}
}

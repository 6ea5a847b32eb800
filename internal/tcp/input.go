package tcp

import (
	"fmt"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
	"bsd6/internal/stat"
)

// input is tcp_input. "The beginning of the tcp_input() function has a
// small amount of IP-related processing. This was broken into two code
// paths, one for IPv4 and one for IPv6 at the cost of an if check"
// (§5.3) — the checksum verification below is that split, building the
// appropriate overlay (Figures 5/6) for the pseudo-header sum.
func (t *TCP) input(pkt *mbuf.Mbuf, meta proto.Meta) {
	// input is the packet's terminal consumer: segInput copies retained
	// data into rcvBuf/reassQ and respondRST builds a fresh segment, so
	// the pooled slab goes back to its pool on return.
	defer pkt.Free()
	// A multi-segment GRO train stays chained: the header lives in the
	// first chain segment and the payloads are delivered chain-aware by
	// segInputGRO, so a 64KB train is never linearized (an allocation,
	// a zeroing and a full copy per train on the old path).
	g, _ := pkt.Hdr().GRO.(*groMeta)
	chained := g != nil && len(g.segs) > 1 && pkt.Hdr().Flags&mbuf.MSumOK != 0
	var b []byte
	if chained {
		b = pkt.PullUp(HeaderLen)
		if b == nil {
			t.Stats.RcvBadSum.Inc()
			return
		}
	} else {
		b = pkt.Bytes()
	}
	// A GRO-coalesced super-segment arrives with MSumOK: the engine
	// verified each absorbed segment's checksum at merge time, and the
	// coalesced header's checksum field is deliberately stale.
	if pkt.Hdr().Flags&mbuf.MSumOK == 0 {
		if meta.Family == inet.AFInet6 {
			ovl := ipv6Ovly{src: meta.Src6, dst: meta.Dst6, nh: proto.TCP}
			if inet.TransportChecksum6(ovl.src, ovl.dst, ovl.nh, b) != 0 {
				t.Stats.RcvBadSum.Inc()
				t.Drops.DropPkt(stat.RTCPBadSum, b)
				return
			}
		} else {
			ovl := ipOvly{src: meta.Src4, dst: meta.Dst4, proto: proto.TCP, length: uint16(len(b))}
			if inet.TransportChecksum4(ovl.src, ovl.dst, ovl.proto, b[:ovl.length]) != 0 {
				t.Stats.RcvBadSum.Inc()
				t.Drops.DropPkt(stat.RTCPBadSum, b)
				return
			}
		}
	}
	// th points at the TCP header regardless of which IP carried it —
	// the pointer that replaced struct tcpiphdr *ti (§5.3).
	hv, thlen, err := parse(b)
	if err != nil {
		t.Stats.RcvBadSum.Inc()
		t.Drops.DropPkt(stat.RTCPBadHeader, b)
		return
	}
	th := &hv
	// tlen: the local variable that replaced ti->ti_len (§5.3).
	tlen := pkt.Len() - thlen
	data := b[thlen:]

	src, dst := meta.SrcIs6(), meta.DstIs6()

	t.mu.Lock()
	p := t.Table.Lookup(dst, th.DPort, src, th.SPort, meta.Family == inet.AFInet)
	// TIME_WAIT demux: when no established connection claims the tuple
	// (the lookup missed or resolved to a listener), a compressed 2MSL
	// record may still own it. A recycling SYN falls through to the
	// listener; everything else is answered from the record.
	if p == nil || ownerListening(p) {
		if e := t.tw.get(twTuple{laddr: dst, faddr: src, lport: th.DPort, fport: th.SPort}); e != nil {
			if t.twInput(e, th) {
				t.mu.Unlock()
				t.flush()
				return
			}
		}
	}
	if p == nil || p.Owner == nil {
		t.Drops.DropPkt(stat.RTCPNoPCB, b)
		if th.Flags&FlagRST == 0 {
			t.respondRST(&meta, th, tlen)
		}
		t.mu.Unlock()
		t.flush()
		return
	}
	c := p.Owner.(*Conn)
	// The input security policy check (§5.3): an unacceptable segment
	// is silently dropped, so "attempts to open an unauthenticated TCP
	// connection ... will silently fail as if the destination system
	// were not reachable at all."
	policyOK := true
	if t.InputPolicyPort != nil {
		policyOK = t.InputPolicyPort(pkt, dst, p.Socket, th.DPort)
	} else if t.InputPolicy != nil {
		policyOK = t.InputPolicy(pkt, dst, p.Socket)
	}
	if !policyOK {
		t.Stats.PolicyDrops.Inc()
		t.Drops.DropPkt(stat.RTCPPolicyDrop, b)
		t.mu.Unlock()
		return
	}
	nsegs := 1
	if g != nil && len(g.segs) > 1 {
		nsegs = len(g.segs)
	}
	t.Stats.RcvPack.Add(uint64(nsegs))
	t.Stats.RcvByte.Add(uint64(tlen))
	if nsegs > 1 {
		c.segInputGRO(th, pkt, g, &meta, src, dst)
	} else {
		c.segInput(th, data, &meta, src, dst)
	}
	t.mu.Unlock()
	t.flush()
}

// segInputGRO feeds a GRO super-segment to the state machine, one
// original segment at a time, so every per-segment effect (rcvNxt
// advance, the every-other-segment delayed-ACK cadence, ACK and window
// processing, output scheduling) happens exactly as it would for
// unbatched delivery and the wire is byte-identical.  t.mu held.
func (c *Conn) segInputGRO(th *Header, pkt *mbuf.Mbuf, g *groMeta, meta *proto.Meta, src, dst inet.IP6) {
	tlen := pkt.Len() - HeaderLen
	// Strip the TCP header; each remaining chain segment is one merged
	// payload, one-to-one with the recorded boundaries, so delivery
	// walks the chain without ever linearizing the train.  A train that
	// was flattened on its way here (tests feed some) falls back to one
	// contiguous view.
	pkt.Adj(HeaderLen)
	cur := pkt.Cursor()
	aligned := true
	for _, s := range g.segs {
		if len(cur.Next()) != s.len {
			aligned = false
			break
		}
	}
	if aligned && cur.Next() != nil {
		aligned = false
	}
	var flat []byte
	if aligned {
		cur = pkt.Cursor()
	} else {
		flat = pkt.Bytes()
	}
	// next returns the payload of the next merged segment, n bytes.
	next := func(n int) []byte {
		if aligned {
			return cur.Next()
		}
		b := flat[:n]
		flat = flat[n:]
		return b
	}

	// A bulk train takes segInput's in-order data arm for every
	// segment without the rest of the switch: the connection is
	// established and sending nothing it has sent before, the train
	// starts at rcvNxt with the send window unchanged, nothing waits
	// in reassembly, the whole train fits the receive space, and no
	// segment acknowledges new data.  segInput would then trim nothing,
	// count no duplicate ACK, change no window and take that same arm,
	// so only the remaining trains need the replay below.
	inOrder := c.state == StateEstablished &&
		th.Seq == c.rcvNxt && th.Wnd != 0 && int(th.Wnd) == c.sndWnd &&
		c.sndNxt == c.sndMax && len(c.reassQ) == 0 && tlen <= c.rcvSpace()
	for _, s := range g.segs {
		if s.ack != c.sndUna {
			inOrder = false
			break
		}
	}
	if inOrder {
		for _, s := range g.segs {
			c.deliverInOrder(next(s.len))
			c.output()
		}
		return
	}
	// Each segment gets a private header copy — segInput mutates
	// Seq/Flags while trimming.
	seq := th.Seq
	for _, s := range g.segs {
		sh := *th
		sh.Seq = seq
		sh.Ack = s.ack
		c.segInput(&sh, next(s.len), meta, src, dst)
		seq += uint32(s.len)
		if c.state == StateClosed {
			return
		}
	}
}

// segInput runs the state machine for one trimmed segment. t.mu held.
func (c *Conn) segInput(th *Header, data []byte, meta *proto.Meta, src, dst inet.IP6) {
	t := c.t
	switch c.state {
	case StateClosed:
		return
	case StateListen:
		c.listenInput(th, data, meta, src, dst)
		return
	case StateSynSent:
		if c.synSentInput(th) {
			c.synAckText(th, data)
		}
		return
	}

	tlen := len(data)

	// RST processing.
	if th.Flags&FlagRST != 0 {
		if c.state == StateSynRcvd {
			c.drop(ErrRefused)
		} else {
			c.drop(ErrReset)
		}
		return
	}
	// A SYN here is old or duplicate; acknowledge our current state.
	if th.Flags&FlagSYN != 0 && th.Seq == c.irs {
		c.needAck = true
		c.output()
		return
	}

	// Trim leading duplicate bytes.
	if todrop := int32(c.rcvNxt - th.Seq); todrop > 0 {
		if int(todrop) >= tlen {
			t.Stats.RcvDupPack.Inc()
			c.needAck = true
			c.output()
			return
		}
		data = data[todrop:]
		th.Seq += uint32(todrop)
		tlen = len(data)
	}
	// Trim data beyond the advertised window.
	win := c.rcvSpace()
	if over := int32(th.Seq + uint32(tlen) - (c.rcvNxt + uint32(win))); over > 0 {
		if int(over) >= tlen && seqGT(th.Seq, c.rcvNxt) {
			t.Stats.RcvAfterWin.Inc()
			c.needAck = true
			c.output()
			return
		}
		if keep := tlen - int(over); keep >= 0 {
			data = data[:keep]
			tlen = keep
			th.Flags &^= FlagFIN // the FIN is beyond the window
		}
	}

	if th.Flags&FlagACK == 0 {
		return
	}
	ack := th.Ack

	// SYN_RCVD: the handshake's final ACK.
	if c.state == StateSynRcvd {
		if seqLT(c.sndUna, ack) && seqLEQ(ack, c.sndMax) {
			c.state = StateEstablished
			c.synced = true
			t.Stats.ConnEstab.Inc()
			c.tConn = 0
			c.tRexmt = 0
			c.rexmtShift = 0
			c.sndUna = ack
			c.sndWnd = int(th.Wnd)
			c.unlinkSynLocked()
			if c.parent != nil {
				if len(c.parent.acceptQ) < c.parent.backlog {
					c.parent.acceptQ = append(c.parent.acceptQ, c)
					c.parent.wakeupLocked()
				} else {
					c.sendRST()
					c.closeLocked(ErrListenQ)
					return
				}
			}
			c.wakeupLocked()
		} else {
			t.respondRST(meta, th, tlen)
			return
		}
	}

	switch {
	case seqGT(ack, c.sndMax):
		// Ack of the future: resynchronize.
		c.needAck = true
		c.output()
		return
	case seqLEQ(ack, c.sndUna):
		// Duplicate ACK: fast retransmit after three in a row while
		// data is outstanding.
		if tlen == 0 && ack == c.sndUna && c.sndMax != c.sndUna && th.Flags&FlagFIN == 0 {
			c.dupAcks++
			switch {
			case c.dupAcks == 3:
				t.Stats.FastRexmit.Inc()
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
				saved := c.sndNxt
				c.sndNxt = c.sndUna
				c.output()
				if seqGT(saved, c.sndNxt) {
					c.sndNxt = saved
				}
				c.cwnd = c.ssthresh
			case c.dupAcks > 3:
				c.cwnd += c.mss
				c.output()
			}
		}
	default:
		// New data acknowledged.
		if c.ackNew(ack) {
			return
		}
	}

	// Window update.
	c.sndWnd = int(th.Wnd)
	c.textInput(th, data)
}

// synAckText is 4.4BSD's trimthenstep6 for a SYN|ACK that moved the
// connection to ESTABLISHED: the SYN takes one sequence number, text
// beyond the receive window is cut (and a FIN with it), and the rest
// goes through data and FIN processing.  The ACK was processed by
// synSentInput. Caller holds t.mu.
func (c *Conn) synAckText(th *Header, data []byte) {
	th.Seq++
	th.Flags &^= FlagSYN
	if win := c.rcvSpace(); len(data) > win {
		data = data[:win]
		th.Flags &^= FlagFIN
	}
	c.textInput(th, data)
}

// textInput processes a segment's text and FIN once its ACK has been
// processed (tcp_input's step 6), then sends whatever that made pending.
// Caller holds t.mu.
func (c *Conn) textInput(th *Header, data []byte) {
	t := c.t
	tlen := len(data)
	if tlen > 0 {
		switch c.state {
		case StateEstablished, StateFinWait1, StateFinWait2:
			if th.Seq == c.rcvNxt && len(c.reassQ) == 0 {
				c.deliverInOrder(data)
			} else {
				// Out of order: through the version-split reassembly
				// (§5.3), then ACK immediately so the sender sees
				// duplicate ACKs.
				t.Stats.RcvOutOfOrder.Inc()
				fin := th.Flags&FlagFIN != 0
				if c.pf == inet.AFInet6 && !c.pcb.FAddr.IsV4Mapped() {
					c.tcpv6Reass(th.Seq, data, fin)
				} else {
					c.tcpReass(th.Seq, data, fin)
				}
				th.Flags &^= FlagFIN // owned by the queue now
				c.needAck = true
			}
		default:
			// No data accepted after our FIN has been processed.
			c.needAck = true
		}
	}

	// FIN.
	if th.Flags&FlagFIN != 0 && th.Seq+uint32(tlen) == c.rcvNxt {
		c.processFIN()
	}

	if c.needAck {
		c.output()
	} else if tlen > 0 || th.Flags&FlagFIN != 0 {
		// Give output a chance to send queued data opened by the
		// window update.
		c.output()
	} else if len(c.sndBuf) > int(c.sndMax-c.sndUna) {
		c.output()
	}
}

// deliverInOrder appends the next in-order data to the receive buffer
// and schedules a delayed ACK; every other full segment forces one out
// (RFC 1122 §4.2.3.2). Caller holds t.mu.
func (c *Conn) deliverInOrder(data []byte) {
	c.rcvNxt += uint32(len(data))
	c.rcvBuf = sbappend(&c.rcvArr, c.rcvBuf, data, c.RcvBufMax)
	if c.delack {
		c.needAck = true
	} else {
		c.delack = true
	}
	c.wakeupLocked()
}

// ackNew processes an ACK acknowledging new data (sndUna < ack <=
// sndMax): RTT sampling, congestion-window growth, send-buffer trim,
// retransmit-timer management and reachability confirmation — the
// "new data acknowledged" arm of segInput's ACK switch. Returns true
// if the connection was closed (LAST_ACK's FIN acknowledged). Caller
// holds t.mu.
func (c *Conn) ackNew(ack uint32) bool {
	t := c.t
	acked := int(ack - c.sndUna)
	c.dupAcks = 0
	if c.rttTicks >= 0 && seqGEQ(ack, c.rttSeq) {
		c.updateRTT(c.ticks - c.rttTicks)
		c.rttTicks = -1
	}
	// Congestion window growth: slow start then additive.
	if c.cwnd < c.ssthresh {
		c.cwnd += c.mss
	} else {
		c.cwnd += c.mss * c.mss / c.cwnd
	}
	if c.cwnd > 1<<20 {
		c.cwnd = 1 << 20
	}
	bufAcked := acked
	finAcked := false
	if c.finQueued && seqGT(ack, c.finSeq) {
		bufAcked--
		finAcked = true
	}
	if bufAcked > len(c.sndBuf) {
		bufAcked = len(c.sndBuf)
	}
	if bufAcked > 0 {
		c.sndBuf = c.sndBuf[bufAcked:]
	}
	c.sndUna = ack
	if seqLT(c.sndNxt, ack) {
		c.sndNxt = ack
	}
	if ack == c.sndMax {
		c.tRexmt = 0
		c.rexmtShift = 0
		c.tPersist = 0
	} else if c.tPersist == 0 {
		c.tRexmt = c.rto
	}
	// Forward progress confirms neighbor reachability without
	// extra ND traffic (§4.3).  Once per slow tick is plenty — the
	// reachable window is tens of seconds, and confirming on every
	// ACK of a bulk stream pays a route lookup per packet.
	if t.Confirm != nil && !c.pcb.FAddr.IsV4Mapped() && c.confirmTick != c.ticks+1 {
		c.confirmTick = c.ticks + 1
		t.Confirm(c.pcb.FAddr)
	}
	c.wakeupLocked() // send buffer space freed

	if finAcked {
		switch c.state {
		case StateFinWait1:
			c.state = StateFinWait2
		case StateClosing:
			c.enterTimeWait()
		case StateLastAck:
			c.closeLocked(nil)
			return true
		}
	}
	return false
}

// ownerListening reports whether the PCB belongs to a listening
// connection — the demux class a TIME_WAIT record may shadow.
func ownerListening(p *pcb.PCB) bool {
	c, ok := p.Owner.(*Conn)
	return ok && c.listening
}

// listenInput handles a segment arriving at a listening socket.
func (c *Conn) listenInput(th *Header, data []byte, meta *proto.Meta, src, dst inet.IP6) {
	t := c.t
	if th.Flags&FlagRST != 0 {
		return
	}
	if th.Flags&FlagACK != 0 {
		// At a listener that sent cookies lately this may be the third
		// leg of a stateless handshake, and one that fails validation is
		// a typed drop.  Any other ACK is answered with RST alone, as
		// RFC 793 answers any ACK in LISTEN.
		if th.Flags&FlagSYN == 0 && c.cookiesRecent() {
			if c.cookieAccept(th, data, meta, src, dst) {
				return
			}
			t.Stats.SynCookiesFailed.Inc()
			t.Drops.DropNote(stat.RTCPSynCookieFailed,
				fmt.Sprintf("%s.%d > %s.%d", src, th.SPort, dst, th.DPort))
		}
		t.respondRST(meta, th, 0)
		return
	}
	if th.Flags&FlagSYN == 0 {
		return
	}
	// A full SYN backlog goes stateless rather than growing half-open
	// state without bound under a SYN flood.
	if len(c.synQ) >= DefaultSynBacklog {
		c.sendSynCookie(th, meta, src, dst)
		return
	}
	// Create the child connection ("sonewconn").
	child := &Conn{
		t: t, pf: meta.Family, state: StateSynRcvd,
		SndBufMax: c.SndBufMax, RcvBufMax: c.RcvBufMax,
		rttTicks: -1, rto: rtoMin, mss: defaultMSS,
		parent: c, Wakeup: c.Wakeup,
	}
	child.pcb = t.Table.Attach(c.pcb.Family, c.pcb.Socket)
	child.pcb.Owner = child
	t.Table.SetTuple(child.pcb, dst, c.pcb.LPort, src, th.SPort)
	if src.IsV4Mapped() {
		child.pcb.Flags &^= pcb.FlagIPv6
	} else {
		child.pcb.Flags |= pcb.FlagIPv6
	}
	t.conns[child] = struct{}{}

	child.mss = t.pathMSS(child.pcb)
	if th.MSS > 0 && th.MSS < child.mss {
		child.mss = th.MSS
	}
	child.irs = th.Seq
	child.rcvNxt = th.Seq + 1
	child.iss = t.nextISS()
	child.sndUna, child.sndNxt, child.sndMax = child.iss, child.iss, child.iss
	child.cwnd = initialCwnd(child.mss)
	child.ssthresh = 1 << 20
	child.sndWnd = int(th.Wnd)
	child.tConn = connTicks
	c.synQ = append(c.synQ, child)
	t.Stats.ConnAccepts.Inc()
	child.output()
}

// synSentInput handles the SYN|ACK (or simultaneous SYN) of an active
// open.  It reports whether the connection became ESTABLISHED, so the
// segment's text and FIN are processed next.
func (c *Conn) synSentInput(th *Header) bool {
	t := c.t
	if th.Flags&FlagACK != 0 && (seqLEQ(th.Ack, c.iss) || seqGT(th.Ack, c.sndMax)) {
		return false // unacceptable ACK; a RST would answer it in BSD
	}
	if th.Flags&FlagRST != 0 {
		if th.Flags&FlagACK != 0 {
			c.drop(ErrRefused)
		}
		return false
	}
	if th.Flags&FlagSYN == 0 {
		return false
	}
	c.irs = th.Seq
	c.rcvNxt = th.Seq + 1
	if th.MSS > 0 && th.MSS < c.mss {
		c.mss = th.MSS
	}
	c.sndWnd = int(th.Wnd)
	c.cwnd = initialCwnd(c.mss)
	if th.Flags&FlagACK != 0 {
		c.sndUna = th.Ack
		c.state = StateEstablished
		c.synced = true
		t.Stats.ConnEstab.Inc()
		c.tConn = 0
		c.tRexmt = 0
		c.rexmtShift = 0
		c.needAck = true
		c.wakeupLocked()
		return true
	}
	// Simultaneous open.
	c.state = StateSynRcvd
	c.sndNxt = c.iss
	c.output()
	return false
}

// processFIN advances over the peer's FIN and transitions state.
func (c *Conn) processFIN() {
	if c.rcvClosed {
		c.needAck = true
		return
	}
	c.rcvNxt++
	c.rcvClosed = true
	c.needAck = true
	switch c.state {
	case StateSynRcvd, StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acknowledged: both closing at once.
		c.state = StateClosing
	case StateFinWait2:
		c.enterTimeWait()
	}
	c.wakeupLocked() // EOF is readable
}

// updateRTT is the Jacobson/Karels estimator over slow-timer ticks.
func (c *Conn) updateRTT(m int) {
	if m < 1 {
		m = 1
	}
	if c.srtt != 0 {
		delta := m - c.srtt
		c.srtt += delta / 8
		if c.srtt <= 0 {
			c.srtt = 1
		}
		if delta < 0 {
			delta = -delta
		}
		c.rttvar += (delta - c.rttvar) / 4
		if c.rttvar <= 0 {
			c.rttvar = 1
		}
	} else {
		c.srtt = m
		c.rttvar = m / 2
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < rtoMin {
		c.rto = rtoMin
	}
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
}

//
// Reassembly. "The tcp_reass() function was not amenable to supporting
// both versions of IP at the same time, so our implementation
// increases code size by adding a new tcpv6_reass() function that uses
// struct tcpipv6hdr in lieu of the struct tcpiphdr used by the
// original tcp_reass()" (§5.3).  Both share reassCore; the wrappers
// exist (and are counted separately) to mirror that structure.
//

// tcpReass queues an out-of-order IPv4 segment.
func (c *Conn) tcpReass(seq uint32, data []byte, fin bool) {
	c.t.Stats.Reass4.Inc()
	c.reassCore(seq, data, fin)
}

// tcpv6Reass queues an out-of-order IPv6 segment.
func (c *Conn) tcpv6Reass(seq uint32, data []byte, fin bool) {
	c.t.Stats.Reass6.Inc()
	c.reassCore(seq, data, fin)
}

func (c *Conn) reassCore(seq uint32, data []byte, fin bool) {
	// Drop what is already received.
	if d := int32(c.rcvNxt - seq); d > 0 {
		if int(d) >= len(data) && !fin {
			return
		}
		if int(d) >= len(data) {
			data = nil
			seq = c.rcvNxt
		} else {
			data = data[d:]
			seq += uint32(d)
		}
	}
	// Insert in order; identical-seq duplicates keep the longer data.
	ins := rseg{seq: seq, data: append([]byte(nil), data...), fin: fin}
	pos := len(c.reassQ)
	for i, s := range c.reassQ {
		if seqLT(seq, s.seq) {
			pos = i
			break
		}
		if s.seq == seq {
			if len(ins.data) > len(s.data) || ins.fin {
				c.reassQ[i] = ins
			}
			c.drainReass()
			return
		}
	}
	c.reassQ = append(c.reassQ, rseg{})
	copy(c.reassQ[pos+1:], c.reassQ[pos:])
	c.reassQ[pos] = ins
	c.drainReass()
}

// drainReass delivers any now-in-order queued segments.
func (c *Conn) drainReass() {
	progressed := false
	for len(c.reassQ) > 0 {
		s := c.reassQ[0]
		if seqGT(s.seq, c.rcvNxt) {
			break
		}
		c.reassQ = c.reassQ[1:]
		if d := int32(c.rcvNxt - s.seq); d > 0 {
			if int(d) >= len(s.data) {
				if s.fin && s.seq+uint32(len(s.data)) == c.rcvNxt {
					c.processFIN()
				}
				continue
			}
			s.data = s.data[d:]
		}
		c.rcvNxt += uint32(len(s.data))
		c.rcvBuf = sbappend(&c.rcvArr, c.rcvBuf, s.data, c.RcvBufMax)
		progressed = true
		if s.fin {
			c.processFIN()
		}
	}
	if progressed {
		c.wakeupLocked()
	}
}

// ctlInput delivers ICMP-derived errors: PMTU shrink triggers an MSS
// reduction and retransmission; hard errors kill nascent connections.
func (t *TCP) ctlInput(kind proto.CtlType, meta *proto.Meta, contents []byte, mtu int) {
	if t.AllowError != nil && !t.AllowError() {
		return // §5.1 security check in the notify path
	}
	if len(contents) < 4 {
		return
	}
	sport := uint16(contents[0])<<8 | uint16(contents[1])
	dport := uint16(contents[2])<<8 | uint16(contents[3])
	faddr := meta.DstIs6()
	t.mu.Lock()
	t.Table.Notify(faddr, dport, func(p *pcb.PCB) {
		if p.LPort != sport {
			return
		}
		c, _ := p.Owner.(*Conn)
		if c == nil {
			return
		}
		switch kind {
		case proto.CtlMsgSize:
			hdrs := HeaderLen + 40
			if p.FAddr.IsV4Mapped() {
				hdrs = HeaderLen + 20
			}
			if mtu > 0 && mtu-hdrs < c.mss {
				c.mss = mtu - hdrs
				if c.mss < 32 {
					c.mss = 32
				}
				// Retransmit at the new size.
				c.sndNxt = c.sndUna
				c.output()
			}
		case proto.CtlUnreach, proto.CtlPortUnreach, proto.CtlTimeExceed:
			// Hard error only for nascent connections; established
			// ones ride it out (RFC 1122).
			if c.state == StateSynSent || c.state == StateSynRcvd {
				c.drop(ErrHostDown)
			}
		}
	})
	t.mu.Unlock()
	t.flush()
}

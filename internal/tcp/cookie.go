package tcp

import (
	"sync/atomic"

	"bsd6/internal/inet"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
)

// SYN cookies: once a listener's backlog is full, the SYN-ACK's initial
// sequence number becomes the state. It encodes a keyed hash of the
// 4-tuple, a coarse time counter (so old cookies expire), and the
// peer's MSS class; the completing ACK hands all of it back, and the
// connection is rebuilt from that segment alone. A flood of SYNs then
// costs the listener nothing but replies.
//
//	isn = H1(tuple) + client_isn + count<<24 + (H2(tuple,count) + mss_class)&0xffffff

// cookieMSS is the MSS class table; the class index rides in the low
// cookie bits and is decoded on the completing ACK.
var cookieMSS = [4]int{216, 536, 1220, 1440}

// cookieTickShift converts the slow-tick counter into cookie time: one
// unit is 64 slow ticks (32s); a cookie is valid in the unit it was
// minted plus the next, bounding replay of sniffed cookies.
const cookieTickShift = 6

// cookieSalt diversifies per-instance secrets while keeping them
// deterministic within a process run (the virtual-clock tests replay
// handshakes and must see stable cookies).
var cookieSalt uint32

func newCookieSeed() [2]uint32 {
	s := atomic.AddUint32(&cookieSalt, 0x9e3779b9)
	return [2]uint32{0x6996c53a ^ s, 0x7b64e48d ^ (s * 0x85ebca6b)}
}

// cookieUnit is the coarse cookie time, before cookieCount folds it
// to the eight bits a cookie embeds.
func (t *TCP) cookieUnit() uint32 { return t.cookieTick >> cookieTickShift }

// cookieCount is the coarse time the cookie embeds.
func (t *TCP) cookieCount() uint32 { return t.cookieUnit() & 0xff }

// cookieHash is FNV-1a over (secret, tuple, count), folded into the
// cookie arithmetic.
func cookieHash(secret uint32, k twTuple, count uint32) uint32 {
	const prime = 16777619
	h := uint32(2166136261)
	mix := func(b byte) {
		h ^= uint32(b)
		h *= prime
	}
	for i := 0; i < 4; i++ {
		mix(byte(secret >> (8 * i)))
	}
	for _, b := range k.laddr {
		mix(b)
	}
	for _, b := range k.faddr {
		mix(b)
	}
	mix(byte(k.lport >> 8))
	mix(byte(k.lport))
	mix(byte(k.fport >> 8))
	mix(byte(k.fport))
	for i := 0; i < 4; i++ {
		mix(byte(count >> (8 * i)))
	}
	return h
}

// cookieISN mints the cookie for a SYN from (tuple, client ISN) at the
// current cookie time.
func (t *TCP) cookieISN(k twTuple, clientISN uint32, mssIdx int) uint32 {
	count := t.cookieCount()
	h1 := cookieHash(t.cookieSeed[0], k, 0)
	h2 := cookieHash(t.cookieSeed[1], k, count)
	return h1 + clientISN + count<<24 + (h2+uint32(mssIdx))&0xffffff
}

// cookieCheck validates a candidate cookie against the tuple and
// client ISN recovered from the completing ACK, returning the MSS
// class. A forged cookie fails the keyed-hash algebra; a stale one
// fails the time window.
func (t *TCP) cookieCheck(k twTuple, clientISN, cookie uint32) (int, bool) {
	sub := cookie - cookieHash(t.cookieSeed[0], k, 0) - clientISN
	count := sub >> 24
	if d := (t.cookieCount() - count) & 0xff; d > 1 {
		return 0, false
	}
	idx := (sub - cookieHash(t.cookieSeed[1], k, count)) & 0xffffff
	if idx >= uint32(len(cookieMSS)) {
		return 0, false
	}
	return int(idx), true
}

// sendSynCookie answers a SYN arriving at a full backlog with a
// stateless SYN-ACK: nothing is allocated, nothing is remembered.
// Caller holds t.mu.
func (c *Conn) sendSynCookie(th *Header, meta *proto.Meta, src, dst inet.IP6) {
	t := c.t
	peer := th.MSS
	if peer == 0 {
		peer = cookieMSS[1]
	}
	idx := 0
	for i, m := range cookieMSS {
		if m <= peer {
			idx = i
		}
	}
	k := twTuple{laddr: dst, faddr: src, lport: c.pcb.LPort, fport: th.SPort}
	t.Stats.SynCookiesSent.Inc()
	c.cookieSent, c.cookieUnit = true, t.cookieUnit()
	hdr := &Header{
		SPort: c.pcb.LPort, DPort: th.SPort,
		Seq: t.cookieISN(k, th.Seq, idx), Ack: th.Seq + 1,
		Flags: FlagSYN | FlagACK, Wnd: uint16(c.rcvSpace()), MSS: cookieMSS[idx],
	}
	v6 := meta.Family == inet.AFInet6
	t.outbox = append(t.outbox, outSeg{v6: v6, src: dst, dst: src, pkt: ctlSegment(hdr, dst, src, v6), flow: c.pcb.FlowInfo, sock: c.pcb.Socket})
}

// cookiesRecent reports whether the listener sent a SYN cookie that
// cookieCheck could still accept: in this cookie time unit or the one
// before.  Only then is an ACK at the listener checked as a cookie, as
// FreeBSD's sch_last_overflow and Linux's tcp_synq_no_recent_overflow
// gate it; otherwise a host that guesses the secrets could open a
// connection on a listener that never overflowed.  Caller holds t.mu.
func (c *Conn) cookiesRecent() bool {
	return c.cookieSent && c.t.cookieUnit()-c.cookieUnit <= 1
}

// cookieAccept tries to complete a stateless handshake from an ACK at
// the listener. On success the child is born directly ESTABLISHED,
// with every sequence variable recovered from the segment and the MSS
// class from the cookie. Returns false when the cookie does not
// validate. Caller holds t.mu.
func (c *Conn) cookieAccept(th *Header, data []byte, meta *proto.Meta, src, dst inet.IP6) bool {
	t := c.t
	k := twTuple{laddr: dst, faddr: src, lport: c.pcb.LPort, fport: th.SPort}
	mssIdx, ok := t.cookieCheck(k, th.Seq-1, th.Ack-1)
	if !ok {
		return false
	}
	child := &Conn{
		t: t, pf: meta.Family, state: StateEstablished, synced: true,
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
	if m := cookieMSS[mssIdx]; m < child.mss {
		child.mss = m
	}
	child.iss = th.Ack - 1
	child.sndUna, child.sndNxt, child.sndMax = th.Ack, th.Ack, th.Ack
	child.irs = th.Seq - 1
	child.rcvNxt = th.Seq
	child.rcvAdv = child.rcvNxt
	child.cwnd = initialCwnd(child.mss)
	child.ssthresh = 1 << 20
	child.sndWnd = int(th.Wnd)
	t.Stats.ConnAccepts.Inc()
	t.Stats.ConnEstab.Inc()
	t.Stats.SynCookiesValidated.Inc()
	if len(c.acceptQ) >= c.backlog {
		child.sendRST()
		child.closeLocked(ErrListenQ)
		return true
	}
	c.acceptQ = append(c.acceptQ, child)
	c.wakeupLocked()
	child.wakeupLocked()
	// The completing ACK may carry data or a FIN; run the rest of the
	// segment through the established machinery.
	if len(data) > 0 || th.Flags&FlagFIN != 0 {
		child.segInput(th, data, meta, src, dst)
	}
	return true
}

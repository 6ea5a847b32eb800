package tcp

import (
	"fmt"
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
)

// Unit tests of segInput on an established connection, one case per
// class of segment the Van Jacobson header prediction used to
// short-circuit or refuse (pure ACKs, in-order data, window changes,
// retransmission, congestion limit, URG, out-of-order, a non-empty
// reassembly queue). The test names keep those cases' historical
// names; every segment now takes the one general path.

// newSegConn builds an established connection with a detached PCB so
// segInput and output run without a full stack; queued segments pile
// up in t.outbox for inspection (flush is never called).
func newSegConn() *Conn {
	t := &TCP{conns: make(map[*Conn]struct{})}
	c := &Conn{
		t: t, pf: inet.AFInet6, state: StateEstablished,
		SndBufMax: 32768, RcvBufMax: 32768,
		rttTicks: -1, rto: rtoMin, mss: 512,
		rcvNxt: 1000,
		sndUna: 5000, sndNxt: 5000, sndMax: 5000,
		sndWnd: 8192, cwnd: 1 << 20, ssthresh: 1 << 20,
	}
	c.pcb = &pcb.PCB{Family: inet.AFInet6, LPort: 10, FPort: 20,
		LAddr: inet.IP6{15: 1}, FAddr: inet.IP6{15: 2}}
	t.conns[c] = struct{}{}
	return c
}

var segMeta = &proto.Meta{Family: inet.AFInet6}

// loadSndBuf puts n un-acknowledged in-flight bytes on the connection.
func (c *Conn) loadSndBuf(n int) {
	c.sndBuf = make([]byte, n)
	c.sndNxt = c.sndUna + uint32(n)
	c.sndMax = c.sndNxt
}

// queuedAck returns the acknowledgment field of queued segment i.
func (c *Conn) queuedAck(i int) uint32 {
	seg := c.t.outbox[i].pkt.Bytes()
	return uint32(seg[8])<<24 | uint32(seg[9])<<16 | uint32(seg[10])<<8 | uint32(seg[11])
}

// TestPredAckFastPath: a pure ACK of all in-flight data trims the send
// buffer and stops the retransmit timer.
func TestPredAckFastPath(t *testing.T) {
	c := newSegConn()
	c.loadSndBuf(100)
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}
	c.segInput(th, nil, segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.sndUna != 5100 || len(c.sndBuf) != 0 {
		t.Fatalf("ack not applied: sndUna=%d buf=%d", c.sndUna, len(c.sndBuf))
	}
	if c.tRexmt != 0 || c.rexmtShift != 0 {
		t.Fatal("retransmit timer not cleared by full ack")
	}
	if len(c.t.outbox) != 0 {
		t.Fatalf("a pure ACK with nothing to send queued %d segments", len(c.t.outbox))
	}
}

// TestSynAckCarriesTextAndFIN: a SYN|ACK|FIN carrying two bytes
// completes the active open and then, as 4.4BSD's tcp_input goes on to
// step 6, delivers the text and the FIN. One ACK answers all of it.
func TestSynAckCarriesTextAndFIN(t *testing.T) {
	c := newSegConn()
	const iss, irs = 5000, 9000
	c.state = StateSynSent
	c.iss, c.sndUna, c.sndNxt, c.sndMax = iss, iss, iss+1, iss+1
	th := &Header{Flags: FlagSYN | FlagACK | FlagFIN, Seq: irs, Ack: iss + 1, Wnd: 8192, MSS: 512}
	c.segInput(th, []byte("hi"), segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.state != StateCloseWait {
		t.Fatalf("state %v, want CLOSE_WAIT", c.state)
	}
	if c.rcvNxt != irs+4 {
		t.Fatalf("rcvNxt = irs+%d, want irs+4 (SYN, 2 bytes, FIN)", c.rcvNxt-irs)
	}
	if string(c.rcvBuf) != "hi" || !c.rcvClosed {
		t.Fatalf("receive buffer %q, rcvClosed %v; want \"hi\" and the FIN", c.rcvBuf, c.rcvClosed)
	}
	if len(c.t.outbox) != 1 || c.queuedAck(0) != irs+4 {
		t.Fatalf("%d segments queued, want one ACK of irs+4", len(c.t.outbox))
	}
}

// TestPredAckBypassWindowChange: a window update riding the ACK
// applies both the ack and the new window.
func TestPredAckBypassWindowChange(t *testing.T) {
	c := newSegConn()
	c.loadSndBuf(100)
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 4096}
	c.segInput(th, nil, segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.sndUna != 5100 || c.sndWnd != 4096 {
		t.Fatalf("sndUna=%d sndWnd=%d, want 5100 4096", c.sndUna, c.sndWnd)
	}
}

// TestPredAckBypassRetransmitPending: an ACK beyond a rewound sndNxt
// (retransmission in progress) is applied and pulls sndNxt up to it.
func TestPredAckBypassRetransmitPending(t *testing.T) {
	c := newSegConn()
	c.loadSndBuf(100)
	c.sndNxt = 5050 // retransmission rewound sndNxt below sndMax
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}
	c.segInput(th, nil, segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.sndUna != 5100 || c.sndNxt != 5100 {
		t.Fatalf("sndUna=%d sndNxt=%d, want 5100 5100", c.sndUna, c.sndNxt)
	}
}

// TestPredAckBypassCongestionLimited: an ACK arriving while the
// congestion window is the binding limit is applied and opens the
// window by one MSS (slow start).
func TestPredAckBypassCongestionLimited(t *testing.T) {
	c := newSegConn()
	c.loadSndBuf(100)
	c.cwnd = 1024 // below sndWnd and ssthresh: cwnd binds, slow start
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}
	c.segInput(th, nil, segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.sndUna != 5100 {
		t.Fatal("ack lost")
	}
	if c.cwnd != 1024+512 {
		t.Fatalf("cwnd = %d, want %d after one slow-start ACK", c.cwnd, 1024+512)
	}
}

// TestPredDatFastPathAndAckEveryOther: in-order data is delivered; the
// first segment only schedules a delayed ACK, the second forces one
// out (RFC 1122 §4.2.3.2 — at least every other full segment).
func TestPredDatFastPathAndAckEveryOther(t *testing.T) {
	c := newSegConn()
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5000, Wnd: 8192}
	c.segInput(th, []byte("abc"), segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if string(c.rcvBuf) != "abc" || c.rcvNxt != 1003 {
		t.Fatalf("data not delivered: buf=%q nxt=%d", c.rcvBuf, c.rcvNxt)
	}
	if !c.delack || len(c.t.outbox) != 0 {
		t.Fatalf("first segment must only schedule a delayed ACK (delack=%v outbox=%d)",
			c.delack, len(c.t.outbox))
	}
	th2 := &Header{Flags: FlagACK, Seq: 1003, Ack: 5000, Wnd: 8192}
	c.segInput(th2, []byte("defg"), segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if len(c.t.outbox) != 1 {
		t.Fatalf("second segment must force the ACK out, outbox=%d", len(c.t.outbox))
	}
	if ack := c.queuedAck(0); ack != 1007 {
		t.Fatalf("forced ACK acknowledges %d, want 1007", ack)
	}
}

// TestPredDatBypassOutOfOrder: a segment beyond rcvNxt goes to the
// reassembly queue and is answered at once with a duplicate ACK.
func TestPredDatBypassOutOfOrder(t *testing.T) {
	c := newSegConn()
	th := &Header{Flags: FlagACK, Seq: 1003, Ack: 5000, Wnd: 8192}
	c.segInput(th, []byte("def"), segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.t.Stats.RcvOutOfOrder.Get() != 1 || len(c.reassQ) != 1 {
		t.Fatal("segment not routed through reassembly")
	}
	if len(c.t.outbox) != 1 || c.queuedAck(0) != 1000 {
		t.Fatal("out-of-order segment not answered with an immediate duplicate ACK")
	}
}

// TestPredDatBypassReassQueue: an in-order segment that fills the hole
// in front of a queued one drains the reassembly queue.
func TestPredDatBypassReassQueue(t *testing.T) {
	c := newSegConn()
	c.reassQ = []rseg{{seq: 1003, data: []byte("def")}}
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5000, Wnd: 8192}
	c.segInput(th, []byte("abc"), segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if string(c.rcvBuf) != "abcdef" || c.rcvNxt != 1006 || len(c.reassQ) != 0 {
		t.Fatalf("queue not drained: buf=%q nxt=%d queued=%d", c.rcvBuf, c.rcvNxt, len(c.reassQ))
	}
}

// TestPredBypassURG: an URG segment's data is delivered in order.
func TestPredBypassURG(t *testing.T) {
	c := newSegConn()
	th := &Header{Flags: FlagACK | FlagURG, Seq: 1000, Ack: 5000, Wnd: 8192, Urp: 1}
	c.segInput(th, []byte("abc"), segMeta, c.pcb.FAddr, c.pcb.LAddr)
	if string(c.rcvBuf) != "abc" {
		t.Fatal("URG segment data lost")
	}
}

// TestSegmentSequenceGolden drives a fixed mixed sequence — a pure
// ACK, two in-order data segments, a gap, a hole-filler carrying a
// window change — and pins the resulting state and every queued
// segment byte for byte. The expected values were recorded with Van
// Jacobson header prediction enabled, which took the first three
// segments; the one general path must reproduce them exactly.
func TestSegmentSequenceGolden(t *testing.T) {
	c := newSegConn()
	c.loadSndBuf(100)
	segs := []struct {
		th   Header
		data string
	}{
		{Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}, ""},
		{Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}, "abc"},
		{Header{Flags: FlagACK, Seq: 1003, Ack: 5100, Wnd: 8192}, "defg"},
		{Header{Flags: FlagACK, Seq: 1010, Ack: 5100, Wnd: 8192}, "late"}, // gap
		{Header{Flags: FlagACK, Seq: 1007, Ack: 5100, Wnd: 4096}, "hij"},  // fills + window change
	}
	for _, s := range segs {
		th := s.th
		c.segInput(&th, []byte(s.data), segMeta, c.pcb.FAddr, c.pcb.LAddr)
	}
	if c.sndUna != 5100 || c.rcvNxt != 1014 || c.sndWnd != 4096 || c.cwnd != 1<<20 ||
		string(c.rcvBuf) != "abcdefghijlate" || len(c.sndBuf) != 0 || c.delack {
		t.Fatalf("state: una %d nxt %d wnd %d cwnd %d buf %q sndBuf %d delack %v",
			c.sndUna, c.rcvNxt, c.sndWnd, c.cwnd, c.rcvBuf, len(c.sndBuf), c.delack)
	}
	want := []string{
		"000a0014000013ec000003ef50107ff917e00000", // every-other ACK of "abc","defg"
		"000a0014000013ec000003ef50107ff917e00000", // duplicate ACK for the gap
		"000a0014000013ec000003f650107ff217e00000", // ACK once the hole fills
	}
	if len(c.t.outbox) != len(want) {
		t.Fatalf("queued %d segments, want %d", len(c.t.outbox), len(want))
	}
	for i, w := range want {
		if got := fmt.Sprintf("%x", c.t.outbox[i].pkt.Bytes()); got != w {
			t.Errorf("segment %d: %s, want %s", i, got, w)
		}
	}
}

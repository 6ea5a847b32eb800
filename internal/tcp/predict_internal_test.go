package tcp

import (
	"bytes"
	"testing"
	"testing/quick"

	"bsd6/internal/inet"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
)

// newPredConn builds an established connection with a detached PCB so
// segInput and output run without a full stack; queued segments pile
// up in t.outbox for inspection (flush is never called).
func newPredConn() *Conn {
	t := &TCP{conns: make(map[*Conn]struct{}), Predict: true}
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

var predMeta = &proto.Meta{Family: inet.AFInet6}

// loadSndBuf puts n un-acknowledged in-flight bytes on the connection.
func (c *Conn) loadSndBuf(n int) {
	c.sndBuf = make([]byte, n)
	c.sndNxt = c.sndUna + uint32(n)
	c.sndMax = c.sndNxt
}

func TestPredAckFastPath(t *testing.T) {
	c := newPredConn()
	c.loadSndBuf(100)
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}
	c.segInput(th, nil, predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if got := c.t.Stats.PredAck.Get(); got != 1 {
		t.Fatalf("PredAck = %d, want 1", got)
	}
	if c.sndUna != 5100 || len(c.sndBuf) != 0 {
		t.Fatalf("ack not applied: sndUna=%d buf=%d", c.sndUna, len(c.sndBuf))
	}
	if c.tRexmt != 0 || c.rexmtShift != 0 {
		t.Fatal("retransmit timer not cleared by full ack")
	}
}

func TestPredAckBypassWindowChange(t *testing.T) {
	c := newPredConn()
	c.loadSndBuf(100)
	// Window update rides the ACK: must take the general path, which
	// applies both the ack and the new window.
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 4096}
	c.segInput(th, nil, predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.t.Stats.PredAck.Get() != 0 {
		t.Fatal("fast path taken despite window change")
	}
	if c.sndUna != 5100 || c.sndWnd != 4096 {
		t.Fatalf("general path outcome wrong: sndUna=%d sndWnd=%d", c.sndUna, c.sndWnd)
	}
}

func TestPredAckBypassRetransmitPending(t *testing.T) {
	c := newPredConn()
	c.loadSndBuf(100)
	c.sndNxt = 5050 // retransmission rewound sndNxt below sndMax
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}
	c.segInput(th, nil, predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.t.Stats.PredAck.Get() != 0 {
		t.Fatal("fast path taken while sndNxt != sndMax")
	}
	if c.sndUna != 5100 {
		t.Fatal("ack lost on bypass")
	}
}

func TestPredAckBypassCongestionLimited(t *testing.T) {
	c := newPredConn()
	c.loadSndBuf(100)
	c.cwnd = 1024 // below sndWnd: cwnd still the binding limit
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}
	c.segInput(th, nil, predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.t.Stats.PredAck.Get() != 0 {
		t.Fatal("fast path taken while congestion-limited")
	}
	if c.sndUna != 5100 {
		t.Fatal("ack lost on bypass")
	}
}

func TestPredDatFastPathAndAckEveryOther(t *testing.T) {
	c := newPredConn()
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5000, Wnd: 8192}
	c.segInput(th, []byte("abc"), predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if got := c.t.Stats.PredDat.Get(); got != 1 {
		t.Fatalf("PredDat = %d, want 1", got)
	}
	if string(c.rcvBuf) != "abc" || c.rcvNxt != 1003 {
		t.Fatalf("data not delivered: buf=%q nxt=%d", c.rcvBuf, c.rcvNxt)
	}
	if !c.delack || len(c.t.outbox) != 0 {
		t.Fatalf("first segment must only schedule a delayed ACK (delack=%v outbox=%d)",
			c.delack, len(c.t.outbox))
	}
	// Second in-order segment: the delayed ACK converts to an
	// immediate one (RFC 1122 §4.2.3.2 — at least every other).
	th2 := &Header{Flags: FlagACK, Seq: 1003, Ack: 5000, Wnd: 8192}
	c.segInput(th2, []byte("defg"), predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if got := c.t.Stats.PredDat.Get(); got != 2 {
		t.Fatalf("PredDat = %d, want 2", got)
	}
	if len(c.t.outbox) != 1 {
		t.Fatalf("second segment must force the ACK out, outbox=%d", len(c.t.outbox))
	}
	seg := c.t.outbox[0].pkt.Bytes()
	if ack := uint32(seg[8])<<24 | uint32(seg[9])<<16 | uint32(seg[10])<<8 | uint32(seg[11]); ack != 1007 {
		t.Fatalf("forced ACK acknowledges %d, want 1007", ack)
	}
}

func TestPredDatBypassOutOfOrder(t *testing.T) {
	c := newPredConn()
	th := &Header{Flags: FlagACK, Seq: 1003, Ack: 5000, Wnd: 8192}
	c.segInput(th, []byte("def"), predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.t.Stats.PredDat.Get() != 0 {
		t.Fatal("fast path took an out-of-order segment")
	}
	if c.t.Stats.RcvOutOfOrder.Get() != 1 || len(c.reassQ) != 1 {
		t.Fatal("segment not routed through reassembly")
	}
}

func TestPredDatBypassReassQueue(t *testing.T) {
	c := newPredConn()
	c.reassQ = []rseg{{seq: 1003, data: []byte("def")}}
	// In-order segment, but the hole it fills means the queue must
	// drain through the general path.
	th := &Header{Flags: FlagACK, Seq: 1000, Ack: 5000, Wnd: 8192}
	c.segInput(th, []byte("abc"), predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.t.Stats.PredDat.Get() != 0 {
		t.Fatal("fast path taken with a non-empty reassembly queue")
	}
	if string(c.rcvBuf) != "abcdef" {
		t.Fatalf("queue not drained: %q", c.rcvBuf)
	}
}

func TestPredBypassURG(t *testing.T) {
	c := newPredConn()
	th := &Header{Flags: FlagACK | FlagURG, Seq: 1000, Ack: 5000, Wnd: 8192, Urp: 1}
	c.segInput(th, []byte("abc"), predMeta, c.pcb.FAddr, c.pcb.LAddr)
	if c.t.Stats.PredDat.Get() != 0 {
		t.Fatal("fast path took an URG segment")
	}
	if string(c.rcvBuf) != "abc" {
		t.Fatal("URG segment data lost")
	}
}

// TestPredictOffSameOutcome drives the same segment sequence through a
// predicting and a non-predicting connection: every piece of state and
// every queued wire byte must match; only the counters differ.
func TestPredictOffSameOutcome(t *testing.T) {
	feed := func(c *Conn) {
		c.loadSndBuf(100)
		segs := []struct {
			th   *Header
			data string
		}{
			{&Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}, ""},
			{&Header{Flags: FlagACK, Seq: 1000, Ack: 5100, Wnd: 8192}, "abc"},
			{&Header{Flags: FlagACK, Seq: 1003, Ack: 5100, Wnd: 8192}, "defg"},
			{&Header{Flags: FlagACK, Seq: 1010, Ack: 5100, Wnd: 8192}, "late"}, // gap
			{&Header{Flags: FlagACK, Seq: 1007, Ack: 5100, Wnd: 4096}, "hij"},  // fills + window change
		}
		for _, s := range segs {
			th := *s.th
			c.segInput(&th, []byte(s.data), predMeta, c.pcb.FAddr, c.pcb.LAddr)
		}
	}
	on, off := newPredConn(), newPredConn()
	off.t.Predict = false
	feed(on)
	feed(off)

	if on.t.Stats.PredAck.Get() == 0 || on.t.Stats.PredDat.Get() == 0 {
		t.Fatalf("fast path never fired: predack=%d preddat=%d",
			on.t.Stats.PredAck.Get(), on.t.Stats.PredDat.Get())
	}
	if off.t.Stats.PredAck.Get() != 0 || off.t.Stats.PredDat.Get() != 0 {
		t.Fatal("counters fired with Predict off")
	}
	if on.sndUna != off.sndUna || on.rcvNxt != off.rcvNxt || on.sndWnd != off.sndWnd ||
		on.cwnd != off.cwnd || !bytes.Equal(on.rcvBuf, off.rcvBuf) {
		t.Fatalf("state diverged: on{una %d nxt %d wnd %d cwnd %d} off{una %d nxt %d wnd %d cwnd %d}",
			on.sndUna, on.rcvNxt, on.sndWnd, on.cwnd,
			off.sndUna, off.rcvNxt, off.sndWnd, off.cwnd)
	}
	if len(on.t.outbox) != len(off.t.outbox) {
		t.Fatalf("queued %d segments vs %d", len(on.t.outbox), len(off.t.outbox))
	}
	for i := range on.t.outbox {
		if !bytes.Equal(on.t.outbox[i].pkt.Bytes(), off.t.outbox[i].pkt.Bytes()) {
			t.Fatalf("segment %d differs between predict on/off", i)
		}
	}
}

// TestAckTemplateMatchesMarshal proves the incremental pure-ACK
// rebuild emits byte-identical wire to the full marshal-and-sum path,
// across window changes and sequence wraparound.
func TestAckTemplateMatchesMarshal(t *testing.T) {
	tmpl, full := newPredConn(), newPredConn()
	hdrs := []*Header{
		{SPort: 10, DPort: 20, Seq: 5000, Ack: 1000, Flags: FlagACK, Wnd: 8192},
		{SPort: 10, DPort: 20, Seq: 5000, Ack: 1003, Flags: FlagACK, Wnd: 8189},
		{SPort: 10, DPort: 20, Seq: 5000, Ack: 2000, Flags: FlagACK, Wnd: 0},
		{SPort: 10, DPort: 20, Seq: 0xffffffff, Ack: 0xfffffffe, Flags: FlagACK, Wnd: 1},
		{SPort: 10, DPort: 20, Seq: 3, Ack: 7, Flags: FlagACK, Wnd: 65535},
	}
	for i, h := range hdrs {
		tmpl.queueSegment(h, nil) // template after the first
		full.ackTmplOK = false    // force the marshal path every time
		full.queueSegment(h, nil)
		a := tmpl.t.outbox[i].pkt.Bytes()
		b := full.t.outbox[i].pkt.Bytes()
		if !bytes.Equal(a, b) {
			t.Fatalf("ACK %d: template %x != marshal %x", i, a, b)
		}
		// And the wire verifies like any received segment would.
		sum := inet.PseudoHeader6(tmpl.pcb.LAddr, tmpl.pcb.FAddr, uint32(len(a)), proto.TCP)
		if inet.Fold(inet.Sum(sum, a)) != 0 {
			t.Fatalf("ACK %d: checksum does not verify", i)
		}
	}
}

func TestQuickAckTemplate(t *testing.T) {
	f := func(seqs, acks []uint32, wnds []uint16) bool {
		tmpl, full := newPredConn(), newPredConn()
		n := len(seqs)
		if len(acks) < n {
			n = len(acks)
		}
		if len(wnds) < n {
			n = len(wnds)
		}
		for i := 0; i < n; i++ {
			h := &Header{SPort: 10, DPort: 20, Seq: seqs[i], Ack: acks[i], Flags: FlagACK, Wnd: wnds[i]}
			tmpl.queueSegment(h, nil)
			full.ackTmplOK = false
			full.queueSegment(h, nil)
			if !bytes.Equal(tmpl.t.outbox[i].pkt.Bytes(), full.t.outbox[i].pkt.Bytes()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

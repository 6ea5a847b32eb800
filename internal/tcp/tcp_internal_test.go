package tcp

import (
	"bytes"
	"testing"
	"testing/quick"

	"bsd6/internal/inet"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		SPort: 1234, DPort: 80, Seq: 0xdeadbeef, Ack: 0x01020304,
		Flags: FlagSYN | FlagACK, Wnd: 4096, MSS: 1440,
	}
	wire := h.Marshal()
	if len(wire) != HeaderLen+4 {
		t.Fatalf("len %d", len(wire))
	}
	got, off, err := parse(wire)
	if err != nil || off != 24 {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("round trip %+v != %+v", got, h)
	}
}

func TestHeaderNoOptions(t *testing.T) {
	h := &Header{SPort: 1, DPort: 2, Seq: 3, Ack: 4, Flags: FlagACK | FlagPSH | FlagFIN, Wnd: 9}
	got, off, err := parse(h.Marshal())
	if err != nil || off != HeaderLen || got != *h {
		t.Fatalf("%+v %d %v", got, off, err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, _, err := parse(make([]byte, 10)); err == nil {
		t.Fatal("short")
	}
	b := (&Header{}).Marshal()
	b[12] = 4 << 4 // offset 16 < 20
	if _, _, err := parse(b); err == nil {
		t.Fatal("bad offset low")
	}
	b[12] = 15 << 4 // offset 60 > len
	if _, _, err := parse(b); err == nil {
		t.Fatal("bad offset high")
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, fl uint8, wnd uint16, mssIn uint16) bool {
		h := &Header{SPort: sp, DPort: dp, Seq: seq, Ack: ack,
			Flags: int(fl) & 0x3f, Wnd: wnd, MSS: int(mssIn)}
		got, _, err := parse(h.Marshal())
		if err != nil {
			return false
		}
		if h.MSS == 0 {
			return got.MSS == 0 && got.Seq == h.Seq && got.Flags == h.Flags
		}
		return got == *h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqLT(0xffffff00, 0x10) { // wraparound
		t.Fatal("seqLT wrap")
	}
	if seqGT(0xffffff00, 0x10) {
		t.Fatal("seqGT wrap")
	}
	if !seqLEQ(5, 5) || !seqGEQ(5, 5) {
		t.Fatal("eq cases")
	}
}

// newTestConn builds a minimally-initialized established connection
// for driving internal functions directly.
func newTestConn() *Conn {
	t := &TCP{Table: nil, conns: make(map[*Conn]struct{})}
	c := &Conn{
		t: t, pf: inet.AFInet6, state: StateEstablished,
		SndBufMax: 32768, RcvBufMax: 32768,
		rttTicks: -1, rto: rtoMin, mss: 512,
		rcvNxt: 1000,
	}
	return c
}

func TestReassInOrderViaQueue(t *testing.T) {
	c := newTestConn()
	c.tcpv6Reass(1000, []byte("abc"), false)
	if string(c.rcvBuf) != "abc" || c.rcvNxt != 1003 {
		t.Fatalf("buf=%q nxt=%d", c.rcvBuf, c.rcvNxt)
	}
	if c.t.Stats.Reass6.Get() != 1 || c.t.Stats.Reass4.Get() != 0 {
		t.Fatal("counter split")
	}
}

func TestReassOutOfOrder(t *testing.T) {
	c := newTestConn()
	c.tcpv6Reass(1003, []byte("def"), false)
	if len(c.rcvBuf) != 0 {
		t.Fatal("premature delivery")
	}
	c.tcpv6Reass(1000, []byte("abc"), false)
	if string(c.rcvBuf) != "abcdef" || c.rcvNxt != 1006 {
		t.Fatalf("buf=%q nxt=%d", c.rcvBuf, c.rcvNxt)
	}
}

func TestReassManyPermutations(t *testing.T) {
	// All arrival orders of four segments reassemble identically.
	segs := []struct {
		seq  uint32
		data string
	}{{1000, "AA"}, {1002, "BB"}, {1004, "CC"}, {1006, "DD"}}
	perm := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}, {2, 0, 3, 1}, {3, 0, 1, 2}}
	for _, p := range perm {
		c := newTestConn()
		for _, i := range p {
			c.tcpReass(segs[i].seq, []byte(segs[i].data), false)
		}
		if string(c.rcvBuf) != "AABBCCDD" {
			t.Fatalf("order %v -> %q", p, c.rcvBuf)
		}
		if c.t.Stats.Reass4.Get() != 4 {
			t.Fatal("v4 wrapper not counted")
		}
	}
}

func TestReassOverlapAndDup(t *testing.T) {
	c := newTestConn()
	c.tcpReass(1002, []byte("cdef"), false)
	c.tcpReass(1002, []byte("cd"), false) // shorter dup ignored
	c.tcpReass(1000, []byte("abcd"), false)
	// 1000..1003 delivered from first; 1004.. from queue with overlap
	// trimmed.
	if string(c.rcvBuf) != "abcdef" {
		t.Fatalf("buf=%q", c.rcvBuf)
	}
}

func TestReassOldDataIgnored(t *testing.T) {
	c := newTestConn()
	c.rcvNxt = 2000
	c.tcpReass(1000, []byte("old"), false)
	if len(c.reassQ) != 0 || len(c.rcvBuf) != 0 {
		t.Fatal("stale segment queued")
	}
}

func TestReassFINInQueue(t *testing.T) {
	c := newTestConn()
	c.tcpv6Reass(1003, []byte("def"), true) // FIN rides the last segment
	c.tcpv6Reass(1000, []byte("abc"), false)
	if !c.rcvClosed || c.state != StateCloseWait {
		t.Fatalf("FIN from queue: closed=%v state=%v", c.rcvClosed, c.state)
	}
	if c.rcvNxt != 1007 { // 6 data + FIN
		t.Fatalf("rcvNxt=%d", c.rcvNxt)
	}
}

func TestReassQuickRandomSplit(t *testing.T) {
	f := func(data []byte, seed uint32) bool {
		if len(data) == 0 {
			return true
		}
		c := newTestConn()
		base := c.rcvNxt
		type seg struct {
			off int
			n   int
		}
		var segs []seg
		r := seed
		for off := 0; off < len(data); {
			r = r*1664525 + 1013904223
			n := 1 + int(r%7)
			if off+n > len(data) {
				n = len(data) - off
			}
			segs = append(segs, seg{off, n})
			off += n
		}
		// Feed in a rotated order.
		k := int(seed) % len(segs)
		for i := range segs {
			s := segs[(i+k)%len(segs)]
			c.tcpReass(base+uint32(s.off), data[s.off:s.off+n2(s.n)], false)
		}
		return bytes.Equal(c.rcvBuf, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func n2(n int) int { return n }

func TestUpdateRTT(t *testing.T) {
	c := newTestConn()
	c.updateRTT(4)
	if c.srtt != 4 || c.rttvar != 2 || c.rto != 4+8 {
		t.Fatalf("first sample: srtt=%d var=%d rto=%d", c.srtt, c.rttvar, c.rto)
	}
	for i := 0; i < 50; i++ {
		c.updateRTT(4)
	}
	if c.srtt < 3 || c.srtt > 5 {
		t.Fatalf("converged srtt=%d", c.srtt)
	}
	// Minimum clamp.
	c2 := newTestConn()
	c2.updateRTT(0)
	if c2.rto < rtoMin {
		t.Fatal("rto below min")
	}
}

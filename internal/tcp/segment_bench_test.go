package tcp

import "testing"

// Per-segment input cost on the two bulk-transfer workloads: in-order
// data delivery and pure ACKs for in-flight data. Compared against
// .github/bench-baseline.txt by the bench-compare CI job.

func BenchmarkSegInputData(b *testing.B) {
	c := newSegConn()
	payload := make([]byte, 512)
	th := &Header{Flags: FlagACK, Ack: 5000, Wnd: 8192}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Seq = c.rcvNxt
		c.segInput(th, payload, segMeta, c.pcb.FAddr, c.pcb.LAddr)
		if len(c.rcvBuf) >= 16384 {
			c.rcvBuf = c.rcvBuf[:0]
			c.t.outbox = c.t.outbox[:0]
		}
	}
}

func BenchmarkSegInputAck(b *testing.B) {
	c := newSegConn()
	inflight := make([]byte, 512)
	th := &Header{Flags: FlagACK, Seq: 1000, Wnd: 8192}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.sndBuf = inflight
		c.sndNxt = c.sndUna + uint32(len(inflight))
		c.sndMax = c.sndNxt
		th.Ack = c.sndMax
		c.segInput(th, nil, segMeta, c.pcb.FAddr, c.pcb.LAddr)
		if len(c.t.outbox) > 0 {
			c.t.outbox = c.t.outbox[:0]
		}
	}
}

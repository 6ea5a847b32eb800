package tcp

import "testing"

// Per-segment input cost with header prediction on and off, on the two
// workloads the fast path exists for: in-order data delivery and pure
// ACKs for in-flight data. The "General" variants force every segment
// down the full RFC 793 switch, so the pair bounds what prediction
// saves per packet. Compared against .github/bench-baseline.txt by the
// bench-compare CI job.

func BenchmarkSegInputDataPredict(b *testing.B) { benchSegInputData(b, true) }
func BenchmarkSegInputDataGeneral(b *testing.B) { benchSegInputData(b, false) }

func benchSegInputData(b *testing.B, predict bool) {
	c := newPredConn()
	c.t.Predict = predict
	payload := make([]byte, 512)
	th := &Header{Flags: FlagACK, Ack: 5000, Wnd: 8192}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		th.Seq = c.rcvNxt
		c.segInput(th, payload, predMeta, c.pcb.FAddr, c.pcb.LAddr)
		if len(c.rcvBuf) >= 16384 {
			c.rcvBuf = c.rcvBuf[:0]
			c.t.outbox = c.t.outbox[:0]
		}
	}
}

func BenchmarkSegInputAckPredict(b *testing.B) { benchSegInputAck(b, true) }
func BenchmarkSegInputAckGeneral(b *testing.B) { benchSegInputAck(b, false) }

func benchSegInputAck(b *testing.B, predict bool) {
	c := newPredConn()
	c.t.Predict = predict
	inflight := make([]byte, 512)
	th := &Header{Flags: FlagACK, Seq: 1000, Wnd: 8192}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.sndBuf = inflight
		c.sndNxt = c.sndUna + uint32(len(inflight))
		c.sndMax = c.sndNxt
		th.Ack = c.sndMax
		c.segInput(th, nil, predMeta, c.pcb.FAddr, c.pcb.LAddr)
		if len(c.t.outbox) > 0 {
			c.t.outbox = c.t.outbox[:0]
		}
	}
}

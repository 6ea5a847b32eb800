//go:build !race

package tcp_test

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/tcp"
)

// The per-packet allocation budget of the TCP datapath is one: the
// packet's Mbuf.  Headers are written into the pooled slab's headroom
// on output and parsed by value on input, and ESP seals and opens in
// place, so nothing else reaches the heap between one stack's
// ip6_output/ip_output and the other's tcp_input.  These tests pin
// that on a warm connection over a perfect, synchronous hub.  They are
// built without the race detector, whose instrumentation allocates.

// allocPair returns an established connection between two fresh nodes,
// over IPv4 when v4 is set, with both sides' traffic sealed by AES-GCM
// ESP in transport mode when esp is set.
func allocPair(t *testing.T, v4, esp bool) (s *tsim, a, b *tnode, cli, srv *tcp.Conn) {
	s, a, b = tcpPair(t)
	fam, dst := inet.AFInet6, b.LinkLocal(0)
	if v4 {
		fam, dst = inet.AFInet, inet.V4Mapped(inet.IP4{10, 0, 0, 2})
	}
	if esp {
		aLL, bLL := a.LinkLocal(0), b.LinkLocal(0)
		k := make([]byte, 20) // AES-128 key + 4-byte salt
		for i := range k {
			k[i] = byte(i*13 + 1)
		}
		for _, n := range []*tnode{a, b} {
			for _, sa := range []*key.SA{
				{SPI: 0x500, Src: aLL, Dst: bLL, Proto: key.ProtoESPTransport, EncAlg: "aes-gcm", EncKey: k},
				{SPI: 0x501, Src: bLL, Dst: aLL, Proto: key.ProtoESPTransport, EncAlg: "aes-gcm", EncKey: k},
			} {
				if err := n.Keys.Add(sa); err != nil {
					t.Fatal(err)
				}
			}
			n.Sec.SetSystemPolicy(ipsec.SockOpts{ESPTransport: ipsec.LevelRequire})
		}
	}
	l := b.tcp.Attach(fam, nil)
	if err := l.Bind(inet.IP6{}, 8300); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	cli = a.tcp.Attach(fam, nil)
	if err := cli.Connect(dst, 8300); err != nil {
		t.Fatal(err)
	}
	s.waitState(cli, tcp.StateEstablished)
	srv = s.acceptOne(l)
	return s, a, b, cli, srv
}

// dataAndAck sends one small data segment from cli to srv, drains it,
// and flushes srv's delayed ACK: exactly two packets, one each way.
func dataAndAck(t *testing.T, b *tnode, cli, srv *tcp.Conn, msg, buf []byte) {
	if n, err := cli.Send(msg); err != nil || n != len(msg) {
		t.Fatalf("send: %d, %v", n, err)
	}
	if n, err := srv.ReadInto(buf); err != nil || n != len(msg) {
		t.Fatalf("read: %d, %v", n, err)
	}
	b.tcp.FastTimo()
}

func TestSegmentAllocatesOnlyItsMbuf(t *testing.T) {
	for _, tc := range []struct {
		name    string
		v4, esp bool
	}{
		{"ipv6", false, false},
		{"ipv4", true, false},
		{"ipv6-esp-aes-gcm", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, a, b, cli, srv := allocPair(t, tc.v4, tc.esp)
			msg, buf := pattern(64), make([]byte, 256)
			for i := 0; i < 4; i++ { // warm: ND, routes, SA schedules, ACK template
				dataAndAck(t, b, cli, srv, msg, buf)
			}
			sent := a.tcp.Stats.SndPack.Get() + b.tcp.Stats.SndPack.Get()
			const runs = 50
			allocs := testing.AllocsPerRun(runs, func() { dataAndAck(t, b, cli, srv, msg, buf) })
			pkts := a.tcp.Stats.SndPack.Get() + b.tcp.Stats.SndPack.Get() - sent
			if pkts != 2*(runs+1) {
				t.Fatalf("%d segments over %d runs, want a data segment and an ACK per run", pkts, runs+1)
			}
			if tc.esp && b.Sec.Stats.InDecryptOK.Get() == 0 {
				t.Fatal("no segment was opened by ESP")
			}
			if allocs != 2 {
				t.Fatalf("%v allocations per data segment + ACK, want 2 (one Mbuf each)", allocs)
			}
		})
	}
}

// bulkRun sends four full-sized segments' worth of data from cli to
// srv, hands the frames srv's link queued to deliver (nil when the
// link delivers them itself), drains the data and flushes srv's
// delayed ACK.  With the congestion window open, tcp_output sends the
// four segments back to back, one MSS-sized frame each.
func bulkRun(t *testing.T, b *tnode, cli, srv *tcp.Conn, msg, buf []byte, deliver func()) {
	if n, err := cli.Send(msg); err != nil || n != len(msg) {
		t.Fatalf("send: %d, %v", n, err)
	}
	if deliver != nil {
		deliver()
	}
	for got := 0; got < len(msg); {
		n, err := srv.ReadInto(buf)
		if err != nil || n == 0 {
			t.Fatalf("read after %d/%d bytes: %d, %v", got, len(msg), n, err)
		}
		got += n
	}
	b.tcp.FastTimo()
}

// checkStreamAllocs runs bulkRun on a warm connection and pins its
// allocations at one Mbuf per wire frame, data and ACKs both ways.
func checkStreamAllocs(t *testing.T, a, b *tnode, run func()) {
	t.Helper()
	for i := 0; i < 8; i++ { // warm: cwnd, arenas, free lists
		run()
	}
	data0 := a.tcp.Stats.SndPack.Get()
	frames0 := data0 + b.tcp.Stats.SndPack.Get()
	const runs = 50
	allocs := testing.AllocsPerRun(runs, run)
	data := a.tcp.Stats.SndPack.Get() - data0
	frames := a.tcp.Stats.SndPack.Get() + b.tcp.Stats.SndPack.Get() - frames0
	if frames%(runs+1) != 0 || data%(runs+1) != 0 {
		t.Fatalf("%d frames (%d data) over %d runs: runs differ", frames, data, runs+1)
	}
	if data/(runs+1) < 4 {
		t.Fatalf("%d data frames a run, want the 4 MSS-sized segments", data/(runs+1))
	}
	if perRun := float64(frames / (runs + 1)); allocs != perRun {
		t.Fatalf("%v allocations per run, want %v: one Mbuf per wire frame", allocs, perRun)
	}
}

// TestStreamSendAllocatesOnlyItsFrames pins the transmit side of a
// bulk send: a Send of four MSS worth of data leaves as four frames,
// and each frame costs its own Mbuf and nothing else.
func TestStreamSendAllocatesOnlyItsFrames(t *testing.T) {
	_, a, b, cli, srv := allocPair(t, false, false)
	msg, buf := pattern(4*1440), make([]byte, 8192)
	checkStreamAllocs(t, a, b, func() { bulkRun(t, b, cli, srv, msg, buf, nil) })
}

// TestGROTrainAllocatesOnlyItsFrames pins the receive batch: the
// receiver queues its frames as a netisr would, and a GRO engine
// pushes, flushes and hands the train to IP and TCP input.  The
// engine's boundary record, the chain walk in tcp_input and the
// replayed ACKs add nothing to the frames' own Mbufs.
func TestGROTrainAllocatesOnlyItsFrames(t *testing.T) {
	_, a, b, cli, srv := allocPair(t, false, false)
	ifp := b.Ifps[0]
	queue := make([]*mbuf.Mbuf, 0, 16)
	ifp.SetInput(func(_ *netif.Interface, fr netif.Frame) {
		queue = append(queue, fr.Payload)
	})
	g := b.tcp.NewGRO()
	input := func(pkt *mbuf.Mbuf) {
		if pkt != nil {
			b.V6.Input(ifp, pkt)
		}
	}
	// drain runs bursts until the queue stays empty: input can make
	// the peer send more (an ACK opening its window), which queues.
	drain := func() {
		for i := 0; i < len(queue); i++ {
			flushed, pass := g.Push(queue[i], false)
			input(flushed)
			input(pass)
			if i == len(queue)-1 {
				input(g.Flush())
			}
		}
		queue = queue[:0]
	}
	msg, buf := pattern(4*1440), make([]byte, 8192)
	flushes0 := b.tcp.Stats.GROFlushes.Get()
	checkStreamAllocs(t, a, b, func() { bulkRun(t, b, cli, srv, msg, buf, drain) })
	if b.tcp.Stats.GROFlushes.Get() == flushes0 {
		t.Fatal("no multi-segment train reached tcp_input")
	}
}

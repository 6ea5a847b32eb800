package tcp

import (
	"bytes"
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/pcb"
	"bsd6/internal/proto"
)

// Conformance tests for the GRO flush boundaries: every rule the
// engine's comment block promises — flags, options, gaps, window
// changes, fragments, checksums, unclaimed tuples, the ceiling — is
// pinned here against hand-built wire frames, and FuzzGRO replays
// arbitrary segment programs through the coalesced and the unbatched
// paths to prove the state machine cannot tell them apart.

var (
	groLocal  = inet.IP6{15: 1} // frames arrive addressed here
	groRemote = inet.IP6{15: 2}
	groLoc4   = inet.IP4{10, 0, 0, 1}
	groRem4   = inet.IP4{10, 0, 0, 2}
)

// groWorld is a TCP instance with one established connection whose
// tuple the demux table claims, so inbound frames coalesce.
type groWorld struct {
	t *TCP
	c *Conn
	g *GRO
}

func newGROWorld(tb testing.TB, v4 bool) *groWorld {
	fam := inet.AFInet6
	local, remote := groLocal, groRemote
	if v4 {
		fam = inet.AFInet
		local, remote = inet.V4Mapped(groLoc4), inet.V4Mapped(groRem4)
	}
	t := &TCP{Table: pcb.NewTable(), conns: make(map[*Conn]struct{})}
	c := t.Attach(fam, nil)
	if err := t.Table.Bind(c.pcb, local, 80); err != nil {
		tb.Fatal(err)
	}
	if err := t.Table.Connect(c.pcb, remote, 4000); err != nil {
		tb.Fatal(err)
	}
	c.state = StateEstablished
	c.mss = 512
	c.rcvNxt = 1000
	c.sndUna, c.sndNxt, c.sndMax = 5000, 5000, 5000
	c.sndWnd = 8192
	c.cwnd, c.ssthresh = 1<<20, 1<<20
	// In-flight bytes so replayed programs can exercise ACK advances.
	c.sndBuf = make([]byte, 2000)
	c.sndNxt, c.sndMax = 7000, 7000
	return &groWorld{t: t, c: c, g: t.NewGRO()}
}

// groSpec describes one inbound frame for the builders.
type groSpec struct {
	sport, dport uint16
	seq, ack     uint32
	flags        byte
	wnd          uint16
	urp          uint16
	doff         int // TCP data offset in bytes; 0 means HeaderLen
	payload      []byte
	badSum       bool // corrupt the transport checksum
	frag         bool // IPv4: set MF; IPv6: insert a Fragment header
	tos          byte // IPv4 TOS / IPv6 traffic class (header mismatch knob)
}

func (s *groSpec) ports() (uint16, uint16) {
	sp, dp := s.sport, s.dport
	if sp == 0 {
		sp = 4000
	}
	if dp == 0 {
		dp = 80
	}
	return sp, dp
}

func (s *groSpec) tcp() []byte {
	doff := s.doff
	if doff == 0 {
		doff = HeaderLen
	}
	th := make([]byte, doff, doff+len(s.payload))
	sp, dp := s.ports()
	th[0], th[1] = byte(sp>>8), byte(sp)
	th[2], th[3] = byte(dp>>8), byte(dp)
	th[4], th[5], th[6], th[7] = byte(s.seq>>24), byte(s.seq>>16), byte(s.seq>>8), byte(s.seq)
	th[8], th[9], th[10], th[11] = byte(s.ack>>24), byte(s.ack>>16), byte(s.ack>>8), byte(s.ack)
	th[12] = byte(doff/4) << 4
	th[13] = s.flags
	th[14], th[15] = byte(s.wnd>>8), byte(s.wnd)
	th[18], th[19] = byte(s.urp>>8), byte(s.urp)
	return append(th, s.payload...)
}

// frame6 builds a complete IPv6 frame for the spec.
func (s *groSpec) frame6() *mbuf.Mbuf {
	seg := s.tcp()
	ext := 0
	if s.frag {
		ext = 8
	}
	b := make([]byte, 40+ext+len(seg))
	b[0] = 0x60 | s.tos>>4
	b[1] = s.tos << 4
	plen := ext + len(seg)
	b[4], b[5] = byte(plen>>8), byte(plen)
	b[6] = proto.TCP
	b[7] = 64
	copy(b[8:24], groRemote[:])
	copy(b[24:40], groLocal[:])
	if s.frag {
		b[6] = 44 // Fragment extension header
		b[40] = proto.TCP
		b[43] = 1 // fragment offset 0, M=1
	}
	ck := inet.TransportChecksum6(groRemote, groLocal, proto.TCP, seg)
	seg[16], seg[17] = byte(ck>>8), byte(ck)
	if s.badSum {
		seg[17] ^= 0xff
	}
	copy(b[40+ext:], seg)
	return mbuf.New(b)
}

// frame4 builds a complete IPv4 frame for the spec.
func (s *groSpec) frame4() *mbuf.Mbuf {
	seg := s.tcp()
	b := make([]byte, 20+len(seg))
	b[0] = 0x45
	b[1] = s.tos
	tot := len(b)
	b[2], b[3] = byte(tot>>8), byte(tot)
	b[4], b[5] = 0x12, 0x34
	if s.frag {
		b[6] = 0x20 // MF
	}
	b[8] = 64
	b[9] = proto.TCP
	copy(b[12:16], groRem4[:])
	copy(b[16:20], groLoc4[:])
	ck := inet.Checksum(b[:20])
	b[10], b[11] = byte(ck>>8), byte(ck)
	tck := inet.TransportChecksum4(groRem4, groLoc4, proto.TCP, seg)
	seg[16], seg[17] = byte(tck>>8), byte(tck)
	if s.badSum {
		seg[17] ^= 0xff
	}
	copy(b[20:], seg)
	return mbuf.New(b)
}

func groData(seq uint32, n int, fill byte) *groSpec {
	p := make([]byte, n)
	for i := range p {
		p[i] = fill + byte(i)
	}
	return &groSpec{seq: seq, ack: 5000, flags: FlagACK, wnd: 8192, payload: p}
}

func TestGROCoalescesCleanTrain(t *testing.T) {
	w := newGROWorld(t, false)
	var want []byte
	for i, seq := range []uint32{1000, 1500, 2000} {
		sp := groData(seq, 500, byte(i*64))
		want = append(want, sp.payload...)
		flushed, pass := w.g.Push(sp.frame6(), false)
		if flushed != nil || pass != nil {
			t.Fatalf("segment %d not absorbed (flushed=%v pass=%v)", i, flushed, pass)
		}
	}
	sup := w.g.Flush()
	if sup == nil {
		t.Fatal("no super-segment flushed")
	}
	if sup.Hdr().Flags&mbuf.MSumOK == 0 {
		t.Error("flushed super-segment not marked MSumOK")
	}
	meta, _ := sup.Hdr().GRO.(*groMeta)
	if meta == nil || len(meta.segs) != 3 {
		t.Fatalf("boundary meta = %+v, want 3 segments", meta)
	}
	for i, s := range meta.segs {
		if s.len != 500 || s.ack != 5000 {
			t.Fatalf("boundary %d = %+v", i, s)
		}
	}
	b := sup.Bytes()
	if plen := int(b[4])<<8 | int(b[5]); plen != HeaderLen+1500 {
		t.Fatalf("patched payload length %d, want %d", plen, HeaderLen+1500)
	}
	if !bytes.Equal(b[40+HeaderLen:], want) {
		t.Fatal("coalesced payload bytes differ from the originals")
	}
	if got := w.t.Stats.GROCoalesced.Get(); got != 2 {
		t.Fatalf("GROCoalesced = %d, want 2", got)
	}
	if got := w.t.Stats.GROFlushes.Get(); got != 1 {
		t.Fatalf("GROFlushes = %d, want 1", got)
	}
}

func TestGROv4CoalesceRepairsIPHeader(t *testing.T) {
	w := newGROWorld(t, true)
	for _, seq := range []uint32{1000, 1400} {
		if fl, pass := w.g.Push(groData(seq, 400, 7).frame4(), true); fl != nil || pass != nil {
			t.Fatal("v4 segment not absorbed")
		}
	}
	sup := w.g.Flush()
	b := sup.Bytes()
	if tot := int(b[2])<<8 | int(b[3]); tot != 20+HeaderLen+800 {
		t.Fatalf("patched total length %d", tot)
	}
	if inet.Checksum(b[:20]) != 0 {
		t.Fatal("IPv4 header checksum not repaired after length patch")
	}
}

// TestGROFlushBoundaries pins every rule that must break a train.  A
// first mergeable segment is held; the breaker arrives next.  "parse"
// breakers are declined outright and pass through unbatched; "match"
// breakers are valid train heads themselves, so the engine flushes the
// old train and holds them; "drop" breakers (checksum damage) pass
// through so the normal input path counts the corpse.
func TestGROFlushBoundaries(t *testing.T) {
	base := func() *groSpec { return groData(1000, 500, 1) }
	next := func() *groSpec { return groData(1500, 500, 2) }
	cases := []struct {
		name string
		mod  func(*groSpec)
		kind string // "parse", "match", "drop", "nopcb"
	}{
		{"PSH", func(s *groSpec) { s.flags |= FlagPSH }, "parse"},
		{"FIN", func(s *groSpec) { s.flags |= FlagFIN }, "parse"},
		{"RST", func(s *groSpec) { s.flags |= FlagRST }, "parse"},
		{"SYN", func(s *groSpec) { s.flags |= FlagSYN }, "parse"},
		{"URG", func(s *groSpec) { s.flags |= FlagURG; s.urp = 1 }, "parse"},
		{"urgent pointer without URG", func(s *groSpec) { s.urp = 7 }, "parse"},
		{"TCP options", func(s *groSpec) { s.doff = 24 }, "parse"},
		{"pure ACK", func(s *groSpec) { s.payload = nil }, "parse"},
		{"fragment", func(s *groSpec) { s.frag = true }, "parse"},
		{"oversize", func(s *groSpec) { s.payload = make([]byte, DefaultGROMax+1) }, "parse"},
		{"sequence gap", func(s *groSpec) { s.seq = 1600 }, "match"},
		{"overlapping sequence", func(s *groSpec) { s.seq = 1400 }, "match"},
		{"window update", func(s *groSpec) { s.wnd = 4096 }, "match"},
		{"ACK regression", func(s *groSpec) { s.ack = 4000 }, "match"},
		{"IP header change", func(s *groSpec) { s.tos = 0x10 }, "match"},
		{"bad checksum", func(s *groSpec) { s.badSum = true }, "drop"},
		{"unclaimed tuple", func(s *groSpec) { s.sport = 4001 }, "nopcb"},
	}
	for _, v4 := range []bool{false, true} {
		mk := func(s *groSpec) *mbuf.Mbuf {
			if v4 {
				return s.frame4()
			}
			return s.frame6()
		}
		for _, tc := range cases {
			w := newGROWorld(t, v4)
			if fl, pass := w.g.Push(mk(base()), v4); fl != nil || pass != nil {
				t.Fatalf("%s v4=%v: head segment not held", tc.name, v4)
			}
			sp := next()
			tc.mod(sp)
			breaker := mk(sp)
			flushed, pass := w.g.Push(breaker, v4)
			if flushed == nil {
				t.Fatalf("%s v4=%v: breaker did not flush the pending train", tc.name, v4)
			}
			if m, _ := flushed.Hdr().GRO.(*groMeta); m != nil {
				t.Fatalf("%s v4=%v: single-segment flush carries boundary meta", tc.name, v4)
			}
			if flushed.Hdr().Flags&mbuf.MSumOK == 0 {
				t.Fatalf("%s v4=%v: verified flush not marked MSumOK", tc.name, v4)
			}
			switch tc.kind {
			case "parse", "drop", "nopcb":
				if pass != breaker {
					t.Fatalf("%s v4=%v: breaker must pass through unbatched", tc.name, v4)
				}
				if pass.Hdr().Flags&mbuf.MSumOK != 0 {
					t.Fatalf("%s v4=%v: passed-through frame must not skip checksum", tc.name, v4)
				}
			case "match":
				if pass != nil {
					t.Fatalf("%s v4=%v: valid head passed through instead of held", tc.name, v4)
				}
				if tail := w.g.Flush(); tail == nil {
					t.Fatalf("%s v4=%v: breaker vanished from the engine", tc.name, v4)
				}
			}
			if got := w.t.Stats.GROCoalesced.Get(); got != 0 {
				t.Fatalf("%s v4=%v: GROCoalesced = %d, want 0", tc.name, v4, got)
			}
		}
	}
}

func TestGROCeilingFlushes(t *testing.T) {
	w := newGROWorld(t, false)
	half := DefaultGROMax/2 + 1 // two such segments exceed the ceiling
	if fl, pass := w.g.Push(groData(1000, half, 1).frame6(), false); fl != nil || pass != nil {
		t.Fatal("head not held")
	}
	flushed, pass := w.g.Push(groData(uint32(1000+half), half, 2).frame6(), false)
	if flushed == nil || pass != nil {
		t.Fatal("ceiling must flush the train and hold the new segment")
	}
	flushed.Free()
	if tail := w.g.Flush(); tail == nil {
		t.Fatal("second segment lost")
	} else {
		tail.Free()
	}
}

// groDispatch emulates the netisr worker's hand-off of a GRO-surfaced
// frame into tcp_input: strip the IP header, build the Meta, deliver.
// t.flushing is pinned true by the harness so queued ACKs accumulate
// in the outbox for comparison instead of hitting a nil IP layer.
func (w *groWorld) dispatch(pkt *mbuf.Mbuf) {
	if pkt == nil {
		return
	}
	b := pkt.PullUp(pkt.Len())
	var meta proto.Meta
	if b[0]>>4 == 4 {
		meta.Family = inet.AFInet
		copy(meta.Src4[:], b[12:16])
		copy(meta.Dst4[:], b[16:20])
		pkt.Adj(20)
	} else {
		if b[6] != proto.TCP {
			pkt.Free() // extension headers: not this harness's problem
			return
		}
		meta.Family = inet.AFInet6
		copy(meta.Src6[:], b[8:24])
		copy(meta.Dst6[:], b[24:40])
		pkt.Adj(40)
	}
	w.t.input(pkt, meta)
}

// TestGROFlushByNewTrainDeliversExactBytes runs back-to-back trains
// whose heads each break the previous train (a window change), so
// every multi-segment flush comes out of the Push that starts the next
// train.  The flushed record must survive that Push: with poison on
// and pooled frames, the delivered stream is exactly the bytes sent.
func TestGROFlushByNewTrainDeliversExactBytes(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	w := newGROWorld(t, false)
	w.t.flushing = true // park ACKs in the outbox
	var want []byte
	seq, wnd := uint32(1000), uint16(8192)
	for ti, sizes := range [][]int{{300, 300, 300}, {100, 200}, {50, 60, 70, 80}, {400, 10}} {
		for i, n := range sizes {
			sp := groData(seq, n, byte(ti*64+i*16))
			sp.wnd = wnd
			f := sp.frame6()
			pkt := mbuf.Get(f.Len())
			copy(pkt.Bytes(), f.Bytes())
			flushed, pass := w.g.Push(pkt, false)
			if pass != nil {
				t.Fatalf("train %d segment %d passed through", ti, i)
			}
			if (flushed != nil) != (i == 0 && ti > 0) {
				t.Fatalf("train %d segment %d: flushed %v", ti, i, flushed)
			}
			w.dispatch(flushed)
			want = append(want, sp.payload...)
			seq += uint32(n)
		}
		wnd -= 512
	}
	w.dispatch(w.g.Flush())
	if got := w.t.Stats.GROFlushes.Get(); got != 4 {
		t.Fatalf("GROFlushes = %d, want 4 multi-segment trains", got)
	}
	if w.c.rcvNxt != seq || !bytes.Equal(w.c.rcvBuf, want) {
		t.Fatalf("delivered %d bytes up to %d, want %d up to %d, or the bytes differ",
			len(w.c.rcvBuf), w.c.rcvNxt, len(want), seq)
	}
}

// groProgram decodes fuzz bytes into a deterministic segment list: a
// stream of (op, arg) pairs perturbing sequence, flags, window, ACK
// and checksums around an in-order baseline.
func groProgram(p []byte) []*groSpec {
	if len(p) > 96 {
		p = p[:96]
	}
	var specs []*groSpec
	seq := uint32(1000)
	ack := uint32(5000)
	wnd := uint16(8192)
	for i := 0; i+1 < len(p); i += 2 {
		op, arg := p[i]%12, int(p[i+1])
		size := 1 + arg%700
		s := groData(seq, size, byte(arg))
		s.ack, s.wnd = ack, wnd
		switch op {
		case 0, 1, 2, 3: // in-order data
		case 4: // sequence gap
			s.seq += uint32(1 + arg%600)
		case 5: // stale retransmission / overlap
			s.seq -= uint32(1 + arg%600)
		case 6:
			s.flags |= FlagPSH
		case 7: // pure window-update ACK
			s.payload = nil
			wnd = uint16(2048 + arg*13)
			s.wnd = wnd
		case 8: // window change on a data segment
			wnd = uint16(2048 + arg*17)
			s.wnd = wnd
		case 9: // ACK advance (new data acknowledged)
			ack += uint32(arg % 256)
			if ack > 7000 {
				ack = 7000
			}
			s.ack = ack
		case 10:
			s.badSum = true
		case 11:
			s.flags |= FlagFIN
		}
		specs = append(specs, s)
		seq += uint32(len(s.payload))
	}
	return specs
}

// FuzzGRO replays arbitrary segment programs through a coalescing
// worker and an unbatched one: connection state, delivered stream,
// reassembly queue and every queued wire byte must be identical.
func FuzzGRO(f *testing.F) {
	f.Add([]byte{0, 200, 0, 200, 0, 200})                   // clean train
	f.Add([]byte{0, 100, 4, 50, 0, 100, 5, 30})             // gap, then overlap
	f.Add([]byte{0, 100, 9, 90, 0, 100, 7, 5, 0, 100})      // acks and window updates
	f.Add([]byte{0, 100, 10, 10, 0, 100, 6, 20, 11, 1})     // corruption, PSH, FIN
	f.Add([]byte{8, 3, 0, 255, 0, 255, 0, 255, 0, 1, 0, 2}) // window change mid-train
	f.Fuzz(func(t *testing.T, program []byte) {
		specs := groProgram(program)
		if len(specs) == 0 {
			t.Skip()
		}
		gw := newGROWorld(t, false)
		dw := newGROWorld(t, false)
		gw.t.flushing = true // park queued segments in the outbox
		dw.t.flushing = true

		for _, s := range specs {
			flushed, pass := gw.g.Push(s.frame6(), false)
			gw.dispatch(flushed)
			gw.dispatch(pass)
		}
		gw.dispatch(gw.g.Flush())
		for _, s := range specs {
			dw.dispatch(s.frame6())
		}

		g, d := gw.c, dw.c
		if g.rcvNxt != d.rcvNxt || g.sndUna != d.sndUna || g.sndWnd != d.sndWnd ||
			g.cwnd != d.cwnd || g.state != d.state || g.delack != d.delack {
			t.Fatalf("state diverged: gro{nxt %d una %d wnd %d cwnd %d %v delack %v} direct{nxt %d una %d wnd %d cwnd %d %v delack %v}",
				g.rcvNxt, g.sndUna, g.sndWnd, g.cwnd, g.state, g.delack,
				d.rcvNxt, d.sndUna, d.sndWnd, d.cwnd, d.state, d.delack)
		}
		if !bytes.Equal(g.rcvBuf, d.rcvBuf) {
			t.Fatalf("delivered stream diverged: %d vs %d bytes", len(g.rcvBuf), len(d.rcvBuf))
		}
		if len(g.reassQ) != len(d.reassQ) {
			t.Fatalf("reassembly queue diverged: %d vs %d segments", len(g.reassQ), len(d.reassQ))
		}
		for i := range g.reassQ {
			if g.reassQ[i].seq != d.reassQ[i].seq || !bytes.Equal(g.reassQ[i].data, d.reassQ[i].data) {
				t.Fatalf("reassembly segment %d diverged", i)
			}
		}
		if len(gw.t.outbox) != len(dw.t.outbox) {
			t.Fatalf("queued %d response segments vs %d", len(gw.t.outbox), len(dw.t.outbox))
		}
		for i := range gw.t.outbox {
			if !bytes.Equal(gw.t.outbox[i].pkt.Bytes(), dw.t.outbox[i].pkt.Bytes()) {
				t.Fatalf("response segment %d differs between coalesced and unbatched paths", i)
			}
		}
		if gw.t.Stats.RcvPack.Get() != dw.t.Stats.RcvPack.Get() ||
			gw.t.Stats.RcvByte.Get() != dw.t.Stats.RcvByte.Get() {
			t.Fatalf("wire accounting diverged: pack %d/%d byte %d/%d",
				gw.t.Stats.RcvPack.Get(), dw.t.Stats.RcvPack.Get(),
				gw.t.Stats.RcvByte.Get(), dw.t.Stats.RcvByte.Get())
		}
	})
}

package tcp_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/netif"
	"bsd6/internal/tcp"
	"bsd6/internal/testnet"
)

// bigWindowPair is tcpPair with both receive buffers large enough that
// the advertised window pins at the 65535 clamp, so a bulk transfer
// sees a constant window and one ACK per two full segments.
func bigWindowPair(t *testing.T, port uint16) (*tsim, *tnode, *tnode, *tcp.Conn, *tcp.Conn) {
	t.Helper()
	s, a, b := tcpPair(t)
	l := b.tcp.Attach(inet.AFInet6, nil)
	l.RcvBufMax = 1 << 20
	if err := l.Bind(inet.IP6{}, port); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.RcvBufMax = 1 << 20
	c.SndBufMax = 1 << 18
	if err := c.Connect(b.LinkLocal(0), port); err != nil {
		t.Fatal(err)
	}
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)
	return s, a, b, c, srv
}

// TestHeaderPredictionBulk streams bulk data through a pinned window —
// the traffic Van Jacobson header prediction was built for — and
// requires it intact and in order on the one segment path.
func TestHeaderPredictionBulk(t *testing.T) {
	s, _, b, c, srv := bigWindowPair(t, 9200)
	data := pattern(600_000)
	got := s.transfer(c, srv, data, len(data), 1<<20)
	if !bytes.Equal(got, data) {
		t.Fatal("bulk data corrupted")
	}
	if b.tcp.Stats.RcvOutOfOrder.Get() != 0 {
		t.Fatal("lossless link produced out-of-order segments")
	}
}

func TestAckEveryOtherSegment(t *testing.T) {
	s, _, b, c, srv := bigWindowPair(t, 9201)
	data := pattern(300_000)
	got := s.transfer(c, srv, data, len(data), 1<<20)
	if !bytes.Equal(got, data) {
		t.Fatal("bulk data corrupted")
	}
	// Delayed ACK must roughly halve the receiver's packet count: one
	// ACK per two data segments, plus handshake and timer flushes.
	rcvd := b.tcp.Stats.RcvPack.Get()
	sent := b.tcp.Stats.SndPack.Get()
	if 3*sent > 2*rcvd {
		t.Fatalf("receiver sent %d packets for %d received; delayed ACK not thinning the stream", sent, rcvd)
	}
}

func TestDelayedAckTimerFlush(t *testing.T) {
	s, _, b, c, srv := bigWindowPair(t, 9202)
	// A lone segment schedules a delayed ACK; with no second segment
	// to force it out, only the 200ms fast timer can flush it.
	s.sendAll(c, []byte("x"))
	if string(s.recvN(srv, 1)) != "x" {
		t.Fatal("payload")
	}
	s.Run(time.Second)
	if b.tcp.Stats.DelAcks.Get() == 0 {
		t.Fatal("delayed ACK never flushed by the fast timer")
	}
}

// segmentTrace runs a fixed workload — forward bulk through a pinned
// window, reverse trickle into a small window (window updates), then
// an orderly close — and returns every frame that crossed the hub,
// formatted "%x>%x %04x %x" (source MAC, destination MAC, ethertype,
// payload). The simulation is deterministic, so the trace is a
// function of the TCP code alone.
func segmentTrace(t *testing.T) []string {
	t.Helper()
	s := newSim(t)
	hub := s.NewHub()
	a, b := s.node("a"), s.node("b")
	a.Join(hub, testnet.MacA, 1500, inet.IP4{}, 0)
	b.Join(hub, testnet.MacB, 1500, inet.IP4{}, 0)

	var trace []string
	hub.Capture = func(fr netif.Frame) {
		trace = append(trace, fmt.Sprintf("%x>%x %04x %x",
			fr.Src, fr.Dst, fr.EtherType, fr.Payload.Bytes()))
	}

	l := b.tcp.Attach(inet.AFInet6, nil)
	l.RcvBufMax = 1 << 20
	if err := l.Bind(inet.IP6{}, 9300); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	c := a.tcp.Attach(inet.AFInet6, nil)
	c.RcvBufMax = 4096
	if err := c.Connect(b.LinkLocal(0), 9300); err != nil {
		t.Fatal(err)
	}
	s.waitState(c, tcp.StateEstablished)
	srv := s.acceptOne(l)

	data := pattern(150_000)
	if !bytes.Equal(s.transfer(c, srv, data, len(data), 1<<20), data) {
		t.Fatal("forward bulk corrupted")
	}
	back := pattern(20_000)
	if !bytes.Equal(s.transfer(srv, c, back, len(back), 512), back) {
		t.Fatal("reverse trickle corrupted")
	}
	c.Close()
	srv.Close()
	s.waitState(c, tcp.StateClosed)
	s.waitState(srv, tcp.StateClosed)
	s.Run(time.Second)
	return trace
}

// TestGoldenTraceSegments pins segmentTrace's wire byte for byte. The
// hash was recorded when segment input still carried Van Jacobson
// header prediction (taken on most of the bulk data and some of its
// ACKs) and output built pure ACKs from a patched template, so it
// proves the one segment path puts the same frames on the wire in the
// same order.
func TestGoldenTraceSegments(t *testing.T) {
	const (
		frames = 243
		sum    = "4fa899321a2d0a79e143f1ff89ae59e40ae226f6efa46b5c2691058658e1b29a"
	)
	trace := segmentTrace(t)
	h := sha256.Sum256([]byte(strings.Join(trace, "\n")))
	if len(trace) != frames || hex.EncodeToString(h[:]) != sum {
		t.Fatalf("trace: %d frames, sha256 %x; want %d frames, %s", len(trace), h, frames, sum)
	}
}

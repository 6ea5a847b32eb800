package core

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipv6"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/proto"
	"bsd6/internal/vclock"
)

// countingClock is a virtual clock that also keeps the runnable count
// it is given, so a test can read it.
type countingClock struct {
	*vclock.Virtual
	runnable atomic.Int64
}

func (c *countingClock) Runnable(delta int) {
	c.runnable.Add(int64(delta))
	c.Virtual.Runnable(delta)
}

// queueProto is the test's transport protocol number: frames carrying
// it reach the recorder the test registers on the IPv6 layer.
const queueProto = 253

// queueFrame is a loopback IPv6 datagram to queueProto whose payload
// names its producer and sequence number.
func queueFrame(producer byte, seq uint32) netif.Frame {
	h := ipv6.Header{PayloadLen: 5, NextHdr: queueProto, HopLimit: 64, Src: inet.IP6Loopback, Dst: inet.IP6Loopback}
	b := h.Marshal(nil)
	b = append(b, producer)
	b = binary.BigEndian.AppendUint32(b, seq)
	return netif.Frame{EtherType: netif.EtherTypeIPv6, Payload: mbuf.New(b)}
}

// waitUntil polls cond on the wall clock; the stack's timers wait on
// a virtual clock nobody advances, so nothing needs it to move.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestNetisrQueueHandoff drives the netisr's queue protocol: producers
// append under the queue lock and wake the netisr only when it has
// parked, and the netisr swaps the whole queue out and dispatches it
// in chunks.  Every frame must be dispatched exactly once and in its
// producer's order, the pending and runnable counts must settle to
// zero, the frame past the 512 slots must be dropped, and Close with
// frames queued must free them all.
func TestNetisrQueueHandoff(t *testing.T) {
	base := mbuf.Outstanding()
	clk := &countingClock{Virtual: vclock.NewVirtual(time.Unix(1_000_000, 0))}
	s := NewStack("q", Options{Clock: clk})
	defer s.Close()

	const producers, perProducer, window = 4, 3000, 64
	var (
		next    [producers]atomic.Uint32 // next sequence number expected
		misses  atomic.Int64             // frames out of order or repeated
		hold    = make(chan struct{})    // a frame from producer 0xff parks the netisr here
		entered = make(chan struct{}, 1)
	)
	s.V6.Register(queueProto, func(pkt *mbuf.Mbuf, _ proto.Meta) {
		b := pkt.Bytes()
		p, seq := b[0], binary.BigEndian.Uint32(b[1:])
		pkt.Free()
		if p == 0xff {
			entered <- struct{}{}
			<-hold
			return
		}
		if next[p].Load() != seq {
			misses.Add(1)
		}
		next[p].Store(seq + 1)
	}, nil)

	// Each producer keeps at most window frames in flight, so the
	// queue never fills, and yields now and then, so the netisr
	// catches up, parks and is woken again.
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p byte) {
			defer wg.Done()
			for seq := uint32(0); seq < perProducer; seq++ {
				for seq-next[p].Load() >= window {
					runtime.Gosched()
				}
				s.Lo.Deliver(queueFrame(p, seq))
				if seq%97 == 0 {
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(byte(p))
	}
	wg.Wait()
	waitUntil(t, "the netisr to dispatch every frame", func() bool { return s.Pending() == 0 })
	for p := range next {
		if got := next[p].Load(); got != perProducer {
			t.Errorf("producer %d: %d frames dispatched, want %d", p, got, perProducer)
		}
	}
	if n := misses.Load(); n != 0 {
		t.Errorf("%d frames dispatched out of their producer's order or twice", n)
	}
	if n := clk.runnable.Load(); n != 0 {
		t.Errorf("clock runnable count %d after the queue drained, want 0", n)
	}
	snap := s.Snapshot().Netisr
	if snap.Frames != producers*perProducer {
		t.Errorf("netisr counted %d frames, want %d", snap.Frames, producers*perProducer)
	}
	if snap.Wakeups < 2 || snap.Wakeups > snap.Frames {
		t.Errorf("%d wakeups for %d frames: the netisr never parked and woke, or woke without work", snap.Wakeups, snap.Frames)
	}
	if s.InqDrops.Get() != 0 {
		t.Fatalf("%d frames dropped with the queue never full", s.InqDrops.Get())
	}

	// Park the netisr inside a dispatch: the queue then fills behind
	// it, and its 513th frame is dropped.
	s.Lo.Deliver(queueFrame(0xff, 0))
	<-entered
	for seq := uint32(0); seq <= inputQueueLen; seq++ {
		s.Lo.Deliver(queueFrame(0, perProducer+seq))
	}
	if n := s.InqDrops.Get(); n != 1 {
		t.Errorf("InqDrops = %d after queueing %d frames behind a parked netisr, want 1", n, inputQueueLen+1)
	}
	if d := s.InqDepths()[0]; d != inputQueueLen {
		t.Errorf("queue depth %d, want %d", d, inputQueueLen)
	}
	hold <- struct{}{}
	waitUntil(t, "the full queue to drain", func() bool { return s.Pending() == 0 })
	if got := next[0].Load(); got != perProducer+inputQueueLen {
		t.Errorf("producer 0 reached sequence %d, want %d", got, perProducer+inputQueueLen)
	}

	// Close while frames wait behind a parked netisr: once Close has
	// begun, the netisr leaves after its pass and Close frees the
	// queue.
	s.Lo.Deliver(queueFrame(0xff, 0))
	<-entered
	for seq := uint32(0); seq < 100; seq++ {
		s.Lo.Deliver(queueFrame(1, perProducer+seq))
	}
	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	<-s.stop
	hold <- struct{}{}
	<-closed
	if got := next[1].Load(); got != perProducer {
		t.Errorf("the netisr dispatched %d frames after Close began", got-perProducer)
	}
	if n := s.Pending(); n != 0 {
		t.Errorf("Close left %d frames pending", n)
	}
	if n := clk.runnable.Load(); n != 0 {
		t.Errorf("clock runnable count %d after Close, want 0", n)
	}
	if n := mbuf.Outstanding() - base; n != 0 {
		t.Errorf("%d bytes of mbufs outstanding after Close, want 0", n)
	}
}

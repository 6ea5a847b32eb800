package key

import (
	"testing"
	"time"

	"bsd6/internal/inet"
)

func TestReplayWindowBasics(t *testing.T) {
	var r Replay
	if r.Check(0) || r.Update(0) {
		t.Fatal("sequence 0 accepted")
	}
	for seq := uint64(1); seq <= 10; seq++ {
		if !r.Check(seq) || !r.Update(seq) {
			t.Fatalf("in-order seq %d rejected", seq)
		}
	}
	// Exact replays of anything seen are rejected.
	for seq := uint64(1); seq <= 10; seq++ {
		if r.Check(seq) {
			t.Fatalf("replayed seq %d accepted", seq)
		}
	}
	if r.Top() != 10 {
		t.Fatalf("top = %d", r.Top())
	}
}

func TestReplayWindowReorder(t *testing.T) {
	var r Replay
	// Arrive out of order within the window: 5, 3, 4, 1, 2.
	for _, seq := range []uint64{5, 3, 4, 1, 2} {
		if !r.Update(seq) {
			t.Fatalf("reordered seq %d rejected", seq)
		}
	}
	for _, seq := range []uint64{5, 3, 4, 1, 2} {
		if r.Update(seq) {
			t.Fatalf("replay of reordered seq %d accepted", seq)
		}
	}
}

func TestReplayWindowSlide(t *testing.T) {
	var r Replay
	if !r.Update(1) {
		t.Fatal("seq 1")
	}
	// Jump far ahead: everything at or below top-64 falls off the edge.
	if !r.Update(1000) {
		t.Fatal("jump rejected")
	}
	if r.Check(1) {
		t.Fatal("ancient sequence accepted after slide")
	}
	if !r.Update(1000 - ReplayWindowSize + 1) {
		t.Fatal("oldest in-window sequence rejected")
	}
	if r.Check(1000 - ReplayWindowSize) {
		t.Fatal("just-outside-window sequence accepted")
	}
	// A partial slide keeps recent history.
	if !r.Update(1010) {
		t.Fatal("partial slide")
	}
	if r.Check(1000) {
		t.Fatal("seen sequence accepted after partial slide")
	}
	if !r.Update(1001) {
		t.Fatal("unseen in-window sequence rejected after partial slide")
	}
}

// FuzzReplayWindow feeds arbitrary sequence streams and checks the
// invariant that matters: no sequence number is ever accepted twice.
func FuzzReplayWindow(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 1, 2})
	f.Add([]byte{200, 1, 200, 255, 0, 255})
	f.Add([]byte{64, 1, 65, 2, 128, 64})
	f.Fuzz(func(t *testing.T, stream []byte) {
		var r Replay
		accepted := make(map[uint64]bool)
		for i, b := range stream {
			// Derive a sequence that can both creep and jump.
			seq := uint64(b) + uint64(i/4)*32
			ok := r.Update(seq)
			if ok && accepted[seq] {
				t.Fatalf("sequence %d accepted twice", seq)
			}
			if ok {
				accepted[seq] = true
			}
			if seq != 0 && seq == r.Top() && !accepted[seq] {
				t.Fatalf("top %d not marked accepted", seq)
			}
		}
	})
}

func churnEngine() *Engine {
	now := time.Unix(1000, 0)
	e := NewEngine()
	e.Now = func() time.Time { return now }
	return e
}

func lookupSA(spi uint32, dst inet.IP6, p SecProto) *SA {
	return &SA{
		SPI: spi, Dst: dst, Proto: p,
		AuthAlg: "keyed-md5", AuthKey: []byte("0123456789abcdef"),
	}
}

func TestLookupSPIClassification(t *testing.T) {
	e := churnEngine()
	dst := ip6(t, "2001:db8::2")
	sa := lookupSA(0x100, dst, ProtoAH)
	if err := e.Add(sa); err != nil {
		t.Fatal(err)
	}

	if got, res := e.LookupSPI(0x100, dst, ProtoAH); got == nil || res != SPIHit {
		t.Fatalf("hit: %v %v", got, res)
	}
	if got, res := e.LookupSPI(0x999, dst, ProtoAH); got != nil || res != SPIMiss {
		t.Fatalf("miss: %v %v", got, res)
	}

	// Delete and look up again: the recently-deleted ring classifies
	// this as stale (a peer still sending on a torn-down SA), not a
	// cold miss.
	if err := e.Delete(0x100, dst, ProtoAH); err != nil {
		t.Fatal(err)
	}
	if got, res := e.LookupSPI(0x100, dst, ProtoAH); got != nil || res != SPIStale {
		t.Fatalf("stale: %v %v", got, res)
	}

	// An expired SA still present in the table classifies as expired.
	exp := lookupSA(0x200, dst, ProtoAH)
	exp.HardLife = time.Second
	if err := e.Add(exp); err != nil {
		t.Fatal(err)
	}
	exp.AddedAt = e.Now().Add(-2 * time.Second)
	if got, res := e.LookupSPI(0x200, dst, ProtoAH); got != nil || res != SPIExpired {
		t.Fatalf("expired: %v %v", got, res)
	}
}

// TestUpdateNeverHidesSPI: an in-place rekey (SADB_UPDATE) swaps the
// association object under a live SPI, and an inbound lookup racing
// the swap — it reads the index under the engine's read lock while
// Update holds the write lock — must find the old object or the new
// one, never neither.
func TestUpdateNeverHidesSPI(t *testing.T) {
	e := churnEngine()
	dst := ip6(t, "2001:db8::2")
	if err := e.Add(lookupSA(0x100, dst, ProtoAH)); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			e.Update(lookupSA(0x100, dst, ProtoAH))
		}
	}()
	misses := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if sa, _ := e.LookupSPI(0x100, dst, ProtoAH); sa == nil {
			misses++
		}
	}
	if misses != 0 {
		t.Fatalf("%d lookups missed a live SPI during rekeys", misses)
	}
}

func TestGenerationBumpsOnMutation(t *testing.T) {
	e := churnEngine()
	dst := ip6(t, "2001:db8::2")
	g0 := e.Gen()
	if err := e.Add(lookupSA(0x1, dst, ProtoAH)); err != nil {
		t.Fatal(err)
	}
	g1 := e.Gen()
	if g1 == g0 {
		t.Fatal("Add did not bump the generation")
	}
	if err := e.Delete(0x1, dst, ProtoAH); err != nil {
		t.Fatal(err)
	}
	if e.Gen() == g1 {
		t.Fatal("Delete did not bump the generation")
	}
	g2 := e.Gen()
	e.Flush()
	if e.Gen() == g2 {
		t.Fatal("Flush did not bump the generation")
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	e := churnEngine()
	src := ip6(t, "2001:db8::1")
	dst := ip6(t, "2001:db8::2")
	var c Cache

	gen := e.Gen()
	c.Fill(e, gen, src, dst, time.Time{}, "verdict-1")
	if v, ok := c.Get(e, src, dst); !ok || v != "verdict-1" {
		t.Fatalf("fresh entry: %v %v", v, ok)
	}
	// A different endpoint misses.
	if _, ok := c.Get(e, dst, src); ok {
		t.Fatal("endpoint mismatch hit")
	}
	// Any table mutation invalidates with one generation compare.
	if err := e.Add(lookupSA(0x1, dst, ProtoESPTransport)); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(e, src, dst); ok {
		t.Fatal("stale entry survived a generation bump")
	}

	// A gen sampled before a racing mutation fills an already-stale
	// entry: it must read as a miss, never wrongly fresh.
	gen = e.Gen()
	if err := e.Delete(0x1, dst, ProtoESPTransport); err != nil {
		t.Fatal(err)
	}
	c.Fill(e, gen, src, dst, time.Time{}, "verdict-2")
	if _, ok := c.Get(e, src, dst); ok {
		t.Fatal("racing fill read back as fresh")
	}

	// Deadline expiry invalidates too.
	c.Fill(e, e.Gen(), src, dst, e.Now().Add(-time.Second), "verdict-3")
	if _, ok := c.Get(e, src, dst); ok {
		t.Fatal("expired entry read back as fresh")
	}
	c.Fill(e, e.Gen(), src, dst, e.Now().Add(time.Hour), "verdict-4")
	if v, ok := c.Get(e, src, dst); !ok || v != "verdict-4" {
		t.Fatalf("deadlined entry: %v %v", v, ok)
	}
	c.Invalidate()
	if _, ok := c.Get(e, src, dst); ok {
		t.Fatal("invalidated entry read back")
	}
}

// TestLookupSPIZeroAlloc pins the inbound demux promise: resolving an
// SPI against a 100k-association table allocates nothing.
func TestLookupSPIZeroAlloc(t *testing.T) {
	e := churnEngine()
	dst := ip6(t, "2001:db8::2")
	const n = 100_000
	for i := 0; i < n; i++ {
		if err := e.Add(lookupSA(uint32(i+1), dst, ProtoAH)); err != nil {
			t.Fatal(err)
		}
	}
	spi := uint32(1)
	allocs := testing.AllocsPerRun(1000, func() {
		sa, res := e.LookupSPI(spi, dst, ProtoAH)
		if sa == nil || res != SPIHit {
			t.Fatalf("lookup failed for SPI %d", spi)
		}
		spi = spi%n + 1
	})
	if allocs != 0 {
		t.Fatalf("LookupSPI allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkLookupSPI100k(b *testing.B) {
	e := NewEngine()
	dst := inet.IP6{0x20, 0x01, 0x0d, 0xb8, 15: 2}
	const n = 100_000
	for i := 0; i < n; i++ {
		sa := &SA{SPI: uint32(i + 1), Dst: dst, Proto: ProtoAH,
			AuthAlg: "keyed-md5", AuthKey: []byte("0123456789abcdef")}
		if err := e.Add(sa); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		spi := uint32(1)
		for pb.Next() {
			if sa, _ := e.LookupSPI(spi, dst, ProtoAH); sa == nil {
				b.Fatal("miss")
			}
			spi = spi%n + 1
		}
	})
}

func BenchmarkCacheHit(b *testing.B) {
	e := NewEngine()
	src := inet.IP6{0x20, 0x01, 15: 1}
	dst := inet.IP6{0x20, 0x01, 15: 2}
	var c Cache
	c.Fill(e, e.Gen(), src, dst, time.Time{}, "verdict")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(e, src, dst); !ok {
			b.Fatal("miss")
		}
	}
}

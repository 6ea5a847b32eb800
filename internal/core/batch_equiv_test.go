package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/netif"
	"bsd6/internal/testnet"
)

// The batched datapath — burst netisr dequeue and the GRO coalescer
// ahead of TCP input — is sold as wire-transparent: an observer
// sniffing the link must not be able to tell whether either endpoint
// batches.  These tests hold it to that literally, comparing full hub
// traces frame by frame.
//
// Determinism notes.  Both runs ride the virtual clock, whose timers
// fire in (deadline, creation order), and the hub serializes captures
// under its lock.  Two choices keep application scheduling out of the
// wire image: a small fixed link latency turns every exchange into a
// clock-gated lockstep (so capture order is the timer order, not the
// goroutine race), and receive buffers far larger than the 64KB
// window cap pin the advertised window at 65535 no matter when the
// reader goroutine drains — the one header field that would otherwise
// leak scheduling into the trace.

// batchStreamTotal is sized to outlast slow start (so full GRO trains
// form) while staying far below the receive buffer, keeping the
// advertised window pinned.
const batchStreamTotal = 256 << 10

func batchStreamBody() []byte {
	b := make([]byte, batchStreamTotal)
	for i := range b {
		b[i] = byte(i*7 + i>>9 + 13)
	}
	return b
}

// runBatchStream brings up two stacks on one captured hub, streams
// batchStreamTotal bytes client→server, and returns the full wire
// trace (every frame: MACs, ethertype, payload bytes) plus the
// client's and server's final snapshots.  newStack builds both
// stacks: core.NewStack or core.NewUnbatchedStack.  The trace is cut
// at a marker scheduled at an absolute virtual instant before the
// clock starts, so both runs of a comparison observe exactly the same
// window of simulated time — trailing delayed ACKs and retransmissions
// included.
func runBatchStream(t *testing.T, newStack func(string, core.Options) *core.Stack, faults netif.Faults, seed int64, horizon time.Duration) ([]string, core.Snapshot, core.Snapshot) {
	t.Helper()
	e := newEnv(t)
	hub := e.hub()

	var mu sync.Mutex
	var trace []string
	hub.Capture = func(fr netif.Frame) {
		line := fmt.Sprintf("%s>%s %04x %x", fr.Src, fr.Dst, fr.EtherType, fr.Payload.Bytes())
		mu.Lock()
		trace = append(trace, line)
		mu.Unlock()
	}
	hub.SetFaults(faults)
	hub.SetSeed(seed)

	mk := func(name string) *core.Stack {
		s := newStack(name, core.Options{Clock: e.clock})
		t.Cleanup(s.Close)
		return s
	}
	cli := mk("cli")
	srv := mk("srv")
	cli.AttachLink(hub, testnet.MacA, 1500)
	srv.AttachLink(hub, testnet.MacB, 1500)

	l, err := srv.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	l.SetBuffers(1<<20, 1<<20)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 9009}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(1); err != nil {
		t.Fatal(err)
	}
	c, err := cli.NewSocket(inet.AFInet6, core.SockStream)
	if err != nil {
		t.Fatal(err)
	}
	c.SetBuffers(1<<20, 1<<20)

	// Absolute virtual markers, created before the driver starts so
	// both runs pin them to the same instants: traffic begins only
	// after autoconfiguration chatter (DAD, MLD) has gone quiet, and
	// the trace closes at the horizon.
	quiet := testnet.NewSignal(e.clock)
	e.clock.AfterFunc(10*time.Second, quiet.Fire)
	end := testnet.NewSignal(e.clock)
	e.clock.AfterFunc(horizon, end.Fire)
	e.start()

	body := batchStreamBody()
	var rcvd []byte
	serve := testnet.Spawn(e.clock, func() error {
		s, err := l.Accept(5 * time.Minute)
		if err != nil {
			return fmt.Errorf("accept: %w", err)
		}
		for len(rcvd) < batchStreamTotal {
			chunk, err := s.Recv(1<<16, 5*time.Minute)
			if err != nil {
				return fmt.Errorf("recv at %d: %w", len(rcvd), err)
			}
			rcvd = append(rcvd, chunk...)
		}
		return nil
	})

	quiet.Wait()
	if err := c.Connect(core.Addr6(linkLocal(srv), 9009), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(body, 5*time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := serve(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rcvd, body) {
		t.Fatalf("stream corrupted: %d bytes received", len(rcvd))
	}
	end.Wait()

	mu.Lock()
	out := append([]string(nil), trace...)
	mu.Unlock()
	return out, cli.Snapshot(), srv.Snapshot()
}

// diffTraces fails the test at the first divergence between two wire
// traces, printing enough context to see what changed between the
// runs the label names ("X vs Y").
func diffTraces(t *testing.T, label string, x, y []string) {
	t.Helper()
	n := len(x)
	if len(y) < n {
		n = len(y)
	}
	for i := 0; i < n; i++ {
		if x[i] != y[i] {
			t.Fatalf("%s: traces diverge at frame %d:\n  first:  %.120s\n  second: %.120s",
				label, i, x[i], y[i])
		}
	}
	if len(x) != len(y) {
		extra, who := y, "second"
		if len(x) > len(y) {
			extra, who = x, "first"
		}
		t.Fatalf("%s: the %s run sent %d extra frames, first: %.120s",
			label, who, len(extra)-n, extra[n])
	}
}

// TestBatchingWireEquivalence streams a quarter megabyte through the
// default (batched) configuration and through a stack with burst
// dequeue and GRO disabled, and requires the two wire traces to be
// byte-identical, frame for frame.  Poisoned mbufs make any
// freed-buffer reuse in the coalescer corrupt a frame and fail the
// comparison.  The batched run is repeated with the same seed, and
// must replay the same wire: the driven clock's accounting keeps
// goroutine scheduling from leaking into it.
func TestBatchingWireEquivalence(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)

	lockstep := netif.Faults{Latency: 2 * time.Millisecond}
	off, _, _ := runBatchStream(t, core.NewUnbatchedStack, lockstep, 1, 30*time.Second)
	on, _, srvSnap := runBatchStream(t, core.NewStack, lockstep, 1, 30*time.Second)
	diffTraces(t, "clean link, batching off vs on", off, on)
	again, _, _ := runBatchStream(t, core.NewStack, lockstep, 1, 30*time.Second)
	diffTraces(t, "clean link, batched run vs its replay", on, again)

	// The identical wire must have been produced *by* the batched
	// machinery, or the test proves nothing: the receiver must have
	// coalesced.
	if n := srvSnap.TCP["GROCoalesced"]; n == 0 {
		t.Error("batched receiver coalesced no segments")
	}
	if n := srvSnap.TCP["GROFlushes"]; n == 0 {
		t.Error("batched receiver flushed no multi-segment trains")
	}
}

// TestBatchingWireEquivalenceHostileLink repeats the comparison over
// a link that loses one frame in fifty: seq gaps force GRO flushes,
// and every recovery frame must still match the unbatched stack's, in
// order.  The fault RNG is reseeded identically for both runs, and
// loss draws happen in transmit order, which the lockstep latency
// makes the timer order — so both runs lose the same frames, and a
// replay of the batched run loses them again.
func TestBatchingWireEquivalenceHostileLink(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)

	hostile := netif.Faults{Latency: 2 * time.Millisecond, Loss: 0.02}
	off, _, _ := runBatchStream(t, core.NewUnbatchedStack, hostile, 42, 2*time.Minute)
	on, cliSnap, _ := runBatchStream(t, core.NewStack, hostile, 42, 2*time.Minute)
	diffTraces(t, "hostile link, batching off vs on", off, on)
	again, _, _ := runBatchStream(t, core.NewStack, hostile, 42, 2*time.Minute)
	diffTraces(t, "hostile link, batched run vs its replay", on, again)

	if cliSnap.TCP["SndRexmit"] == 0 {
		t.Error("hostile link induced no retransmissions; loss model inert")
	}
}

// The golden traces pin the default configuration's wire image for
// runBatchStream byte for byte: frame count and the SHA-256 of the
// frames joined with newlines. They were recorded while TCP input still
// carried Van Jacobson header prediction, output still built pure ACKs
// from a patched template and IPv6 output still built GSO
// super-segments for the link to split; the one segment path must
// reproduce them exactly.
func checkGoldenTrace(t *testing.T, trace []string, frames int, sum string) {
	t.Helper()
	h := sha256.Sum256([]byte(strings.Join(trace, "\n")))
	if len(trace) != frames || hex.EncodeToString(h[:]) != sum {
		t.Fatalf("trace: %d frames, sha256 %x; want %d frames, %s", len(trace), h, frames, sum)
	}
}

// TestGoldenTraceBatchStream pins the clean-link batched stream.
func TestGoldenTraceBatchStream(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	trace, _, _ := runBatchStream(t, core.NewStack,
		netif.Faults{Latency: 2 * time.Millisecond}, 1, 30*time.Second)
	checkGoldenTrace(t, trace, 294, "50afd611cf3bf4cf998cc8cdbe40a1ad0bd1c9a7ee5439063a39cd874fa497a9")
}

// TestGoldenTraceBatchStreamHostileLink pins the batched stream over a
// link losing one frame in fifty: retransmissions, duplicate ACKs and
// reassembly all appear in the trace.
func TestGoldenTraceBatchStreamHostileLink(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	trace, _, _ := runBatchStream(t, core.NewStack,
		netif.Faults{Latency: 2 * time.Millisecond, Loss: 0.02}, 42, 2*time.Minute)
	checkGoldenTrace(t, trace, 313, "cef40b9817b198136477668deb485fd9388cb23e3f379ea4ec8590969462841f")
}

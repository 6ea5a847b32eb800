package core_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/route"
	"bsd6/internal/testnet"
)

// fastPathWorld is a four-node world for datapath equivalence checks:
// three senders, each a distinct flow, and one receiver whose single
// netisr FIFO all of their frames share.
type fastPathWorld struct {
	senders []*core.Stack
	rcv     *core.Stack
}

func newFastPathWorld(t *testing.T) *fastPathWorld {
	t.Helper()
	e := newEnv(t)
	hub := e.hub()
	w := &fastPathWorld{}
	mk := func(name string) *core.Stack {
		s := core.NewStack(name, core.Options{Clock: e.clock})
		e.t.Cleanup(s.Close)
		return s
	}
	macs := []inet.LinkAddr{testnet.MacA, testnet.MacC, testnet.MacS}
	for i, mac := range macs {
		s := mk(fmt.Sprintf("snd%d", i))
		s.AttachLink(hub, mac, 1500)
		w.senders = append(w.senders, s)
	}
	w.rcv = mk("rcv")
	w.rcv.AttachLink(hub, testnet.MacB, 1500)
	e.start()
	return w
}

// fastPathPayload is a recognizable deterministic body: sender tag,
// sequence number, then a rolling pattern. A use-after-free or a
// cross-flow mixup shows up as a byte mismatch.
func fastPathPayload(sender, seq, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(sender*89 + seq*31 + i)
	}
	return b
}

// fastPathSizes is the per-sender datagram sequence. Sizes above the
// 1500-byte MTU fragment on output and reassemble at the receiver.
var fastPathSizes = []int{9, 700, 1400, 52, 2800, 4000}

// fastPathDatagram is one delivered datagram and the sender it came
// from.
type fastPathDatagram struct {
	sender int
	data   []byte
}

// runFastPathTraffic drives the same deterministic traffic mix through
// a world and returns the delivered datagrams in arrival order.
func runFastPathTraffic(t *testing.T, w *fastPathWorld) []fastPathDatagram {
	t.Helper()
	const port = 7
	srv, err := w.rcv.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: port}); err != nil {
		t.Fatal(err)
	}
	dst := linkLocal(w.rcv)

	clis := make([]*core.Socket, len(w.senders))
	srcOf := map[inet.IP6]int{}
	for i, s := range w.senders {
		c, err := s.NewSocket(inet.AFInet6, core.SockDgram)
		if err != nil {
			t.Fatal(err)
		}
		clis[i] = c
		srcOf[linkLocal(s)] = i
	}

	// Warm-up round: the first datagram to a new neighbor rides the ND
	// resolution; receive one per sender so every neighbor cache is
	// settled before the measured sequences go out.
	for _, c := range clis {
		if err := c.SendTo([]byte("warm"), core.Addr6(dst, port)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < len(clis); i++ {
		if _, _, err := srv.RecvFrom(64, 2*time.Second); err != nil {
			t.Fatalf("warm-up recv %d: %v", i, err)
		}
	}

	// Interleave the sequences round-robin so frames from different
	// flows are adjacent in the shared hub.
	for seq, size := range fastPathSizes {
		for i, c := range clis {
			if err := c.SendTo(fastPathPayload(i, seq, size), core.Addr6(dst, port)); err != nil {
				t.Fatal(err)
			}
		}
	}

	total := len(fastPathSizes) * len(clis)
	got := make([]fastPathDatagram, 0, total)
	for n := 0; n < total; n++ {
		data, from, err := srv.RecvFrom(65536, 2*time.Second)
		if err != nil {
			t.Fatalf("recv %d/%d: %v", n, total, err)
		}
		i, ok := srcOf[from.Addr]
		if !ok {
			t.Fatalf("datagram from unknown source %v", from.Addr)
		}
		got = append(got, fastPathDatagram{i, data})
	}
	return got
}

// TestFastPathEquivalence checks that the pooled datapath delivers
// byte-identical datagrams in exactly the round-robin order the
// senders put them on the hub: every frame shares the receiver's one
// netisr FIFO, so arrival order holds across flows, not only within
// each. Mbuf poisoning is enabled so a freed-buffer reuse anywhere on
// the path corrupts a payload and fails the comparison.
func TestFastPathEquivalence(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)

	w := newFastPathWorld(t)
	got := runFastPathTraffic(t, w)
	n := len(w.senders)
	for k, d := range got {
		sender, seq := k%n, k/n
		if d.sender != sender {
			t.Fatalf("datagram %d: from sender %d, want sender %d seq %d",
				k, d.sender, sender, seq)
		}
		want := fastPathPayload(sender, seq, fastPathSizes[seq])
		if !bytes.Equal(d.data, want) {
			t.Fatalf("sender %d datagram %d: payload mismatch (len %d vs %d)",
				sender, seq, len(d.data), len(want))
		}
	}
}

// TestRouteChurnDuringCachedSends hammers route table generation bumps
// against senders that go through the PCB route cache. Every Add and
// Delete invalidates cached routes, so each send revalidates and
// refills its cache while the table mutates underneath — the scenario
// the generation counter exists for. Run under -race this doubles as
// the locking check for Table, Cache and the radix tree.
func TestRouteChurnDuringCachedSends(t *testing.T) {
	a, b, _ := stackPair(t)
	const port, n, senders = 7, 150, 2

	srv, err := b.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: port}); err != nil {
		t.Fatal(err)
	}
	dst := linkLocal(b)
	ifName := a.Interfaces()[0].Name

	// Settle ND once so churn-time sends never race neighbor discovery.
	warm, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := warm.SendTo([]byte("warm"), core.Addr6(dst, port)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.RecvFrom(64, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		prefix := inet.IP6{0: 0x20, 1: 0x01, 2: 0x0d, 3: 0xb8}
		gw := dst
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			a.RT.Add(&route.Entry{
				Family: inet.AFInet6, Dst: prefix[:], Plen: 32,
				Flags:   route.FlagUp | route.FlagGateway | route.FlagStatic,
				Gateway: gw, IfName: ifName,
			})
			a.RT.Delete(inet.AFInet6, prefix[:], 32)
		}
	}()

	var snd sync.WaitGroup
	sendErr := make([]error, senders)
	for s := 0; s < senders; s++ {
		cli, err := a.NewSocket(inet.AFInet6, core.SockDgram)
		if err != nil {
			t.Fatal(err)
		}
		snd.Add(1)
		go func(s int, cli *core.Socket) {
			defer snd.Done()
			for i := 0; i < n; i++ {
				msg := []byte(fmt.Sprintf("s%d-%04d", s, i))
				if err := cli.SendTo(msg, core.Addr6(dst, port)); err != nil {
					sendErr[s] = fmt.Errorf("send %d: %w", i, err)
					return
				}
			}
		}(s, cli)
	}
	snd.Wait()
	close(stopChurn)
	churn.Wait()
	for s, err := range sendErr {
		if err != nil {
			t.Fatalf("sender %d: %v", s, err)
		}
	}

	// Every datagram must arrive, each sender's in order: churn may
	// slow the path but must never lose or reorder within a flow.
	next := make([]int, senders)
	for i := 0; i < senders*n; i++ {
		data, _, err := srv.RecvFrom(64, 2*time.Second)
		if err != nil {
			t.Fatalf("recv %d/%d: %v", i, senders*n, err)
		}
		var s, seq int
		if _, err := fmt.Sscanf(string(data), "s%d-%d", &s, &seq); err != nil {
			t.Fatalf("bad payload %q", data)
		}
		if seq != next[s] {
			t.Fatalf("sender %d: got seq %d, want %d", s, seq, next[s])
		}
		next[s]++
	}
}

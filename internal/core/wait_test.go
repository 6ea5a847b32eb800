package core_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/netif"
	"bsd6/internal/testnet"
)

// realPair wires two stacks on the wall clock over one hub.
func realPair(t *testing.T) (a, b *core.Stack) {
	t.Helper()
	hub := netif.NewHub()
	a = core.NewStack("a", core.Options{})
	b = core.NewStack("b", core.Options{})
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	a.AttachLink(hub, testnet.MacA, 1500)
	b.AttachLink(hub, testnet.MacB, 1500)
	return a, b
}

// TestRealClockConnectCycles hammers the socket layer's one way to
// block on real goroutines with real parallelism: thousands of cycles
// of connect, accept, one request/response transaction and close on
// both ends, each call under a short wall-clock deadline.  A lost
// wakeup — an event landing between a caller's readiness check and
// its park — strands that call until its deadline, so any
// ErrTimeoutSock fails the test.  The window is a few instructions
// wide, hence the cycle count; run it under -race as well.
func TestRealClockConnectCycles(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	const deadline = 2 * time.Second
	cycles := 3000
	switch {
	case testing.Short():
		cycles = 300
	case raceEnabled: // ~10x slower; the race detector needs fewer
		cycles = 1000
	}
	a, b := realPair(t)
	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	if err := l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7070}); err != nil {
		t.Fatal(err)
	}
	if err := l.Listen(8); err != nil {
		t.Fatal(err)
	}
	srvErr := make(chan error, 1)
	go func() {
		for i := 0; i < cycles; i++ {
			s, err := l.Accept(deadline)
			if err != nil {
				srvErr <- fmt.Errorf("accept %d: %w", i, err)
				return
			}
			req, err := s.Recv(64, deadline)
			if err == nil {
				_, err = s.Send(append(req, '!'), deadline)
			}
			s.Close()
			if err != nil {
				srvErr <- fmt.Errorf("transaction %d: %w", i, err)
				return
			}
		}
		srvErr <- nil
	}()

	dst := core.Addr6(linkLocal(b), 7070)
	buf := make([]byte, 64)
	for i := 0; i < cycles; i++ {
		c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
		if err := c.Connect(dst, deadline); err != nil {
			t.Fatalf("cycle %d: connect: %v", i, err)
		}
		if _, err := c.Send([]byte("ping"), deadline); err != nil {
			t.Fatalf("cycle %d: send: %v", i, err)
		}
		n, err := c.ReadInto(buf, deadline)
		if err != nil || string(buf[:n]) != "ping!" {
			t.Fatalf("cycle %d: reply %q, %v", i, buf[:n], err)
		}
		c.Close()
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
}

// TestDeadlineWaitAllocatesNothing pins the cost of blocking: a call
// that parks until its deadline reuses the socket's one deadline timer
// and allocates nothing, on the datagram and the stream path alike.
func TestDeadlineWaitAllocatesNothing(t *testing.T) {
	a, b := realPair(t)
	u, _ := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err := u.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7071}); err != nil {
		t.Fatal(err)
	}
	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7072})
	l.Listen(1)
	c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
	if err := c.Connect(core.Addr6(linkLocal(b), 7072), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for _, tc := range []struct {
		name string
		wait func() error
	}{
		{"RecvFrom", func() error { _, _, err := u.RecvFrom(64, time.Millisecond); return err }},
		{"ReadInto", func() error { _, err := c.ReadInto(buf, time.Millisecond); return err }},
	} {
		if err := tc.wait(); !errors.Is(err, core.ErrTimeoutSock) {
			t.Fatalf("%s: %v, want a timeout", tc.name, err) // also arms the timer
		}
		if allocs := testing.AllocsPerRun(20, func() { tc.wait() }); allocs != 0 {
			t.Errorf("%s: a parked deadline wait allocates %.1f objects, want 0", tc.name, allocs)
		}
	}
}

package core_test

import (
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
	"bsd6/internal/testnet"
	"bsd6/internal/vclock"
)

// TestCloseWithQueuedInput closes one stack of a driven virtual-clock
// world while frames still wait on its netisr queue.  The queued
// frames are counted runnable on the shared clock, so unless Close
// releases them the clock freezes and every other stack stalls with
// it; their slabs must go back to the pool too.
func TestCloseWithQueuedInput(t *testing.T) {
	base := mbuf.Outstanding()
	e := newEnv(t)
	hub := e.hub()
	a := e.stack("a")
	b := e.stack("b")
	// c's netisr dispatches one frame at a time, so everything sent to c
	// queues behind the frame its netisr is held on.
	c := core.NewUnbatchedStack("c", core.Options{Clock: e.clock})
	t.Cleanup(c.Close)
	a.AttachLink(hub, testnet.MacA, 1500)
	b.AttachLink(hub, testnet.MacB, 1500)
	c.AttachLink(hub, testnet.MacC, 1500)
	e.start()

	// Hold c's netisr inside its echo-reply upcall.  Until released,
	// the reply's frame stays pending, so the clock cannot move and
	// the test goroutine may block on plain channels.
	entered, release := make(chan struct{}), make(chan struct{})
	c.ICMP6.OnEcho = func(inet.IP6, uint16, uint16, []byte) {
		close(entered)
		<-release
	}
	if err := c.ICMP6.SendEcho(linkLocal(a), 1, 1, []byte("hold")); err != nil {
		t.Fatal(err)
	}
	<-entered

	const queued = 32
	tx, err := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < queued; i++ {
		if err := tx.SendTo([]byte("queued behind the held frame"), core.Addr6(linkLocal(c), 9)); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Pending(); n < 2 {
		t.Fatalf("c has %d frames pending, want the held one plus queued ones", n)
	}
	close(release)
	c.Close()
	if n := c.Pending(); n != 0 {
		t.Fatalf("Close left %d frames pending", n)
	}
	// A closed stack refuses input and frees it.
	if err := tx.SendTo([]byte("after close"), core.Addr6(linkLocal(c), 9)); err != nil {
		t.Fatal(err)
	}

	// The clock still advances...
	t0 := e.clock.Now()
	vclock.Sleep(e.clock, time.Second)
	if got := e.clock.Now().Sub(t0); got < time.Second {
		t.Fatalf("clock advanced %v during a 1s sleep", got)
	}
	// ...the other stacks' traffic completes...
	srv, err := b.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 7}); err != nil {
		t.Fatal(err)
	}
	if err := tx.SendTo([]byte("a to b"), core.Addr6(linkLocal(b), 7)); err != nil {
		t.Fatal(err)
	}
	if data, _, err := srv.RecvFrom(64, 2*time.Second); err != nil || string(data) != "a to b" {
		t.Fatalf("a->b after closing c: %q, %v", data, err)
	}
	// ...and every slab c held went back to the pool.
	testnet.WaitClock(t, e.clock, "mbuf pool back to its baseline", func() bool {
		return mbuf.Outstanding() == base
	})
}

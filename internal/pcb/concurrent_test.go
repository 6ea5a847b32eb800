package pcb

import (
	"sync"
	"sync/atomic"
	"testing"

	"bsd6/internal/inet"
)

// TestLookupConcurrentWithChurn runs the demux the way the stack does:
// UDP input and GRO call Lookup from the netisr without the owning
// protocol's lock, while sockets attach, bind, connect, disconnect and
// detach on the same port.  Every Lookup must see the table either
// before or after each mutation: the established connection always
// wins its own tuple, and an unknown peer always lands on the listener
// or on a churned PCB, never on nothing.  Run it under -race, where an
// unlocked read of the maps or of a PCB's tuple is a report.
func TestLookupConcurrentWithChurn(t *testing.T) {
	const (
		port    = 80
		rounds  = 2000
		readers = 2
	)
	tb := NewTable()
	local := mustIP6("2001:db8::1")
	other := mustIP6("2001:db8::9")
	peer := mustIP6("2001:db8::2")
	stranger := mustIP6("2001:db8::77")
	mapped := inet.V4Mapped(inet.IP4{10, 0, 0, 2})

	listener := tb.Attach(inet.AFInet6, "listener")
	if err := tb.Bind(listener, inet.IP6{}, port); err != nil {
		t.Fatal(err)
	}
	conn := tb.Attach(inet.AFInet6, "conn")
	tb.SetTuple(conn, local, port, peer, 1234)
	conn4 := tb.Attach(inet.AFInet6, "conn4")
	tb.SetTuple(conn4, inet.V4Mapped(inet.IP4{10, 0, 0, 1}), port, mapped, 1234)

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if tb.Lookup(local, port, peer, 1234, false) != conn {
					errs <- "connected tuple missed its PCB"
					return
				}
				if tb.Lookup(inet.V4Mapped(inet.IP4{10, 0, 0, 1}), port, mapped, 1234, true) != conn4 {
					errs <- "v4-mapped connected tuple missed its PCB"
					return
				}
				// A churned PCB bound to local may outscore the
				// listener for local's traffic, never for other's.
				if got := tb.Lookup(local, port, stranger, 999, false); got != listener && (got == nil || got.Socket != "churn") {
					errs <- "unknown peer at local missed the listener"
					return
				}
				if tb.Lookup(other, port, stranger, 999, false) != listener {
					errs <- "unknown peer at other missed the listener"
					return
				}
			}
		}()
	}

	for i := 0; i < rounds; i++ {
		p := tb.Attach(inet.AFInet6, "churn")
		if err := tb.Bind(p, local, port); err != ErrAddrInUse {
			t.Errorf("bind over the listener: %v, want ErrAddrInUse", err)
		}
		if err := tb.Bind(p, local, 0); err != nil {
			t.Error(err)
		}
		if err := tb.Connect(p, stranger, uint16(2000+i%1000)); err != nil {
			t.Error(err)
		}
		tb.SetTuple(p, local, port, stranger, uint16(2000+i%1000))
		tb.Disconnect(p)
		tb.Detach(p)
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if n := tb.Len(); n != 3 {
		t.Fatalf("table holds %d PCBs after churn, want 3", n)
	}
}

package vclock

import (
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2000, 1, 1, 0, 0, 0, 0, time.UTC)

func TestAdvanceFiresInOrder(t *testing.T) {
	v := NewVirtual(epoch)
	var got []int
	v.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	v.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	v.Advance(25 * time.Millisecond)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
	if v.Pending() != 1 {
		t.Fatalf("pending=%d, want 1", v.Pending())
	}
	v.Advance(10 * time.Millisecond)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
}

func TestSameDeadlineFIFO(t *testing.T) {
	v := NewVirtual(epoch)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		v.AfterFunc(time.Second, func() { got = append(got, i) })
	}
	v.Advance(time.Second)
	for i, g := range got {
		if g != i {
			t.Fatalf("order %v, want FIFO", got)
		}
	}
}

func TestNowPinnedToDeadline(t *testing.T) {
	v := NewVirtual(epoch)
	var at time.Time
	v.AfterFunc(time.Second, func() { at = v.Now() })
	v.Advance(time.Minute)
	if want := epoch.Add(time.Second); !at.Equal(want) {
		t.Fatalf("callback saw now=%v, want %v", at, want)
	}
	if want := epoch.Add(time.Minute); !v.Now().Equal(want) {
		t.Fatalf("now=%v, want %v", v.Now(), want)
	}
}

func TestCallbackSchedulesWithinWindow(t *testing.T) {
	// A callback that re-arms itself must keep firing within one
	// Advance window — this is how hub delivery chains and periodic
	// stack ticks work.
	v := NewVirtual(epoch)
	count := 0
	var rearm func()
	rearm = func() {
		count++
		if count < 5 {
			v.AfterFunc(10*time.Millisecond, rearm)
		}
	}
	v.AfterFunc(10*time.Millisecond, rearm)
	v.Advance(time.Second)
	if count != 5 {
		t.Fatalf("count=%d, want 5", count)
	}
}

func TestStop(t *testing.T) {
	v := NewVirtual(epoch)
	fired := false
	tm := v.AfterFunc(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("first Stop returned false")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	v.Advance(2 * time.Second)
	if fired {
		t.Fatal("stopped timer fired")
	}
}

func TestStep(t *testing.T) {
	v := NewVirtual(epoch)
	var got []int
	v.AfterFunc(time.Second, func() { got = append(got, 1) })
	v.AfterFunc(2*time.Second, func() { got = append(got, 2) })
	if !v.Step() {
		t.Fatal("Step found no timer")
	}
	if len(got) != 1 {
		t.Fatalf("fired %v, want [1]", got)
	}
	if !v.Now().Equal(epoch.Add(time.Second)) {
		t.Fatalf("now=%v, want epoch+1s", v.Now())
	}
	v.Step()
	if v.Step() {
		t.Fatal("Step fired with empty queue")
	}
	if len(got) != 2 {
		t.Fatalf("fired %v, want [1 2]", got)
	}
}

func TestAdvanceToPast(t *testing.T) {
	v := NewVirtual(epoch)
	v.Advance(time.Minute)
	v.AdvanceTo(epoch) // must not move time backwards
	if want := epoch.Add(time.Minute); !v.Now().Equal(want) {
		t.Fatalf("now=%v, want %v", v.Now(), want)
	}
}

func TestRealClock(t *testing.T) {
	c := Real()
	if c.Now().IsZero() {
		t.Fatal("real clock returned zero time")
	}
	done := make(chan struct{})
	tm := c.AfterFunc(time.Millisecond, func() { close(done) })
	<-done
	if tm.Stop() {
		t.Fatal("Stop returned true after firing")
	}
}

func TestReset(t *testing.T) {
	v := NewVirtual(epoch)
	n := 0
	tm := v.AfterFunc(time.Second, func() { n++ })
	if !tm.Reset(3 * time.Second) {
		t.Fatal("Reset of a pending timer returned false")
	}
	v.Advance(2 * time.Second)
	if n != 0 {
		t.Fatal("reset timer fired at its old deadline")
	}
	v.Advance(time.Second)
	if n != 1 {
		t.Fatalf("fired %d times at the new deadline, want 1", n)
	}
	if tm.Reset(time.Second) {
		t.Fatal("Reset of a fired timer returned true")
	}
	v.Advance(time.Second)
	if n != 2 {
		t.Fatal("re-armed timer did not fire")
	}
}

func TestRunnableNegativePanics(t *testing.T) {
	v := NewVirtual(epoch)
	defer func() {
		if recover() == nil {
			t.Fatal("parking an uncounted actor did not panic")
		}
	}()
	v.Runnable(-1)
}

// TestDriverAdvancesOnlyWhenIdle: the driver holds time still while any
// actor is runnable, and steps straight to the next deadline once
// every actor has parked.
func TestDriverAdvancesOnlyWhenIdle(t *testing.T) {
	v := NewVirtual(epoch)
	v.Runnable(1) // this goroutine
	d := NewDriver(v)
	d.Start()
	defer d.Stop()
	v.AfterFunc(time.Second, func() {})
	time.Sleep(10 * time.Millisecond) // wall clock: give a faulty driver rope
	if !v.Now().Equal(epoch) {
		t.Fatalf("driver moved time to %v while an actor was runnable", v.Now())
	}
	Sleep(v, 5*time.Second)
	if got := v.Now().Sub(epoch); got != 5*time.Second {
		t.Fatalf("woke at +%v, want +5s", got)
	}

	// A goroutine started with Go holds time until it parks, and its
	// own sleeps interleave with ours in deadline order.
	var order []string
	var mu sync.Mutex
	note := func(s string) { mu.Lock(); order = append(order, s); mu.Unlock() }
	Go(v, func() {
		Sleep(v, time.Second)
		note("child")
	})
	Sleep(v, 2*time.Second)
	note("parent")
	if len(order) != 2 || order[0] != "child" || order[1] != "parent" {
		t.Fatalf("wake order %v, want [child parent]", order)
	}
}

// Package vclock provides a pluggable clock for the stack's timers.
//
// Production code uses Real(), a thin wrapper over the time package.
// Tests use Virtual, a manually-advanced clock with a deterministic
// timer queue: timers scheduled for the same instant fire in the order
// they were created, and Advance runs every timer in the window on the
// caller's goroutine, so a whole simulated network settles with no
// wall-clock waiting and no scheduling races.
package vclock

import (
	"container/heap"
	"sync"
	"time"
)

// Timer is a handle to a pending callback, mirroring *time.Timer's
// AfterFunc form.
type Timer interface {
	// Stop cancels the timer; it reports whether the timer was still
	// pending (false when it already fired or was stopped).
	Stop() bool
	// Reset re-arms the timer to fire d from now (fired or not); it
	// reports whether the timer was still pending.
	Reset(d time.Duration) bool
}

// Clock abstracts "now" and one-shot callbacks. It is the only timing
// surface the stack needs: periodic work is re-armed from within the
// callback, as BSD's timeout() users do.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
	// Runnable adjusts the count of actors that can progress without
	// time moving: an actor subtracts itself as it parks, and whoever
	// wakes it, or hands work to an idle one, adds before signalling.
	// A Driver advances a Virtual clock only while the count is zero.
	Runnable(delta int)
}

// Go runs f on a goroutine counted runnable on c until f returns: how
// a goroutine that may block in the stack starts on a driven clock.
func Go(c Clock, f func()) {
	c.Runnable(1)
	go func() { defer c.Runnable(-1); f() }()
}

// Sleep parks the calling actor for d of c's time.
func Sleep(c Clock, d time.Duration) {
	woke := make(chan struct{})
	c.AfterFunc(d, func() { c.Runnable(1); close(woke) })
	c.Runnable(-1)
	<-woke
}

// ---------------------------------------------------------------------
// Real clock
// ---------------------------------------------------------------------

type realClock struct{}

type realTimer struct{ t *time.Timer }

func (rt realTimer) Stop() bool { return rt.t.Stop() }

func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }

func (realClock) Now() time.Time { return time.Now() }

func (realClock) AfterFunc(d time.Duration, f func()) Timer {
	return realTimer{time.AfterFunc(d, f)}
}

func (realClock) Runnable(int) {}

// Real returns the wall-clock implementation used in production.
func Real() Clock { return realClock{} }

// ---------------------------------------------------------------------
// Virtual clock
// ---------------------------------------------------------------------

// Virtual is a manually-advanced clock. Time only moves when Advance,
// AdvanceTo, or Step is called; due timers run synchronously on the
// advancing goroutine with Now() pinned to each timer's deadline, in
// (deadline, creation order) order. Callbacks may schedule new timers;
// those fire too if they land inside the window being advanced.
type Virtual struct {
	mu       sync.Mutex
	now      time.Time
	seq      uint64
	heap     timerHeap
	runnable int       // see Clock.Runnable
	idle     sync.Cond // a Driver waits here for runnable==0 and a timer
}

// NewVirtual returns a virtual clock starting at epoch. Any fixed
// epoch works; tests compare durations, not absolute dates.
func NewVirtual(epoch time.Time) *Virtual {
	v := &Virtual{now: epoch}
	v.idle.L = &v.mu
	return v
}

type vtimer struct {
	when  time.Time
	seq   uint64
	fn    func()
	clock *Virtual
	index int // heap index, -1 once fired or stopped
}

func (t *vtimer) Stop() bool {
	t.clock.mu.Lock()
	defer t.clock.mu.Unlock()
	return t.unlinkLocked()
}

func (t *vtimer) Reset(d time.Duration) bool {
	v := t.clock
	v.mu.Lock()
	defer v.mu.Unlock()
	pending := t.unlinkLocked()
	t.when, t.seq = v.now.Add(d), v.seq
	v.seq++
	v.pushLocked(t)
	return pending
}

func (t *vtimer) unlinkLocked() bool {
	if t.index < 0 {
		return false
	}
	heap.Remove(&t.clock.heap, t.index)
	t.index = -1
	return true
}

// Now returns the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// AfterFunc schedules f to run when the clock is advanced past d from
// now. Non-positive d fires at the current instant on the next
// advance (Advance(0) runs it).
func (v *Virtual) AfterFunc(d time.Duration, f func()) Timer {
	t := &vtimer{fn: f, clock: v, index: -1}
	t.Reset(d)
	return t
}

func (v *Virtual) pushLocked(t *vtimer) {
	heap.Push(&v.heap, t)
	if len(v.heap) == 1 {
		v.idle.Signal()
	}
}

// Runnable adjusts the count of runnable actors (see Clock). It panics
// if the count goes negative: an uncounted goroutine parked.
func (v *Virtual) Runnable(delta int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.runnable += delta
	switch {
	case v.runnable < 0:
		panic("vclock: runnable count went negative: an uncounted goroutine parked")
	case v.runnable == 0:
		v.idle.Signal()
	}
}

// Pending reports how many timers are scheduled.
func (v *Virtual) Pending() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.heap)
}

// Advance moves time forward by d, firing every timer whose deadline
// falls in the window (including ones scheduled by earlier callbacks
// within the same window). Callbacks run without the clock lock held.
func (v *Virtual) Advance(d time.Duration) {
	v.mu.Lock()
	v.advanceToLocked(v.now.Add(d))
}

// AdvanceTo moves time forward to t (no-op if t is in the past).
func (v *Virtual) AdvanceTo(t time.Time) {
	v.mu.Lock()
	v.advanceToLocked(t)
}

// Step advances time to the earliest pending deadline, firing every
// timer due then, and reports whether one fired.
func (v *Virtual) Step() bool {
	v.mu.Lock()
	if len(v.heap) == 0 {
		v.mu.Unlock()
		return false
	}
	v.advanceToLocked(v.heap[0].when)
	return true
}

// advanceToLocked is the advance engine. Called with mu held; returns
// with mu released.
func (v *Virtual) advanceToLocked(target time.Time) {
	for len(v.heap) > 0 && !v.heap[0].when.After(target) {
		t := heap.Pop(&v.heap).(*vtimer)
		t.index = -1
		if t.when.After(v.now) {
			v.now = t.when
		}
		fn := t.fn
		v.mu.Unlock()
		fn()
		v.mu.Lock()
	}
	if target.After(v.now) {
		v.now = target
	}
	v.mu.Unlock()
}

// ---------------------------------------------------------------------
// timer heap
// ---------------------------------------------------------------------

type timerHeap []*vtimer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) Less(i, j int) bool {
	if !h[i].when.Equal(h[j].when) {
		return h[i].when.Before(h[j].when)
	}
	return h[i].seq < h[j].seq
}

func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *timerHeap) Push(x any) {
	t := x.(*vtimer)
	t.index = len(*h)
	*h = append(*h, t)
}

func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

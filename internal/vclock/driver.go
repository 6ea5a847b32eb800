package vclock

// Driver advances a Virtual clock by itself: whenever the clock's
// count of runnable actors (Clock.Runnable) is zero it Steps to the
// next deadline, then waits for whatever that woke to park again.
// The count is exact — goroutines started with Go, socket waiters and
// netisr workers with queued frames all hold it up — so time never
// moves while work that needs none is under way, and a simulated
// network replays identically whatever the scheduler does.
type Driver struct {
	clock   *Virtual
	stopped bool // guarded by clock.mu
	done    chan struct{}
}

// NewDriver creates a driver for c.
func NewDriver(c *Virtual) *Driver {
	return &Driver{clock: c, done: make(chan struct{})}
}

// Start launches the driver goroutine. Call Stop when the test ends.
func (d *Driver) Start() {
	go d.loop()
}

// Stop halts the driver and waits for its goroutine to exit.
func (d *Driver) Stop() {
	v := d.clock
	v.mu.Lock()
	d.stopped = true
	v.idle.Broadcast()
	v.mu.Unlock()
	<-d.done
}

func (d *Driver) loop() {
	defer close(d.done)
	v := d.clock
	v.mu.Lock()
	defer v.mu.Unlock()
	for {
		for !d.stopped && (v.runnable > 0 || len(v.heap) == 0) {
			v.idle.Wait()
		}
		if d.stopped {
			return
		}
		v.advanceToLocked(v.heap[0].when)
		v.mu.Lock()
	}
}

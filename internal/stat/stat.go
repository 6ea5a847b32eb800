// Package stat provides the atomic event counters used by every
// protocol's statistics block.
//
// In 4.4 BSD the statistics the paper's modified netstat(8) displays
// are plain integers incremented at splnet; one big lock makes that
// safe.  This reproduction runs each stack across several goroutines
// (netisr, timers, socket callers), so counters are lock-free atomics
// instead — the same choice production Go stacks make.
package stat

import (
	"strconv"
	"sync/atomic"
)

// Counter is an atomically updated event counter. The zero value is
// ready to use. Counters must not be copied after first use.
type Counter struct {
	_ noCopy
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Get returns the current value.
func (c *Counter) Get() uint64 { return c.v.Load() }

// String renders the value, so counters print naturally with %v.
func (c *Counter) String() string { return strconv.FormatUint(c.Get(), 10) }

// noCopy triggers `go vet -copylocks` on accidental copies.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

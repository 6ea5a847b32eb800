package stat

import "testing"

// BenchmarkCounterIncParallel measures the contended case: every
// goroutine hammers one atomic word, ping-ponging its cache line
// between cores.
func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

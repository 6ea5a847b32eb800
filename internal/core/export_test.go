package core

// BurstSize exposes the netisr's per-wakeup dequeue cap.
const BurstSize = burstSize

// NewUnbatchedStack builds a stack whose netisr drains one frame per
// wakeup and runs no GRO: the reference that wire-equivalence tests
// compare the batched datapath against.
func NewUnbatchedStack(name string, opts Options) *Stack {
	return newStack(name, opts, true)
}

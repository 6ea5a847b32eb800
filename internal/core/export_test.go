package core

// BurstSize exposes the netisr's dispatch chunk.
const BurstSize = burstSize

// NewUnbatchedStack builds a stack whose netisr dispatches one frame
// at a time and runs no GRO: the reference that wire-equivalence tests
// compare the batched datapath against.
func NewUnbatchedStack(name string, opts Options) *Stack {
	return newStack(name, opts, true)
}

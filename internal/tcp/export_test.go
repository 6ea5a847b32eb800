package tcp

// SBMinArena is the smallest socket-buffer array sbappend allocates.
const SBMinArena = sbMinArena

// ArenaCaps returns the capacities of c's send and receive buffer
// arrays, for tests of how sbappend sizes them.
func ArenaCaps(c *Conn) (snd, rcv int) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	return cap(c.sndArr), cap(c.rcvArr)
}

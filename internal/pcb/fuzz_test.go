package pcb

import "testing"

// FuzzPCBOps lets the fuzzer drive the demux op interpreter directly:
// any byte string is a legal attach/bind/connect/detach/retuple/lookup
// sequence, and every operation re-checks the hash Lookup against the
// linear-scan oracle. A crash or a
// divergence here is a demux bug by construction.
func FuzzPCBOps(f *testing.F) {
	// Seeds: one op of each kind, then small mixed sequences that
	// exercise listener/connected coexistence and retupling.
	f.Add([]byte{0, 0})
	f.Add([]byte{0, 2, 1, 0, 1, 1, 2, 0, 2, 2, 7, 1, 1, 2, 2, 0})
	f.Add([]byte{0, 0, 0, 1, 1, 0, 0, 1, 2, 1, 3, 2, 5, 0, 1, 1, 2, 2, 6, 0, 7, 0, 1, 2, 3, 1})
	f.Add([]byte{0, 0, 0, 0, 2, 0, 5, 5, 2, 1, 4, 0, 6, 5, 7, 1, 1, 1, 1, 0, 4, 1, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			data = data[:4096]
		}
		runPCBOps(t, data)
	})
}

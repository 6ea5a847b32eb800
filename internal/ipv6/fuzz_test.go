package ipv6

import (
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/proto"
)

// fuzzHeader builds a base header carrying chain as its payload.
func fuzzHeader(nh uint8, chain []byte) []byte {
	h := &Header{NextHdr: nh, HopLimit: 64, PayloadLen: len(chain),
		Src: inet.IP6{0: 0xfe, 1: 0x80, 15: 1},
		Dst: inet.IP6{0: 0xfe, 1: 0x80, 15: 2}}
	return append(h.Marshal(nil), chain...)
}

// FuzzPreparse throws arbitrary bytes at the extension-header scan —
// the paper's "pre-parsing" pass — and checks the structural
// invariants of whatever it reports: every recorded header lies
// within the packet, the chain is contiguous from the base header,
// and the fast path (skip the scan when the first next-header is not
// an extension) agrees with the full scan.
func FuzzPreparse(f *testing.F) {
	f.Add(fuzzHeader(proto.UDP, []byte("payload")))
	// hop-by-hop (pad to 8) -> fragment -> UDP
	hbh := []byte{proto.Fragment, 0, 1, 4, 0, 0, 0, 0}
	frag := (&FragHeader{NextHdr: proto.UDP, Off: 8, More: true, ID: 7}).Marshal(nil)
	f.Add(fuzzHeader(proto.HopByHop, append(append(hbh, frag...), "data"...)))
	// routing header, then truncated mid-chain
	rh := []byte{proto.UDP, 1, 0, 1, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	f.Add(fuzzHeader(proto.Routing, rh))
	f.Add(fuzzHeader(proto.HopByHop, []byte{proto.UDP}))
	f.Add([]byte{0x60})

	f.Fuzz(func(t *testing.T, b []byte) {
		info, err := Preparse(b, false)
		at := HeaderLen
		for _, r := range info.Ext() {
			if r.Offset != at || r.Len <= 0 || r.Offset+r.Len > len(b) {
				t.Fatalf("ext header %+v out of bounds/order in %d-byte packet", r, len(b))
			}
			at += r.Len
		}
		if err == nil && !info.Truncated && (info.FinalOff != at || info.FinalOff > len(b)) {
			t.Fatalf("FinalOff = %d, want %d (packet len %d)", info.FinalOff, at, len(b))
		}

		fast, ferr := Preparse(b, true)
		if err == nil && ferr == nil && len(info.Ext()) == 0 {
			if fast.Final != info.Final || fast.FinalOff != info.FinalOff {
				t.Fatalf("fast path disagrees: %+v vs %+v", fast, info)
			}
		}
	})
}

package ipv6

import (
	"bytes"
	"testing"
	"testing/quick"

	"bsd6/internal/inet"
	"bsd6/internal/proto"
)

func ip6(t *testing.T, s string) inet.IP6 {
	t.Helper()
	a, err := inet.ParseIP6(s)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestHeaderRoundTrip(t *testing.T) {
	h := &Header{
		FlowInfo:   0x0abcdef, // 4-bit priority + 24-bit label
		PayloadLen: 512,
		NextHdr:    proto.TCP,
		HopLimit:   64,
		Src:        ip6(t, "fe80::1"),
		Dst:        ip6(t, "2001:db8::2"),
	}
	wire := h.Marshal(nil)
	if len(wire) != HeaderLen {
		t.Fatalf("len = %d", len(wire))
	}
	if wire[0]>>4 != 6 {
		t.Fatal("version")
	}
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got != *h {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(flow uint32, plen uint16, nh, hops uint8, src, dst inet.IP6) bool {
		h := &Header{FlowInfo: flow & 0x0fffffff, PayloadLen: int(plen), NextHdr: nh, HopLimit: hops, Src: src, Dst: dst}
		got, err := Parse(h.Marshal(nil))
		return err == nil && got == *h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(make([]byte, 39)); err != ErrShort {
		t.Fatal("short")
	}
	b := make([]byte, 40)
	b[0] = 4 << 4
	if _, err := Parse(b); err != ErrVersion {
		t.Fatal("version")
	}
}

func TestOptionsMarshalAligned(t *testing.T) {
	for n := 0; n <= 16; n++ {
		opts := []Option{{Type: 0x05, Data: make([]byte, n)}} // router-alert-ish, skip action
		body := MarshalOptions(proto.TCP, opts)
		if len(body)%8 != 0 {
			t.Fatalf("n=%d: body len %d not 8-aligned", n, len(body))
		}
		if body[0] != proto.TCP {
			t.Fatal("next header")
		}
		if int(body[1]) != len(body)/8-1 {
			t.Fatalf("length field %d for %d bytes", body[1], len(body))
		}
		got, err := ParseOptions(body[2:], func(t byte) bool { return t == 0x05 })
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != 1 || got[0].Type != 0x05 || len(got[0].Data) != n {
			t.Fatalf("n=%d: got %+v", n, got)
		}
	}
}

func TestOptionsUnknownActions(t *testing.T) {
	mk := func(typ byte) []byte {
		return MarshalOptions(proto.TCP, []Option{{Type: typ, Data: []byte{1, 2}}})
	}
	// Skip action: parses fine, option dropped.
	if _, err := ParseOptions(mk(0x05)[2:], nil); err != nil {
		t.Fatalf("skip action: %v", err)
	}
	// Discard actions: OptionError with the right bits.
	for _, typ := range []byte{0x45, 0x85, 0xc5} {
		_, err := ParseOptions(mk(typ)[2:], nil)
		oe, ok := err.(*OptionError)
		if !ok {
			t.Fatalf("type %#x: err = %v", typ, err)
		}
		if oe.Action != typ&0xc0 {
			t.Fatalf("type %#x: action %#x", typ, oe.Action)
		}
	}
}

func TestOptionsTruncated(t *testing.T) {
	if _, err := ParseOptions([]byte{5}, nil); err != ErrExtHdr {
		t.Fatal("lone type byte")
	}
	if _, err := ParseOptions([]byte{5, 10, 1}, nil); err != ErrExtHdr {
		t.Fatal("length beyond body")
	}
}

func TestFragHeaderRoundTrip(t *testing.T) {
	f := func(nh uint8, off uint16, more bool, id uint32) bool {
		fh := &FragHeader{NextHdr: nh, Off: int(off&0x1fff) &^ 7, More: more, ID: id}
		got, err := ParseFrag(fh.Marshal(nil))
		return err == nil && got.NextHdr == fh.NextHdr && got.Off == fh.Off && got.More == fh.More && got.ID == fh.ID
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFrag(make([]byte, 7)); err != ErrShort {
		t.Fatal("short frag")
	}
}

func TestRoutingHeaderRoundTrip(t *testing.T) {
	r := &RoutingHeader{
		NextHdr: proto.UDP,
		SegLeft: 2,
		Addrs:   []inet.IP6{ip6(t, "2001:db8::1"), ip6(t, "2001:db8::2")},
	}
	wire := r.Marshal(nil)
	if len(wire) != 8+32 {
		t.Fatalf("len = %d", len(wire))
	}
	got, err := ParseRouting(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.SegLeft != 2 || len(got.Addrs) != 2 || got.Addrs[1] != r.Addrs[1] {
		t.Fatalf("round trip: %+v", got)
	}
}

func TestRoutingHeaderErrors(t *testing.T) {
	r := &RoutingHeader{NextHdr: proto.UDP, SegLeft: 1, Addrs: []inet.IP6{{15: 1}}}
	wire := r.Marshal(nil)
	wire[3] = 5 // segments left > addresses
	if _, err := ParseRouting(wire); err != ErrExtHdr {
		t.Fatal("segleft overflow")
	}
	if _, err := ParseRouting(wire[:7]); err != ErrShort {
		t.Fatal("short")
	}
	wire2 := r.Marshal(nil)
	wire2[1] = 1 // odd ext len
	if _, err := ParseRouting(wire2[:16]); err != ErrExtHdr {
		t.Fatal("odd extlen")
	}
}

// buildChain assembles base header + extension chain + payload for
// preparse tests.
func buildChain(t testing.TB, payload []byte) []byte {
	t.Helper()
	// dstopts -> payload (UDP)
	dst := MarshalOptions(proto.UDP, []Option{{Type: 0x05, Data: []byte{1}}})
	// routing -> dstopts
	rh := &RoutingHeader{NextHdr: proto.DstOpts, SegLeft: 0, Addrs: []inet.IP6{{15: 9}}}
	rb := rh.Marshal(nil)
	// hbh -> routing
	hbh := MarshalOptions(proto.Routing, []Option{{Type: 0x05, Data: []byte{2}}})
	h := &Header{NextHdr: proto.HopByHop, HopLimit: 64, PayloadLen: len(hbh) + len(rb) + len(dst) + len(payload)}
	out := h.Marshal(nil)
	out = append(out, hbh...)
	out = append(out, rb...)
	out = append(out, dst...)
	return append(out, payload...)
}

func TestPreparseChain(t *testing.T) {
	pkt := buildChain(t, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	info, err := Preparse(pkt, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Ext()) != 3 {
		t.Fatalf("ext count = %d", len(info.Ext()))
	}
	want := []uint8{proto.HopByHop, proto.Routing, proto.DstOpts}
	for i, rec := range info.Ext() {
		if rec.Proto != want[i] {
			t.Fatalf("ext[%d] = %d, want %d", i, rec.Proto, want[i])
		}
	}
	if info.Final != proto.UDP {
		t.Fatalf("final = %d", info.Final)
	}
	if info.FinalOff != len(pkt)-8 {
		t.Fatalf("final off = %d", info.FinalOff)
	}
	// Offsets must tile: each ext starts where the previous ended.
	at := HeaderLen
	for _, rec := range info.Ext() {
		if rec.Offset != at {
			t.Fatalf("offset %d, want %d", rec.Offset, at)
		}
		at += rec.Len
	}
}

func TestPreparseFastPath(t *testing.T) {
	h := &Header{NextHdr: proto.TCP, HopLimit: 64, PayloadLen: 4}
	pkt := append(h.Marshal(nil), 1, 2, 3, 4)
	info, err := Preparse(pkt, true)
	if err != nil || len(info.Ext()) != 0 || info.Final != proto.TCP || info.FinalOff != HeaderLen {
		t.Fatalf("fast path: %+v %v", info, err)
	}
	// Fast path must not be taken when extension headers are present.
	chain := buildChain(t, []byte{1})
	info, err = Preparse(chain, true)
	if err != nil || len(info.Ext()) != 3 {
		t.Fatalf("fast path with ext: %+v %v", info, err)
	}
}

// TestPreparseAllocatesNothing pins that pre-parsing a packet with no
// extension header allocates nothing, on the scan and the fast path:
// the result is returned by value.
func TestPreparseAllocatesNothing(t *testing.T) {
	h := &Header{NextHdr: proto.TCP, HopLimit: 64, PayloadLen: 20}
	pkt := append(h.Marshal(nil), make([]byte, 20)...)
	for _, fastPath := range []bool{false, true} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Preparse(pkt, fastPath); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Fatalf("Preparse(fastPath=%v) allocates %v times, want 0", fastPath, n)
		}
	}
}

// TestPreparseChainAllocatesNothing pins that pre-parsing a
// hop-by-hop, routing and destination-options chain allocates nothing:
// the header records of a common-length chain live in the result.
func TestPreparseChainAllocatesNothing(t *testing.T) {
	pkt := buildChain(t, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	if n := testing.AllocsPerRun(100, func() {
		if _, err := Preparse(pkt, false); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Preparse of a 3-header chain allocates %v times, want 0", n)
	}
}

// TestPreparseLongChain walks a chain longer than PacketInfo's inline
// records: every header is recorded, in order, tiling the packet.
func TestPreparseLongChain(t *testing.T) {
	const n = 7
	var chain []byte
	for i := 0; i < n; i++ {
		next := uint8(proto.DstOpts)
		if i == n-1 {
			next = proto.UDP
		}
		chain = append(chain, MarshalOptions(next, []Option{{Type: 0x05, Data: []byte{byte(i)}}})...)
	}
	h := &Header{NextHdr: proto.DstOpts, HopLimit: 64, PayloadLen: len(chain) + 8}
	pkt := append(append(h.Marshal(nil), chain...), make([]byte, 8)...)
	info, err := Preparse(pkt, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Ext()) != n || info.Final != proto.UDP || info.FinalOff != len(pkt)-8 {
		t.Fatalf("%d records, final %d at %d", len(info.Ext()), info.Final, info.FinalOff)
	}
	at := HeaderLen
	for i, rec := range info.Ext() {
		if rec.Proto != proto.DstOpts || rec.Offset != at {
			t.Fatalf("record %d = %+v, want dst-opts at %d", i, rec, at)
		}
		at += rec.Len
	}
}

func TestPreparseStopsAtFragment(t *testing.T) {
	// base -> frag -> (opaque mid-datagram bytes that would misparse)
	fh := &FragHeader{NextHdr: proto.UDP, Off: 8, More: true, ID: 1}
	fb := fh.Marshal(nil)
	h := &Header{NextHdr: proto.Fragment, HopLimit: 4, PayloadLen: len(fb) + 4}
	pkt := append(h.Marshal(nil), fb...)
	pkt = append(pkt, 0xff, 0xff, 0xff, 0xff)
	info, err := Preparse(pkt, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Ext()) != 1 || info.Ext()[0].Proto != proto.Fragment {
		t.Fatalf("ext = %+v", info.Ext())
	}
	if info.Final != proto.UDP || info.FinalOff != HeaderLen+FragHeaderLen {
		t.Fatalf("final=%d off=%d", info.Final, info.FinalOff)
	}
}

func TestPreparseTruncated(t *testing.T) {
	chain := buildChain(t, []byte{1, 2, 3})
	// Cut inside the routing header.
	cut := chain[:HeaderLen+8+4]
	info, err := Preparse(cut, false)
	if err == nil {
		t.Fatal("truncated chain parsed")
	}
	if !info.Truncated {
		t.Fatal("Truncated not set")
	}
}

func TestPreparseAH(t *testing.T) {
	// base -> AH -> TCP. RFC 1826 AH: next(1) len(1, auth words) res(2)
	// spi(4) + auth data.
	ah := []byte{proto.TCP, 4, 0, 0, 0, 0, 1, 0}
	ah = append(ah, make([]byte, 16)...) // 4 words of digest
	h := &Header{NextHdr: proto.AH, HopLimit: 9, PayloadLen: len(ah) + 2}
	pkt := append(h.Marshal(nil), ah...)
	pkt = append(pkt, 0xaa, 0xbb)
	info, err := Preparse(pkt, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Ext()) != 1 || info.Ext()[0].Proto != proto.AH || info.Ext()[0].Len != 24 {
		t.Fatalf("ext = %+v", info.Ext())
	}
	if info.Final != proto.TCP || info.FinalOff != HeaderLen+24 {
		t.Fatalf("final=%d off=%d", info.Final, info.FinalOff)
	}
}

// Property: for random padding-only option sets, marshal/parse is
// total and consumes the body exactly.
func TestQuickOptionsPadding(t *testing.T) {
	f := func(sizes []uint8) bool {
		var opts []Option
		for _, s := range sizes {
			opts = append(opts, Option{Type: 0x05, Data: make([]byte, int(s)%32)})
		}
		body := MarshalOptions(proto.TCP, opts)
		if len(body)%8 != 0 {
			return false
		}
		got, err := ParseOptions(body[2:], func(t byte) bool { return t == 0x05 })
		if err != nil {
			return false
		}
		if len(got) != len(opts) {
			return false
		}
		for i := range got {
			if !bytes.Equal(got[i].Data, opts[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkPreparse is §2.2's ablation: input pre-parsing of the
// header chain against the fast-path bypass, on the packet the bypass
// exists for — a TCP segment with no extension header.
func BenchmarkPreparse(b *testing.B) {
	h := &Header{NextHdr: proto.TCP, HopLimit: 64, PayloadLen: 20}
	pkt := append(h.Marshal(nil), make([]byte, 20)...)
	for _, bc := range []struct {
		name     string
		fastPath bool
	}{{"preparse", false}, {"fastpath", true}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Preparse(pkt, bc.fastPath); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparseChain pre-parses a hop-by-hop, routing and
// destination-options chain, the records of which live in the result.
func BenchmarkPreparseChain(b *testing.B) {
	pkt := buildChain(b, make([]byte, 20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Preparse(pkt, false); err != nil {
			b.Fatal(err)
		}
	}
}

package netif

import (
	"bytes"
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/mbuf"
)

var (
	gsoTestSrc = inet.IP6{15: 1}
	gsoTestDst = inet.IP6{15: 2}
)

// gsoSuper builds the wire image of an IPv6 TCP super-segment of
// chunks mss-byte payload chunks, with a valid checksum over the
// whole segment, and the folded sum of each chunk.
func gsoSuper(mss, chunks int) (super []byte, sums []uint32) {
	total := gsoTCPHdrEnd + mss*chunks
	super = make([]byte, total)
	super[0] = 0x60
	plen := total - gsoV6HdrLen
	super[4], super[5] = byte(plen>>8), byte(plen)
	super[6] = gsoProtoTCP
	super[7] = 64
	copy(super[8:24], gsoTestSrc[:])
	copy(super[24:40], gsoTestDst[:])
	th := super[gsoV6HdrLen:]
	th[0], th[1] = 0x0f, 0xa0 // sport 4000
	th[2], th[3] = 0x00, 0x50 // dport 80
	th[4], th[5], th[6], th[7] = 0, 0, 0x10, 0
	th[12] = 5 << 4
	th[13] = 0x18 // ACK|PSH: PSH rides only the last frame
	th[14], th[15] = 0x20, 0x00
	payload := super[gsoTCPHdrEnd:]
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}
	for o := 0; o < len(payload); o += mss {
		sums = append(sums, uint32(inet.FoldRaw(inet.Sum(0, payload[o:o+mss]))))
	}
	ck := inet.TransportChecksum6(gsoTestSrc, gsoTestDst, gsoProtoTCP, th)
	th[16], th[17] = byte(ck>>8), byte(ck)
	return super, sums
}

// gsoPacket puts a copy of super in a pooled packet carrying a
// descriptor from the free list.
func gsoPacket(super []byte, sums []uint32, mss int) *mbuf.Mbuf {
	pkt := mbuf.Get(len(super))
	copy(pkt.Bytes(), super)
	g := mbuf.NewGSO(mss, gsoTCPHdrEnd-gsoV6HdrLen, len(sums))
	g.Sums = append(g.Sums, sums...)
	g.PathMTU = gsoTCPHdrEnd + mss
	pkt.Hdr().GSO = g
	return pkt
}

// TestGSOSplitFreesDescriptor splits super-segments with poison on:
// every frame carries its exact chunk under a valid checksum, and the
// super-segment's Free takes its descriptor back, so a descriptor
// recycled into the next super-segment cannot corrupt a frame.
func TestGSOSplitFreesDescriptor(t *testing.T) {
	mbuf.SetPoison(true)
	defer mbuf.SetPoison(false)
	const mss, chunks = 1000, 5
	ifp := New("gso0", inet.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	ifp.SetFlags(FlagUp, true)
	var frames [][]byte
	ifp.output = func(fr Frame) error {
		frames = append(frames, fr.Payload.CopyBytes())
		fr.Payload.Free()
		return nil
	}
	super, sums := gsoSuper(mss, chunks)
	for round := 0; round < 3; round++ {
		frames = frames[:0]
		pkt := gsoPacket(super, sums, mss)
		if err := ifp.Output(inet.LinkAddr{2, 0, 0, 0, 0, 2}, EtherTypeIPv6, pkt); err != nil {
			t.Fatal(err)
		}
		if pkt.Hdr().GSO != nil {
			t.Fatal("the split super-segment still holds its descriptor")
		}
		if len(frames) != chunks {
			t.Fatalf("round %d: %d frames, want %d", round, len(frames), chunks)
		}
		for i, f := range frames {
			seg := f[gsoV6HdrLen:]
			if inet.TransportChecksum6(gsoTestSrc, gsoTestDst, gsoProtoTCP, seg) != 0 {
				t.Fatalf("round %d frame %d: bad TCP checksum", round, i)
			}
			if want := super[gsoTCPHdrEnd+i*mss : gsoTCPHdrEnd+(i+1)*mss]; !bytes.Equal(f[gsoTCPHdrEnd:], want) {
				t.Fatalf("round %d frame %d: payload differs", round, i)
			}
			if psh := seg[13]&0x08 != 0; psh != (i == chunks-1) {
				t.Fatalf("round %d frame %d: PSH %v", round, i, psh)
			}
		}
	}
}

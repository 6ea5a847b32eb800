package icmp6

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/mbuf"
	"bsd6/internal/proto"
)

// DefaultErrPPS is the error rate the shared IP layer enforces, under
// the name the ICMPv6 tests use.
const DefaultErrPPS = ip.DefaultErrPPS

// SendError asks the layer for an error about orig, as its own
// trigger points do.
func (m *Module) SendError(typ, code uint8, param uint32, orig *mbuf.Mbuf, rcvIf string) {
	m.l.Error(typ, code, param, orig, rcvIf)
}

// marshal builds an ICMPv6 message with its pseudo-header checksum
// (§4: ICMPv6, "like TCP and UDP, requires a pseudo-header to be
// included in its checksum calculation") in a heap slice, one step at
// a time: the oracle ip.BuildICMP is held to, and how tests forge
// messages.
func marshal(typ, code uint8, body []byte, src, dst inet.IP6) []byte {
	b := make([]byte, 4+len(body))
	b[0], b[1] = typ, code
	copy(b[4:], body)
	ck := inet.TransportChecksum6(src, dst, proto.ICMPv6, b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	return b
}

// TestBuildICMPMatchesMarshal holds the pooled builder to the oracle
// byte for byte, over bodies of every length up to 130 (odd ones
// included), and checks that with no pseudo-header it writes the
// ICMPv4 checksum, which sums to zero over the message.
func TestBuildICMPMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 4; n <= 130; n++ {
		var src, dst inet.IP6
		rng.Read(src[:])
		rng.Read(dst[:])
		body := make([]byte, n)
		rng.Read(body)
		typ, code := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		word := binary.BigEndian.Uint32(body)
		sum := inet.PseudoHeader6(src, dst, uint32(4+n), proto.ICMPv6)
		pkt := ip.BuildICMP(typ, code, word, body[4:], sum)
		if want := marshal(typ, code, body, src, dst); !bytes.Equal(pkt.Bytes(), want) {
			t.Fatalf("body %d bytes: built % x, want % x", n, pkt.Bytes(), want)
		}
		pkt.Free()
		pkt = ip.BuildICMP(typ, code, word, body[4:], 0)
		if ck := inet.Checksum(pkt.Bytes()); ck != 0 {
			t.Fatalf("body %d bytes: ICMPv4 message sums to %#x", n, ck)
		}
		pkt.Free()
	}
}

package main

import (
	"encoding/binary"
	"sync"
	"time"

	"bsd6/internal/netif"
)

// frameRec is what the traced pass keeps of one frame seen by a hub.
type frameRec struct {
	t     int64  // ns since the capture base
	plen  uint16 // transport payload bytes (TCP, UDP); 0 for ESP
	seq   uint32 // UDP datagram sequence number (forward)
	src   uint8  // last byte of the source MAC: the sending node
	proto uint8  // IP protocol of the first transport header
	flags uint8  // TCP flags
}

// TCP flag bits.
const (
	tcpSYN = 0x02
	tcpACK = 0x10
)

// Capture limits: records and packet copies kept per leg.  Frames
// beyond them still count toward frames and bytes.
const (
	maxFrameRecs = 600_000
	keepPackets  = 256
)

// capture is a netif.Hub.Capture sink.  It records only while on, so
// the hook can be installed before any traffic and left in place.
type capture struct {
	base time.Time

	mu     sync.Mutex
	on     bool
	frames []frameRec
	total  int64 // frames seen while on
	bytes  int64 // their IP bytes plus a 14-byte Ethernet header each
	pkts   []capPkt
}

// capPkt is a copy of one captured IP packet and its sending node.
type capPkt struct {
	src uint8
	b   []byte
}

func newCapture(base time.Time) *capture { return &capture{base: base} }

// hook is installed as Hub.Capture; the hub calls it under its lock.
func (c *capture) hook(fr netif.Frame) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.on {
		return
	}
	c.total++
	n := fr.Payload.Len()
	c.bytes += int64(n) + 14
	if len(c.pkts) < keepPackets {
		c.pkts = append(c.pkts, capPkt{fr.Src[5], fr.Payload.CopyBytes()})
	}
	if len(c.frames) >= maxFrameRecs {
		return
	}
	rec := frameRec{t: int64(time.Since(c.base)), src: fr.Src[5]}
	parseFrame(&rec, fr.EtherType, fr.Payload.CopyRange(0, min(n, 80)))
	c.frames = append(c.frames, rec)
}

// parseFrame fills the transport fields of rec from the packet head.
func parseFrame(rec *frameRec, etherType uint16, b []byte) {
	off, total := 0, 0
	switch etherType {
	case 0x86dd:
		if len(b) < 40 {
			return
		}
		rec.proto = b[6]
		off, total = 40, 40+int(binary.BigEndian.Uint16(b[4:6]))
	case 0x0800:
		if len(b) < 20 {
			return
		}
		rec.proto = b[9]
		off, total = int(b[0]&0x0f)*4, int(binary.BigEndian.Uint16(b[2:4]))
	default:
		return
	}
	switch rec.proto {
	case 6:
		if len(b) < off+14 {
			return
		}
		rec.flags = b[off+13]
		rec.plen = uint16(max(0, total-off-int(b[off+12]>>4)*4))
	case 17:
		rec.plen = uint16(max(0, total-off-8))
		if len(b) >= off+8+16 {
			rec.seq = uint32(binary.BigEndian.Uint64(b[off+8+8:]))
		}
	}
}

// start clears the capture and begins recording.
func (c *capture) start() {
	c.mu.Lock()
	c.on = true
	c.frames = c.frames[:0]
	c.pkts = nil
	c.total, c.bytes = 0, 0
	c.mu.Unlock()
}

// stop ends recording; the records stay readable until start.
func (c *capture) stop() {
	c.mu.Lock()
	c.on = false
	c.mu.Unlock()
}

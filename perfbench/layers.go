package main

import (
	"encoding/binary"
	"sort"
	"strconv"
	"time"

	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/ipv6"
	"bsd6/internal/key"
	"bsd6/internal/route"
)

// metric is one reported figure; ratios carry their base.
type metric struct {
	v    float64
	unit string
	base string
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{v: v, unit: unit} }

func (m metrics) ratio(name, unit string, r ratio) {
	m[name] = metric{v: r.value(), unit: unit, base: r.String()}
}

// p50us sets name to the median of h in microseconds, with its count.
func (m metrics) p50us(name string, h *hist) {
	v, n := h.quantile(0.5)
	m[name] = metric{v: v / 1e3, unit: "us", base: countBase(n)}
}

func countBase(n int64) string { return "n=" + strconv.FormatInt(n, 10) }

// replayRounds is how many times the replay stage walks the captured
// packets through each per-packet function; enough to time calls that
// take tens of nanoseconds.
const replayRounds = 200

// timeEach returns the mean ns per call of fn over n items, walked
// replayRounds times.
func timeEach(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t0 := time.Now()
	for r := 0; r < replayRounds; r++ {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(replayRounds*n)
}

// replay times public per-packet functions on the packets the hubs
// captured travelling away from the client (pair) or sender (line),
// against the live tables that handle them.
func replay(b *bed) metrics {
	m := make(metrics)
	var pkts [][]byte
	for k, c := range b.caps {
		from := uint8(1) // the pair client's MAC
		if b.nw != nil {
			from = uint8(k) // node k sends onto link k toward the sink
		}
		for _, p := range c.pkts {
			if p.src == from {
				pkts = append(pkts, p.b)
			}
		}
	}
	var v6, tcpSegs, esp [][]byte
	var tuples []pcbTuple
	var dsts []inet.IP6
	for _, p := range pkts {
		if len(p) < 20 {
			continue
		}
		switch p[0] >> 4 {
		case 6:
			if len(p) < 40 {
				continue
			}
			v6 = append(v6, p)
			var src, dst inet.IP6
			copy(src[:], p[8:24])
			copy(dst[:], p[24:40])
			dsts = append(dsts, dst)
			switch p[6] {
			case 6:
				tcpSegs = append(tcpSegs, p[40:])
				if len(p) >= 44 {
					tuples = append(tuples, pcbTuple{dst, binary.BigEndian.Uint16(p[42:]), src, binary.BigEndian.Uint16(p[40:]), false})
				}
			case 50:
				esp = append(esp, p)
			}
		case 4:
			ihl := int(p[0]&0x0f) * 4
			if p[9] == 6 && len(p) >= ihl+4 {
				tcpSegs = append(tcpSegs, p[ihl:])
				var src, dst inet.IP4
				copy(src[:], p[12:16])
				copy(dst[:], p[16:20])
				tuples = append(tuples, pcbTuple{inet.V4Mapped(dst), binary.BigEndian.Uint16(p[ihl+2:]), inet.V4Mapped(src), binary.BigEndian.Uint16(p[ihl:]), true})
			}
		}
	}

	m.set("ipv6.preparse_ns", "ns", timeEach(len(v6), func(i int) { _, _ = ipv6.Preparse(v6[i], true) }))

	var segBytes int
	for _, s := range tcpSegs {
		segBytes += len(s)
	}
	if segBytes > 0 {
		ns := timeEach(len(tcpSegs), func(i int) { inet.Checksum(tcpSegs[i]) }) * float64(len(tcpSegs))
		m.set("inet.checksum_ns_per_KB", "ns/KB", ns/float64(segBytes)*1024)
	} else {
		m.set("inet.checksum_ns_per_KB", "ns/KB", 0)
	}

	// Routes are looked up where the traffic is routed: the first
	// router of a line, the client of a pair.
	rt := b.cli.RT
	if b.nw != nil {
		rt = b.stacks[1].RT
	}
	m.set("route.lookup_ns", "ns", timeEach(len(dsts), func(i int) { rt.Lookup(inet.AFInet6, dsts[i][:]) }))
	var cache route.Cache
	m.set("route.cached_ns", "ns", timeEach(len(dsts), func(i int) { rt.LookupCached(inet.AFInet6, dsts[i][:], &cache) }))

	// PCB demux on the live server table, with each captured segment's
	// tuple as the server sees it.
	tbl := b.srv.TCP.Table
	m.set("pcb.lookup_ns", "ns", timeEach(len(tuples), func(i int) {
		t := tuples[i]
		tbl.Lookup(t.laddr, t.lport, t.faddr, t.fport, t.v4)
	}))

	seal, open, spi := replayESP(b, esp)
	m.set("ipsec.seal_ns_per_KB", "ns/KB", seal)
	m.set("ipsec.open_ns_per_KB", "ns/KB", open)
	m.set("key.lookup_spi_ns", "ns", spi)
	return m
}

type pcbTuple struct {
	laddr inet.IP6
	lport uint16
	faddr inet.IP6
	fport uint16
	v4    bool
}

// replayESP times AES-GCM seal and open on payloads the size of the
// captured ESP packets, under the bed's own key, and the SPI lookup of
// each captured packet in the receiver's Key Engine.
func replayESP(b *bed, esp [][]byte) (sealNsPerKB, openNsPerKB, spiNs float64) {
	if len(esp) == 0 || b.espKey == nil {
		return 0, 0, 0
	}
	alg, ok := ipsec.LookupAEAD("aes-gcm")
	if !ok {
		return 0, 0, 0
	}
	aead, salt, err := alg.New(b.espKey)
	if err != nil {
		return 0, 0, 0
	}
	nonce := make([]byte, aead.NonceSize())
	copy(nonce, salt)
	plain := make([][]byte, len(esp))
	sealed := make([][]byte, len(esp))
	total := 0
	for i, p := range esp {
		plain[i] = p[40:]
		total += len(plain[i])
		sealed[i] = aead.Seal(nil, nonce, plain[i], nil)
	}
	out := make([]byte, 0, 64<<10)
	perKB := func(ns float64) float64 { return ns * float64(len(esp)) / float64(total) * 1024 }
	sealNsPerKB = perKB(timeEach(len(esp), func(i int) { out = aead.Seal(out[:0], nonce, plain[i], nil) }))
	openNsPerKB = perKB(timeEach(len(esp), func(i int) { out, _ = aead.Open(out[:0], nonce, sealed[i], nil) }))

	engine := b.srv.Keys
	type spiKey struct {
		spi uint32
		dst inet.IP6
	}
	keys := make([]spiKey, 0, len(esp))
	for _, p := range esp {
		var dst inet.IP6
		copy(dst[:], p[24:40])
		keys = append(keys, spiKey{binary.BigEndian.Uint32(p[40:]), dst})
	}
	spiNs = timeEach(len(keys), func(i int) { engine.LookupSPI(keys[i].spi, keys[i].dst, key.ProtoESPTransport) })
	return sealNsPerKB, openNsPerKB, spiNs
}

// pathSplit divides each request/response transaction into client
// output (op start → request frame on the wire), server turnaround
// (request frame → reply frame) and client input (reply frame → op
// end), from the client's op.txn spans and the hub capture.
func pathSplit(txns []span, frames []frameRec, client uint8) (out, turn, in *hist) {
	out, turn, in = new(hist), new(hist), new(hist)
	sort.Slice(txns, func(i, j int) bool { return txns[i].start < txns[j].start })
	f := 0
	for _, t := range txns {
		for f < len(frames) && frames[f].t < t.start {
			f++
		}
		if f == len(frames) {
			break
		}
		req, rep := -1, -1
		for g := f; g < len(frames) && frames[g].t <= t.end; g++ {
			if frames[g].plen == 0 {
				continue
			}
			if req < 0 && frames[g].src == client {
				req = g
			} else if req >= 0 && frames[g].src != client {
				rep = g
				break
			}
		}
		if req < 0 || rep < 0 {
			continue
		}
		out.add(frames[req].t - t.start)
		turn.add(frames[rep].t - frames[req].t)
		in.add(t.end - frames[rep].t)
	}
	return out, turn, in
}

// handshakes is the wire time from each SYN to the client's ACK that
// completes it.
func handshakes(frames []frameRec, client uint8) *hist {
	d := new(hist)
	syn := int64(-1)
	synAck := false
	for _, fr := range frames {
		switch {
		case fr.src == client && fr.flags&(tcpSYN|tcpACK) == tcpSYN:
			syn, synAck = fr.t, false
		case fr.src != client && fr.flags&(tcpSYN|tcpACK) == tcpSYN|tcpACK && syn >= 0:
			synAck = true
		case fr.src == client && synAck && fr.flags&(tcpSYN|tcpACK) == tcpACK:
			d.add(fr.t - syn)
			syn, synAck = -1, false
		}
	}
	return d
}

// hops is the time each forwarded datagram took from one link to the
// next: the transit routers' per-packet forwarding time.
func hops(caps []*capture) *hist {
	d := new(hist)
	for k := 0; k+1 < len(caps); k++ {
		a, b := udpFrames(caps[k].frames), udpFrames(caps[k+1].frames)
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i].seq < b[j].seq:
				i++
			case a[i].seq > b[j].seq:
				j++
			default:
				d.add(b[j].t - a[i].t)
				i++
				j++
			}
		}
	}
	return d
}

func udpFrames(fs []frameRec) []frameRec {
	var out []frameRec
	for _, f := range fs {
		if f.proto == 17 && f.plen == dgramSize {
			out = append(out, f)
		}
	}
	return out
}

// legLayers computes the per-layer figures of one traced leg.
func legLayers(r *run, b *bed, kind string, res *legResult) metrics {
	m := make(metrics)
	reg := &res.reg
	ops := float64(res.ops)
	mb := float64(res.bytes) / 1e6
	t0, t1 := r.since(reg.u0.t), r.since(reg.u1.t)
	self := r.tr.selfByName(res.name, t0, t1)

	switch kind {
	case "stream4", "rr4":
		m.ratio("netif.gso_frames_per_super_v4", "ratio", ratio{reg.sum("tcp", "GSOSplits"), reg.sum("tcp", "GSOSegs"), "GSO super-segments"})
		m.set("ip4.drops", "count", dropsWithPrefix(reg.drops(), "ip4-"))
		m.ratio("ip4.in_per_op", "1/op", ratio{reg.sum("ip4", "InReceives"), ops, "ops"})
		return m
	case "connect":
		m.p50us("core.connect_us", &self[spConnect])
		m.p50us("core.accept_us", &self[spAccept])
		m.p50us("path.handshake_us", handshakes(b.caps[0].frames, 1))
		m.set("tcp.timewait_overflow", "count", reg.sum("tcp", "TimeWaitOverflow"))
		m.set("tcp.syn_drops", "count", reg.sum("tcp", "SynDrops"))
		m.set("pcb.len", "count", float64(reg.pcbLen))
		return m
	}

	// The workload's primary leg.
	m.p50us("core.send_us", &self[spSend])
	m.p50us("core.read_wait_us", &self[spReadWait])
	m.set("core.inq_drops", "count", reg.inqDrops())
	m.set("core.inq_depth_max", "count", float64(res.inqMax))

	var frames, wire, fromServer float64
	for _, c := range b.caps {
		frames += float64(c.total)
		wire += float64(c.bytes)
	}
	if b.nw == nil {
		for _, f := range b.caps[0].frames {
			if f.src == 2 {
				fromServer++
			}
		}
	}
	m.ratio("netif.frames_per_op", "frames/op", ratio{frames, ops, "ops"})
	if kind == "stream6" || kind == "secure" {
		m.ratio("netif.acks_per_MB", "1/MB", ratio{fromServer, mb, "MB delivered"})
	}
	m.ratio("netif.wire_bytes_per_payload_byte", "ratio", ratio{wire, float64(res.bytes), "payload bytes"})
	m.ratio("netif.gso_frames_per_super", "ratio", ratio{reg.sum("tcp", "GSOSplits"), reg.sum("tcp", "GSOSegs"), "GSO super-segments"})
	m.ratio("tcp.gro_segs_per_super", "ratio", ratio{reg.sum("tcp", "GROCoalesced"), reg.sum("tcp", "GROFlushes"), "GRO flushes"})
	rcv := reg.sum("tcp", "RcvPack")
	m.ratio("tcp.pred_dat_ratio", "ratio", ratio{reg.sum("tcp", "PredDat"), rcv, "segments received"})
	m.ratio("tcp.pred_ack_ratio", "ratio", ratio{reg.sum("tcp", "PredAck"), rcv, "segments received"})
	m.ratio("tcp.rexmit_per_MB", "1/MB", ratio{reg.sum("tcp", "SndRexmit"), mb, "MB delivered"})
	m.ratio("tcp.delacks_per_op", "1/op", ratio{reg.sum("tcp", "DelAcks"), ops, "ops"})
	drops := reg.drops()
	m.ratio("udp.in_per_op", "1/op", ratio{reg.sum("udp", "InDatagrams"), ops, "ops"})
	m.set("udp.drops", "count", dropsWithPrefix(drops, "udp-"))
	m.ratio("ip6.fastpath_ratio", "ratio", ratio{reg.sum("ip6", "FastPathHits"), reg.sum("ip6", "InReceives"), "IPv6 packets received"})
	m.ratio("ip6.fwd_cache_ratio", "ratio", ratio{reg.sum("ip6", "FwdCacheHits"), reg.sum("ip6", "Forwarded"), "packets forwarded"})
	m.set("ip6.drops", "count", dropsWithPrefix(drops, "ip6-"))
	m.ratio("ipsec.out_cache_ratio", "ratio", ratio{reg.sum("ipsec", "OutCacheHits"), reg.sum("ipsec", "OutESP"), "ESP packets sent"})
	m.set("ipsec.in_fail", "count", reg.sum("ipsec", "InAuthFail")+reg.sum("ipsec", "InDecryptFail")+reg.sum("ipsec", "InNoSA")+reg.sum("ipsec", "InReplay"))
	m.ratio("key.miss_ratio", "ratio", ratio{reg.sum("key", "Misses"), reg.sum("key", "Lookups"), "SA lookups"})
	m.ratio("mbuf.gets_per_op", "1/op", ratio{float64(reg.u1.mbufGets - reg.u0.mbufGets), ops, "ops"})
	m.set("mbuf.prepend_spills", "count", float64(reg.u1.mbufSpills-reg.u0.mbufSpills))
	m.ratio("go.gc_pause_us", "us", ratio{float64(reg.u1.gcPauseNs-reg.u0.gcPauseNs) / 1e3, float64(reg.u1.numGC - reg.u0.numGC), "GC cycles"})
	m.ratio("go.heap_bytes_per_op", "B/op", ratio{float64(reg.u1.heapBytes - reg.u0.heapBytes), ops, "ops"})
	m.set("pcb.len", "count", float64(reg.pcbLen))

	switch kind {
	case "rr6":
		out, turn, in := pathSplit(r.tr.spansOf(res.name, spOpTxn, t0, t1), b.caps[0].frames, 1)
		m.p50us("path.out_us", out)
		m.p50us("path.turn_us", turn)
		m.p50us("path.in_us", in)
		total, _ := r.tr.durations(res.name, spOpTxn, t0, t1).quantile(0.5)
		m.set("path.txn_p50_us", "us", total/1e3)
		m.set("path.remainder_us", "us", (total-m["path.out_us"].v*1e3-m["path.turn_us"].v*1e3-m["path.in_us"].v*1e3)/1e3)
	case "forward":
		m.p50us("path.hop_us", hops(b.caps))
	}
	for k, v := range reg.replay {
		m[k] = v
	}
	return m
}

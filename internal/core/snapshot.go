package core

import (
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"bsd6/internal/dump"
	"bsd6/internal/inet"
	"bsd6/internal/ip"
	"bsd6/internal/mbuf"
	"bsd6/internal/route"
	"bsd6/internal/stat"
	"bsd6/internal/tcp"
	"bsd6/internal/tunnel"
)

// traceRingSize bounds the per-stack flight recorder: the last N
// drop/control events, enough to explain a conformance-test failure
// without logging every packet.
const traceRingSize = 128

// TraceLine is one rendered flight-recorder event: the drop (or
// control) event with its raw packet bytes already decoded into a
// dump one-liner, so snapshots are human-readable and JSON-safe.
type TraceLine struct {
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Kind   string    `json:"kind"` // "drop" or "ctl"
	Reason string    `json:"reason,omitempty"`
	Detail string    `json:"detail,omitempty"`
}

// NetisrSnapshot captures the input-queue state.
type NetisrSnapshot struct {
	Burst   int    `json:"burst"` // frames dispatched per chunk
	Drops   uint64 `json:"drops"`
	Depth   int    `json:"depth"`
	Wakeups uint64 `json:"wakeups"` // times the netisr was woken from park
	Frames  uint64 `json:"frames"`  // frames the netisr dispatched
}

// LimitSnapshot describes one governance ceiling: its constant
// maximum, the current occupancy, how many discards the limit has
// induced, and the taxonomy name those discards carry (both empty for
// a ceiling that discards nothing).
type LimitSnapshot struct {
	Max    int    `json:"max"`
	Cur    int    `json:"cur"`
	Drops  uint64 `json:"drops"`
	Reason string `json:"reason"`
}

// LimitsSnapshot is the stack's resource-governance surface: every
// ceiling with its live occupancy and induced drops, so an operator
// (or a flood-soak test) can read "how close to the edge" without
// groping through per-protocol counters.  MbufQueue is measured in
// bytes; the others in entries.
type LimitsSnapshot struct {
	Reasm6     LimitSnapshot `json:"reasm6"`
	Reasm4     LimitSnapshot `json:"reasm4"`
	NDCache    LimitSnapshot `json:"ndCache"`
	SynBacklog LimitSnapshot `json:"synBacklog"`
	TimeWait   LimitSnapshot `json:"timeWait"`
	MbufQueue  LimitSnapshot `json:"mbufQueue"`

	// PoolOutstanding is the process-wide mbuf slab gauge
	// (mbuf.Outstanding): bytes handed out and not yet freed.
	PoolOutstanding int64 `json:"poolOutstanding"`
}

// TunnelSnap is one configured tunnel's row: its configuration, the
// live inner-budget MTU (narrowed by nested PMTU discovery), and the
// encap/decap counters.
type TunnelSnap struct {
	Name        string `json:"name"`
	Mode        string `json:"mode"` // 6in4, 4in6, 6in6
	Local       string `json:"local"`
	Remote      string `json:"remote"`
	MTU         int    `json:"mtu"`      // inner budget, shrinks on outer PTB
	Overhead    int    `json:"overhead"` // outer header bytes per packet
	Encapped    uint64 `json:"encapped"`
	Decapped    uint64 `json:"decapped"`
	InErrors    uint64 `json:"inErrors"`
	PMTUUpdates uint64 `json:"pmtuUpdates"`
}

// SASnap is one security association's row: its name (SPI, service,
// endpoints, algorithms) and the per-SA datapath counters the
// line-rate paths charge atomically — packets and bytes per direction,
// replay-window rejections, and the outbound sequence position.
type SASnap struct {
	SPI         uint32 `json:"spi"`
	Proto       string `json:"proto"`
	Dst         string `json:"dst"`
	AuthAlg     string `json:"authAlg,omitempty"`
	EncAlg      string `json:"encAlg,omitempty"`
	InPkts      uint64 `json:"inPkts"`
	InBytes     uint64 `json:"inBytes"`
	OutPkts     uint64 `json:"outPkts"`
	OutBytes    uint64 `json:"outBytes"`
	ReplayDrops uint64 `json:"replayDrops"`
	SeqOut      uint64 `json:"seqOut"`
}

// Snapshot is the structured counterpart of Netstat(): every protocol,
// security, key-engine and netisr counter, the drop-reason map, and
// the flight-recorder trace — JSON-serializable so benchmarks and
// conformance tests diff counters instead of scraping text (the
// structured upgrade of the paper's modified netstat(8), §3.4/§4.3).
type Snapshot struct {
	Name    string            `json:"name"`
	Time    time.Time         `json:"time"`
	IP6     map[string]uint64 `json:"ip6"`
	IP4     map[string]uint64 `json:"ip4"`
	ICMP6   map[string]uint64 `json:"icmp6"`
	ICMP4   map[string]uint64 `json:"icmp4"`
	TCP     map[string]uint64 `json:"tcp"`
	UDP     map[string]uint64 `json:"udp"`
	IPsec   map[string]uint64 `json:"ipsec"`
	Key     map[string]uint64 `json:"key"`
	Netisr  NetisrSnapshot    `json:"netisr"`
	Limits  LimitsSnapshot    `json:"limits"`
	Tunnels []TunnelSnap      `json:"tunnels,omitempty"`
	SAs     []SASnap          `json:"sas,omitempty"`
	Reasons map[string]uint64 `json:"dropReasons"`
	Trace   []TraceLine       `json:"trace,omitempty"`
}

// Snapshot reads every counter of the stack into one structure.  The
// counters are atomics read without a global lock, so the snapshot is
// per-counter (not cross-counter) consistent — the same guarantee
// netstat(8) ever had.
func (s *Stack) Snapshot() Snapshot {
	snap := Snapshot{
		Name:  s.Name,
		Time:  s.clock.Now(),
		IP6:   stat.SnapshotCounters(&s.V6.Stats),
		IP4:   stat.SnapshotCounters(&s.V4.Stats),
		ICMP6: stat.SnapshotCounters(&s.ICMP6.Stats),
		ICMP4: stat.SnapshotCounters(&s.ICMP4.Stats),
		TCP:   stat.SnapshotCounters(&s.TCP.Stats),
		UDP:   stat.SnapshotCounters(&s.UDP.Stats),
		IPsec: stat.SnapshotCounters(&s.Sec.Stats),
		Key:   stat.SnapshotCounters(&s.Keys.Stats),
		Netisr: NetisrSnapshot{
			Burst:   s.burst,
			Drops:   s.InqDrops.Get(),
			Depth:   s.inqDepth(),
			Wakeups: s.wakeups.Get(),
			Frames:  s.frames.Get(),
		},
		Limits:  s.limitsSnapshot(),
		Reasons: s.Drops.Reasons.Snapshot(),
	}
	// PolicyDrops lives outside the icmp6 Stats block (it pairs with
	// the InputPolicy hook); fold it in by hand.
	snap.ICMP6["PolicyDrops"] = s.ICMP6.PolicyDrops.Get()
	// TimeWaitCount is a gauge over the 2MSL table, not a counter in
	// the Stats block; fold it in the same way.
	snap.TCP["TimeWaitCount"] = uint64(s.TCP.TimeWaitCount())
	for _, t := range s.Tun.Tunnels() {
		cfg, st := t.Config(), t.Stats()
		row := TunnelSnap{
			Name:        t.Name,
			Mode:        t.Mode.String(),
			MTU:         t.Ifp.MTU(),
			Overhead:    t.Ifp.EncapOverhead(),
			Encapped:    st.Encapped,
			Decapped:    st.Decapped,
			InErrors:    st.InErrors,
			PMTUUpdates: st.PMTUUpdates,
		}
		if t.Mode == tunnel.Mode6in4 {
			row.Local, row.Remote = cfg.Local4.String(), cfg.Remote4.String()
		} else {
			row.Local, row.Remote = cfg.Local6.String(), cfg.Remote6.String()
		}
		snap.Tunnels = append(snap.Tunnels, row)
	}
	sas := s.Keys.Dump()
	sort.Slice(sas, func(i, j int) bool {
		if sas[i].SPI != sas[j].SPI {
			return sas[i].SPI < sas[j].SPI
		}
		return sas[i].Proto < sas[j].Proto
	})
	for _, sa := range sas {
		snap.SAs = append(snap.SAs, SASnap{
			SPI:         sa.SPI,
			Proto:       sa.Proto.String(),
			Dst:         sa.Dst.String(),
			AuthAlg:     sa.AuthAlg,
			EncAlg:      sa.EncAlg,
			InPkts:      atomic.LoadUint64(&sa.InPkts),
			InBytes:     atomic.LoadUint64(&sa.InBytes),
			OutPkts:     atomic.LoadUint64(&sa.OutPkts),
			OutBytes:    atomic.LoadUint64(&sa.OutBytes),
			ReplayDrops: atomic.LoadUint64(&sa.ReplayDrops),
			SeqOut:      atomic.LoadUint64(&sa.SeqOut),
		})
	}
	for _, ev := range s.Drops.Events() {
		snap.Trace = append(snap.Trace, TraceLine{
			Seq:    ev.Seq,
			Time:   ev.Time,
			Kind:   ev.Kind,
			Reason: ev.Reason,
			Detail: renderTrace(ev),
		})
	}
	return snap
}

// limitsSnapshot gathers the resource-governance gauges.  Occupancy
// reads take the per-subsystem locks briefly; like the counters, the
// result is per-limit consistent, not a cross-limit atomic view.
func (s *Stack) limitsSnapshot() LimitsSnapshot {
	return LimitsSnapshot{
		Reasm6: LimitSnapshot{
			Max:    ip.DefaultReasmMaxDatagrams,
			Cur:    s.V6.FragQueueLen(),
			Drops:  s.V6.Stats.ReasmOverflow.Get(),
			Reason: stat.RV6ReasmOverflow.String(),
		},
		Reasm4: LimitSnapshot{
			Max:    ip.DefaultReasmMaxDatagrams,
			Cur:    s.V4.FragQueueLen(),
			Drops:  s.V4.Stats.ReasmOverflow.Get(),
			Reason: stat.RV4ReasmOverflow.String(),
		},
		NDCache: LimitSnapshot{
			Max: route.DefaultNDCacheMax,
			Cur: s.RT.NeighborCount(inet.AFInet6) +
				s.RT.NeighborCount(inet.AFInet),
			Drops:  s.RT.NbrEvictions.Get(),
			Reason: stat.RNbrCacheEvicted.String(),
		},
		SynBacklog: LimitSnapshot{
			Max: tcp.DefaultSynBacklog,
			Cur: s.TCP.SynBacklogLen(),
		},
		TimeWait: LimitSnapshot{
			Max:    tcp.DefaultTimeWaitMax,
			Cur:    s.TCP.TimeWaitCount(),
			Drops:  s.TCP.Stats.TimeWaitOverflow.Get(),
			Reason: stat.RTCPTimeWaitOverflow.String(),
		},
		MbufQueue: LimitSnapshot{
			Max:    DefaultMbufLimit,
			Cur:    int(s.inqBytes.Load()),
			Drops:  s.MbufDrops.Get(),
			Reason: stat.RMbufLimit.String(),
		},
		PoolOutstanding: mbuf.Outstanding(),
	}
}

// Trace returns the rendered flight-recorder events, oldest first —
// the query surface for tests chasing a vanished packet.
func (s *Stack) Trace() []TraceLine {
	return s.Snapshot().Trace
}

// renderTrace turns a raw trace event into its one-line detail: the
// site-provided note when there is one, else the dropped packet's
// leading bytes through a dump decoder. IP-layer sites store whole
// datagrams; transport sites store their own header onward, so the
// decoder is chosen by the (stable) reason name.
func renderTrace(ev stat.TraceEvent) string {
	if ev.Note != "" {
		return ev.Note
	}
	if len(ev.Pkt) == 0 {
		return ""
	}
	switch {
	case strings.HasPrefix(ev.Reason, "udp-"):
		return dump.UDPSeg(ev.Pkt)
	case strings.HasPrefix(ev.Reason, "tcp-"):
		return dump.TCPSeg(ev.Pkt)
	case strings.HasPrefix(ev.Reason, "icmp6-"),
		strings.HasPrefix(ev.Reason, "nd-"),
		strings.HasPrefix(ev.Reason, "mld-"):
		return dump.ICMP6Msg(ev.Pkt)
	case strings.HasPrefix(ev.Reason, "arp-"):
		return dump.ARPPkt(ev.Pkt)
	}
	return dump.IP(ev.Pkt)
}

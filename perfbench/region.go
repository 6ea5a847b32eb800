package main

import (
	"runtime"
	"strings"
	"syscall"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/mbuf"
)

// usage is the process-level resource state at one instant.
type usage struct {
	t          time.Time
	cpu        time.Duration // user + system CPU of the whole process
	mallocs    uint64
	heapBytes  uint64 // cumulative bytes allocated
	gcPauseNs  uint64
	numGC      uint32
	mbufGets   uint64
	mbufSpills uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	gets, _, _ := mbuf.PoolStats()
	return usage{
		t:          time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:    ms.Mallocs,
		heapBytes:  ms.TotalAlloc,
		gcPauseNs:  ms.PauseTotalNs,
		numGC:      ms.NumGC,
		mbufGets:   gets,
		mbufSpills: mbuf.PrependSpills(),
	}
}

// region is a leg's measured interval: resource usage and every
// stack's counters at both ends.  In a traced pass it also runs the
// hub captures over exactly the interval, and replays the captured
// packets while the leg's connections are still open.
type region struct {
	u0, u1 usage
	s0, s1 []core.Snapshot

	traced bool
	pcbLen int
	replay metrics
}

// begin samples the counters first and the process last, so the
// snapshots' own allocations fall outside the region.
func (r *region) begin(b *bed, traced bool) {
	r.s0 = snapAll(b.stacks)
	if r.traced = traced; traced {
		for _, c := range b.caps {
			c.start()
		}
	}
	r.u0 = readUsage()
}

func (r *region) end(b *bed) {
	r.u1 = readUsage()
	if r.traced {
		for _, c := range b.caps {
			c.stop()
		}
		r.pcbLen = b.cli.TCP.Table.Len() + b.srv.TCP.Table.Len()
		r.replay = replay(b)
	}
	r.s1 = snapAll(b.stacks)
}

func snapAll(stacks []*core.Stack) []core.Snapshot {
	out := make([]core.Snapshot, len(stacks))
	for i, s := range stacks {
		out[i] = s.Snapshot()
	}
	return out
}

func (r *region) secs() float64 { return r.u1.t.Sub(r.u0.t).Seconds() }

// sum is the change of one counter over the region, summed over every
// stack of the bed.  block names the Snapshot map: ip6, ip4, tcp, udp,
// ipsec, key.
func (r *region) sum(block, name string) float64 {
	pick := func(s core.Snapshot) map[string]uint64 {
		switch block {
		case "ip6":
			return s.IP6
		case "ip4":
			return s.IP4
		case "tcp":
			return s.TCP
		case "udp":
			return s.UDP
		case "ipsec":
			return s.IPsec
		case "key":
			return s.Key
		}
		return nil
	}
	t := 0.0
	for i := range r.s1 {
		t += float64(pick(r.s1[i])[name]) - float64(pick(r.s0[i])[name])
	}
	return t
}

// inqDrops is the netisr input-queue drops over the region, all stacks.
func (r *region) inqDrops() float64 {
	t := 0.0
	for i := range r.s1 {
		t += float64(r.s1[i].Netisr.Drops) - float64(r.s0[i].Netisr.Drops)
	}
	return t
}

// drops returns the drop-reason deltas over the region, all stacks,
// keeping only reasons that moved.
func (r *region) drops() map[string]uint64 {
	out := make(map[string]uint64)
	for i := range r.s1 {
		for k, v := range r.s1[i].Reasons {
			if d := v - r.s0[i].Reasons[k]; d > 0 {
				out[k] += d
			}
		}
	}
	return out
}

// dropsWithPrefix sums the reason deltas whose name starts with p.
func dropsWithPrefix(d map[string]uint64, p string) float64 {
	t := 0.0
	for k, v := range d {
		if strings.HasPrefix(k, p) {
			t += float64(v)
		}
	}
	return t
}

// counterDeltas lists every counter that moved over the region, per
// stack, for the results file: deltas only, never whole snapshots.
func (r *region) counterDeltas() map[string]map[string]uint64 {
	out := make(map[string]map[string]uint64)
	for i := range r.s1 {
		a, b := r.s0[i], r.s1[i]
		m := make(map[string]uint64)
		for _, blk := range []struct {
			name   string
			m0, m1 map[string]uint64
		}{
			{"ip6", a.IP6, b.IP6}, {"ip4", a.IP4, b.IP4}, {"icmp6", a.ICMP6, b.ICMP6},
			{"icmp4", a.ICMP4, b.ICMP4}, {"tcp", a.TCP, b.TCP}, {"udp", a.UDP, b.UDP},
			{"ipsec", a.IPsec, b.IPsec}, {"key", a.Key, b.Key}, {"drop", a.Reasons, b.Reasons},
		} {
			for k, v := range blk.m1 {
				if v > blk.m0[k] {
					m[blk.name+"."+k] = v - blk.m0[k]
				}
			}
		}
		if d := b.Netisr.Drops - a.Netisr.Drops; d > 0 {
			m["netisr.Drops"] = d
		}
		out[b.Name] = m
	}
	return out
}

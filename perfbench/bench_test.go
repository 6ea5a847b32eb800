package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
)

func TestHistQuantileHasCountAndTracksExact(t *testing.T) {
	var h hist
	if v, n := h.quantile(0.5); v != 0 || n != 0 {
		t.Fatalf("empty histogram: quantile %v count %d, want 0 0", v, n)
	}
	rng := rand.New(rand.NewSource(1))
	var vals []float64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 50_000) // a long-tailed latency sample
		h.add(v)
		vals = append(vals, float64(v))
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, n := h.quantile(q)
		if n != int64(len(vals)) {
			t.Errorf("q=%v: count %d, want %d", q, n, len(vals))
		}
		want := vals[int(q*float64(len(vals)-1))]
		if d := (got - want) / want; d > 0.01 || d < -0.01 {
			t.Errorf("q=%v: %v, exact %v (%.2f%% off)", q, got, want, d*100)
		}
	}
	if !tailOK(0.99, 1000) || tailOK(0.99, 999) {
		t.Error("tailOK: p99 needs ten samples beyond it, so 1000 samples")
	}
}

// Merged slice histograms give the quantile of all their samples.
func TestHistMergeKeepsEverySample(t *testing.T) {
	var a, b, all hist
	for i := int64(1); i <= 1000; i++ {
		if i%3 == 0 {
			a.add(i * 100)
		} else {
			b.add(i * 100)
		}
		all.add(i * 100)
	}
	a.merge(&b)
	for _, q := range []float64{0.1, 0.5, 0.99} {
		got, n := a.quantile(q)
		want, wn := all.quantile(q)
		if got != want || n != wn {
			t.Errorf("q=%v: merged %v (n=%d), all %v (n=%d)", q, got, n, want, wn)
		}
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []uint32{0, 1, 127, 128, 129, 255, 256, 1000, 65535, 1 << 20, 1<<32 - 1} {
		lo, w := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+w {
			t.Errorf("value %d landed in bucket [%v, %v)", v, lo, lo+w)
		}
	}
}

func TestRatioCarriesItsBase(t *testing.T) {
	r := ratio{3, 4, "ops"}
	if r.value() != 0.75 {
		t.Errorf("value %v, want 0.75", r.value())
	}
	if s := r.String(); !strings.Contains(s, "(3 / 4 ops)") {
		t.Errorf("String %q does not show its base", s)
	}
	if v := (ratio{5, 0, "GRO flushes"}).value(); v != 0 {
		t.Errorf("empty base: value %v, want 0", v)
	}
	m := make(metrics)
	m.ratio("tcp.gro_segs_per_super", "ratio", ratio{12, 3, "GRO flushes"})
	if got := m["tcp.gro_segs_per_super"]; got.v != 4 || !strings.Contains(got.base, "3 GRO flushes") {
		t.Errorf("metric %+v lost its base", got)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []span{
		{start: 0, end: 100, parent: -1},   // 0: op
		{start: 10, end: 30, parent: 0},    // 1: child
		{start: 20, end: 40, parent: 0},    // 2: overlaps child 1
		{start: 50, end: 60, parent: 0},    // 3: child
		{start: 90, end: 120, parent: 0},   // 4: runs past its parent's end
		{start: 52, end: 55, parent: 3},    // 5: grandchild
		{start: 200, end: 210, parent: -1}, // 6: another root
	}
	want := []int64{100 - 30 - 10 - 10, 20, 20, 10 - 3, 30, 3, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSeedFixesInputs(t *testing.T) {
	a, b, c := newInputs(7), newInputs(7), newInputs(8)
	if !bytes.Equal(a.pattern, b.pattern) || a.port != b.port {
		t.Fatal("the same seed generated different inputs")
	}
	if bytes.Equal(a.pattern, c.pattern) {
		t.Fatal("different seeds generated the same payload")
	}
	// Any window, including one that wraps the period, is the seeded
	// sequence at that offset.
	for _, off := range []int64{0, patternLen - 100, 5 * patternLen} {
		if !a.matches(off, a.at(off, 8192)) || a.matches(off+1, a.at(off, 8192)) {
			t.Errorf("offset %d: payload window does not match the sequence", off)
		}
	}
}

func TestPathSplitDividesATransaction(t *testing.T) {
	txns := []span{{start: 1000, end: 1100}}
	frames := []frameRec{
		{t: 900, src: 1, plen: 64},  // an earlier transaction
		{t: 1010, src: 1, plen: 64}, // request
		{t: 1030, src: 2, plen: 0},  // pure ACK, not the reply
		{t: 1060, src: 2, plen: 64}, // reply
		{t: 1200, src: 1, plen: 64}, // a later transaction
	}
	out, turn, in := pathSplit(txns, frames, 1)
	for name, c := range map[string]struct {
		h    *hist
		want float64
	}{"out": {out, 10}, "turn": {turn, 50}, "in": {in, 40}} {
		if v, n := c.h.quantile(0.5); n != 1 || v < c.want || v >= c.want+1 {
			t.Errorf("%s: %v (n=%d), want %v", name, v, n, c.want)
		}
	}
}

// A deadline with work outstanding is a stall: the operation it serves
// is stalled, not failed.  With nothing outstanding it is only an idle
// peer.  A call that fails outright fails its operation.
func TestFailedOpAccounting(t *testing.T) {
	r := &run{in: newInputs(1), a: &acct{}, base: time.Now()}
	b := newPair(false, r.base)
	defer b.close()
	if err := b.ready(r, []listenSpec{{"rr6", inet.AFInet6, 0, 0, false, true}}); err != nil {
		t.Fatal(err)
	}
	srvc := make(chan *core.Socket, 1)
	go func() {
		c, _ := r.a.accept(b.listeners["rr6"], func() bool { return true }, nil, nil)
		srvc <- c
	}()
	cli, err := r.a.dialRetry(b.cli, inet.AFInet6, b.dst(inet.AFInet6, r.in.port), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-srvc
	if srv == nil {
		t.Fatal("accept failed")
	}
	defer srv.Close()

	var stop atomic.Bool
	buf := make([]byte, rrSize)
	var l legResult
	st := r.a.stamp()
	pending := func() bool { stop.Store(true); return true } // outstanding once, then stop
	if _, err := r.a.readSome(srv, buf, pending, &stop, nil, -1, -1); !isTimeout(err) {
		t.Fatalf("readSome on a silent peer: %v, want a deadline", err)
	}
	l.tally(r.a, st)
	if got := r.a.stallsByCall()["ReadInto"]; got != 1 || l.stalled != 1 || l.failed != 0 {
		t.Errorf("outstanding wait: %d ReadInto stalls, %d stalled, %d failed ops; want 1, 1, 0", got, l.stalled, l.failed)
	}
	st = r.a.stamp()
	if _, err := r.a.readSome(srv, buf, func() bool { return false }, &stop, nil, -1, -1); !isTimeout(err) {
		t.Fatalf("readSome when stopped: %v, want a deadline", err)
	}
	l.tally(r.a, st)
	if l.stalled != 1 || l.failed != 0 {
		t.Error("an idle wait counted as a stall or a failure")
	}
	st = r.a.stamp()
	r.a.stall("Send")
	r.a.fail("Send", errors.New("reset"))
	l.tally(r.a, st)
	if l.attempted != 3 || l.stalled != 1 || l.failed != 1 || r.a.errs.Load() != 1 {
		t.Errorf("a failed call: %d attempted, %d stalled, %d failed; want 3, 1, 1", l.attempted, l.stalled, l.failed)
	}
	// Work outstanding that never arrives ends the wait instead of
	// hanging the run.
	if _, err := r.a.readSome(srv, buf, func() bool { return true }, nil, nil, -1, -1); !errors.Is(err, errStuck) {
		t.Errorf("readSome with work outstanding and no data: %v, want errStuck", err)
	}
}

// A short rr leg accounts every transaction it starts, fills every
// slice, and sees every echo intact.
func TestRRLegAccounting(t *testing.T) {
	r := &run{in: newInputs(3), a: &acct{}, base: time.Now()}
	b := newPair(false, r.base)
	if err := b.ready(r, []listenSpec{{"rr6", inet.AFInet6, 0, 0, false, true}}); err != nil {
		t.Fatal(err)
	}
	res := rrLeg(r, b, "rr6", inet.AFInet6, r.in.port, 20*time.Millisecond, 200*time.Millisecond)
	b.shutdown()
	if len(res.slices) != slicesPerLeg {
		t.Errorf("%d slices, want %d", len(res.slices), slicesPerLeg)
	}
	if res.ops == 0 || res.attempted != res.ops {
		t.Errorf("ops %d attempted %d: every started transaction must complete or fail", res.ops, res.attempted)
	}
	var samples int64
	for _, s := range res.slices {
		samples += s.lat.n
	}
	if samples != res.ops {
		t.Errorf("%d latency samples for %d ops", samples, res.ops)
	}
	if res.failed != 0 || res.stalled > r.a.stalls.Load() || r.a.errs.Load() != 0 || r.a.mismatches.Load() != 0 {
		t.Errorf("failed %d, stalled %d with %d stalls, %d errors, %d mismatches", res.failed, res.stalled, r.a.stalls.Load(), r.a.errs.Load(), r.a.mismatches.Load())
	}
}

// BENCHMARK.json repeats the metric and workload tables; they must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		file []struct{ Name, Unit, Better string }
		prog []metricDef
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.file) != len(c.prog) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d in the program", len(c.file), len(c.prog))
		}
		for i, d := range c.prog {
			if f := c.file[i]; f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the program %+v", i, f, d)
			}
		}
	}
}

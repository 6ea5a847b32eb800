package netperf_test

import (
	"encoding/json"
	"reflect"
	"slices"
	"testing"

	"bsd6/internal/core"
	"bsd6/internal/netperf"
)

// TestMeasure takes a tiny cell and checks what every table cell
// carries: Trials trials per leg, run with the legs' order alternating,
// and quartiles that bracket the median.
func TestMeasure(t *testing.T) {
	tb := newTestbed(t)
	var order []string
	leg := func(name string, v6 bool) netperf.Leg {
		return netperf.Leg{Name: name, Dst: tb.Addr(v6, 0), Tune: func(*core.Socket) { order = append(order, name) }}
	}
	stats, err := netperf.Measure(netperf.Cell{Cli: tb.Cli, Srv: tb.Srv,
		Legs: []netperf.Leg{leg("IPv4", false), leg("IPv6", true)}, Size: 8, Iters: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Each leg's socket is tuned once for its server, once for the
	// warm-up and once per trial.
	want := []string{"IPv4", "IPv6", "IPv6", "IPv4", "IPv4", "IPv6", "IPv6", "IPv4", "IPv4", "IPv6"}
	if len(order) != 4+2*netperf.Trials || !slices.Equal(order[4:], want) {
		t.Fatalf("trial order %v, want set-up then %v", order, want)
	}
	for i, st := range stats {
		if st.Leg != []string{"IPv4", "IPv6"}[i] || st.N != netperf.Trials || len(st.Trials) != netperf.Trials {
			t.Fatalf("leg %d: %+v, want %d trials", i, st, netperf.Trials)
		}
		if !(0 < st.Q1 && st.Q1 <= st.Median && st.Median <= st.Q3) || st.IQR != st.Q3-st.Q1 {
			t.Fatalf("leg %s: q1 %v, median %v, q3 %v, iqr %v", st.Leg, st.Q1, st.Median, st.Q3, st.IQR)
		}
	}

	var tab netperf.Table
	tab.Count(tb.Cli, tb.Srv)
	if tab.Counters["udp.OutDatagrams"] == 0 || tab.Counters["udp.InV4ToV6"] == 0 {
		t.Fatalf("counters %v lack the cell's datagrams", tab.Counters)
	}
	for name, n := range tab.Counters {
		if n == 0 {
			t.Fatalf("zero counter %s recorded", name)
		}
	}
}

// TestRepeatQuartiles pins the summary arithmetic: the quartiles are
// trials of the nearest rank, and the trials keep their run order.
func TestRepeatQuartiles(t *testing.T) {
	figs := []float64{5, 1, 4, 2, 3}
	next := 0
	stats, err := netperf.Repeat(func() (float64, error) { next++; return figs[next-1], nil })
	if err != nil {
		t.Fatal(err)
	}
	want := netperf.Stat{N: 5, Median: 3, IQR: 2, Q1: 2, Q3: 4, Trials: figs}
	if !reflect.DeepEqual(stats, []netperf.Stat{want}) {
		t.Fatalf("got %+v, want %+v", stats, want)
	}
}

// TestReportRoundTrip pins BENCH.json's schema: a report survives a
// round trip, and a cell's figures sit under the names readers use.
func TestReportRoundTrip(t *testing.T) {
	st := netperf.Stat{Leg: "IPv6", N: 5, Median: 3, IQR: 2, Q1: 2, Q3: 4, Trials: []float64{5, 1, 4, 2, 3}}
	in := netperf.Report{Date: "2026-10-19", Trials: netperf.Trials, Iters: 2000, MB: 8, Tables: []netperf.Table{{
		Name: "table3", Unit: "KB/s", Key: "data/sockbuf",
		Rows:     []netperf.Row{{Label: "4096/57344", Stats: []netperf.Stat{st}}},
		Counters: map[string]uint64{"tcp.SndPack": 7, "drop.link-filtered": 1},
	}}}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out netperf.Report
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", out, in)
	}
	var raw struct {
		Tables []struct {
			Rows []struct {
				Stats []map[string]any
			}
			Counters map[string]uint64
		}
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	cell := raw.Tables[0].Rows[0].Stats[0]
	for _, k := range []string{"leg", "n", "median", "iqr", "q1", "q3", "trials"} {
		if _, ok := cell[k]; !ok {
			t.Errorf("cell %v lacks %q", cell, k)
		}
	}
	if raw.Tables[0].Counters["tcp.SndPack"] != 7 {
		t.Errorf("counters %v", raw.Tables[0].Counters)
	}
}

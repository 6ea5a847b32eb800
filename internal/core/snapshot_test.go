package core_test

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/testnet"
)

// TestSnapshotObservability drives real traffic plus a genuine drop
// through two stacks and checks the whole observability surface: the
// drop lands under its typed reason, the snapshot JSON round-trips,
// and Netstat() is rendered from the same numbers.
func TestSnapshotObservability(t *testing.T) {
	a, b, _ := stackPair(t)

	// A datagram to a port nobody listens on: delivered by IPv6,
	// discarded by UDP under the udp-no-port reason.
	cli, err := a.NewSocket(inet.AFInet6, core.SockDgram)
	if err != nil {
		t.Fatal(err)
	}
	sa := core.Sockaddr6{Family: inet.AFInet6, Port: 9999, Addr: linkLocal(b)}
	if err := cli.SendTo([]byte("nobody home"), sa); err != nil {
		t.Fatal(err)
	}
	testnet.WaitFor(t, "udp-no-port drop", func() bool {
		return b.Snapshot().Reasons["udp-no-port"] >= 1
	})

	snap := b.Snapshot()
	if snap.Name != "b" {
		t.Fatalf("snapshot name = %q", snap.Name)
	}
	if snap.IP6["InReceives"] == 0 || snap.IP6["InDelivers"] == 0 {
		t.Fatalf("ip6 counters missing from snapshot: %v", snap.IP6)
	}
	if snap.UDP["InNoPorts"] == 0 {
		t.Fatal("UDP InNoPorts not in snapshot")
	}
	if snap.Netisr.Burst != core.BurstSize {
		t.Fatalf("netisr burst = %d, want %d", snap.Netisr.Burst, core.BurstSize)
	}
	// The flight recorder holds the drop with its rendered detail.
	found := false
	for _, tl := range snap.Trace {
		if tl.Kind == "drop" && tl.Reason == "udp-no-port" {
			found = true
			if tl.Detail == "" {
				t.Fatal("trace event has no rendered detail")
			}
			if tl.Time.IsZero() {
				t.Fatal("trace event not stamped with the virtual clock")
			}
		}
	}
	if !found {
		t.Fatalf("udp-no-port missing from trace: %+v", snap.Trace)
	}

	// JSON round-trip: the structured form survives serialization.
	blob, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back core.Snapshot
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Name != snap.Name || back.IP6["InReceives"] != snap.IP6["InReceives"] ||
		back.Reasons["udp-no-port"] != snap.Reasons["udp-no-port"] ||
		len(back.Trace) != len(snap.Trace) {
		t.Fatalf("JSON round-trip lost data:\n%s", blob)
	}

	// Netstat is a view over the same snapshot: the text must carry
	// the reason map and the trace tail.
	ns := b.Netstat()
	for _, want := range []string{"udp-no-port=", "drops:", "trace (last"} {
		if !strings.Contains(ns, want) {
			t.Fatalf("Netstat missing %q:\n%s", want, ns)
		}
	}
}

// TestSnapshotIPKeySets pins the ip4 and ip6 Snapshot key sets.  The
// snapshot reads only a Stats struct's own Counter fields, so a
// counter moved into an embedded struct would drop its key without a
// compile error, and perfbench and netstat read these keys by name.
func TestSnapshotIPKeySets(t *testing.T) {
	s := core.NewStack("keys", core.Options{})
	t.Cleanup(s.Close)
	snap := s.Snapshot()
	for _, tc := range []struct {
		block string
		got   map[string]uint64
		want  []string
	}{
		{"ip4", snap.IP4, []string{
			"InReceives", "InHdrErrors", "InAddrErrors", "InUnknownProt",
			"InDelivers", "ReasmOverflow", "Forwarded", "FwdCacheHits",
			"OutRequests", "OutNoRoute", "OutDrops", "FragsCreated",
			"FragsReceived", "Reassembled", "ReasmFails", "ArpRequests",
			"ArpReplies", "ArpBad",
		}},
		{"ip6", snap.IP6, []string{
			"InReceives", "InHdrErrors", "InAddrErrors", "InUnknownProt",
			"InTruncated", "InDelivers", "ReasmOverflow", "InOptErrors",
			"Forwarded", "FwdCacheHits", "OutRequests", "OutNoRoute",
			"OutDrops", "OutFrags", "FragsReceived", "Reassembled",
			"ReasmFails", "RouteHdrSeen", "FastPathHits", "PreparseRuns",
		}},
	} {
		var got []string
		for k := range tc.got {
			got = append(got, k)
		}
		sort.Strings(got)
		want := append([]string(nil), tc.want...)
		sort.Strings(want)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s keys:\n got  %v\n want %v", tc.block, got, want)
		}
	}
}

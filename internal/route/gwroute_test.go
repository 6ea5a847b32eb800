package route

import (
	"testing"

	"bsd6/internal/inet"
)

// gwFamily is one address family's worth of addresses for the held
// gateway route test: an on-link prefix, two gateways on it and a
// remote prefix reached through them.
type gwFamily struct {
	fam            inet.Family
	onlink, remote []byte
	plen           int
	gw1, gw2       []byte
	gwAddr         func(b []byte) any // the typed Gateway value of an indirect route
}

func gwFamilies(t *testing.T) []gwFamily {
	v6 := func(s string) []byte { a := ip6(t, s); return a[:] }
	v4 := func(a ...byte) []byte { return a }
	return []gwFamily{
		{
			fam: inet.AFInet6, onlink: v6("2001:db8:1::"), remote: v6("2001:db8:9::"), plen: 64,
			gw1: v6("2001:db8:1::1"), gw2: v6("2001:db8:1::2"),
			gwAddr: func(b []byte) any { var a inet.IP6; copy(a[:], b); return a },
		},
		{
			fam: inet.AFInet, onlink: v4(10, 0, 1, 0), remote: v4(10, 9, 0, 0), plen: 24,
			gw1: v4(10, 0, 1, 1), gw2: v4(10, 0, 1, 2),
			gwAddr: func(b []byte) any { var a inet.IP4; copy(a[:], b); return a },
		},
	}
}

// TestHeldGatewayRouteFollowsTableChanges checks the rt_gwroute hold
// against an uncached lookup after each change that can make it stale:
// a PMTU Change, a neighbor entry replaced, the gateway changed (by
// Change, and in place by Mutate, which bumps no generation) and the
// neighbor route deleted.  Each must show on the very next call, as the
// next packet's transmit would make it.
func TestHeldGatewayRouteFollowsTableChanges(t *testing.T) {
	for _, f := range gwFamilies(t) {
		t.Run(f.fam.String(), func(t *testing.T) {
			tb := NewTable()
			tb.Add(&Entry{Family: f.fam, Dst: f.onlink, Plen: f.plen,
				Flags: FlagUp | FlagCloning | FlagLLInfo, IfName: "e0"})
			neighbor := func(gw []byte, mac byte) *Entry {
				return tb.Add(&Entry{Family: f.fam, Dst: append([]byte(nil), gw...), Plen: len(gw) * 8,
					Gateway: inet.LinkAddr{2, 0, 0, 0, 0, mac},
					Flags:   FlagUp | FlagLLInfo | FlagDynamic, IfName: "e0"})
			}
			n1 := neighbor(f.gw1, 1)
			n2 := neighbor(f.gw2, 2)
			ind := tb.Add(&Entry{Family: f.fam, Dst: f.remote, Plen: f.plen,
				Gateway: f.gwAddr(f.gw1), Flags: FlagUp | FlagGateway | FlagStatic, IfName: "e0"})

			// next is what transmit does for one packet: read the
			// gateway under the lock, then take its neighbor route.
			next := func(step string, want *Entry) {
				t.Helper()
				var gw []byte
				tb.View(func() {
					switch g := ind.Gateway.(type) {
					case inet.IP6:
						gw = g[:]
					case inet.IP4:
						gw = g[:]
					}
				})
				got, ok := tb.GatewayRoute(ind, gw)
				ref, refOK := tb.Lookup(f.fam, gw)
				if !ok || !refOK || got != ref {
					t.Fatalf("%s: held %v (%v), uncached lookup %v (%v)", step, got, ok, ref, refOK)
				}
				if want != nil && got != want {
					t.Fatalf("%s: got %v, want %v", step, got, want)
				}
				if ind.gwRoute.p.Load() == nil {
					t.Fatalf("%s: nothing held after the lookup", step)
				}
			}

			next("cold", n1)
			next("warm", n1)

			tb.Change(n1, func(e *Entry) { e.MTU = 1280 })
			next("PMTU change", n1)

			n1b := neighbor(f.gw1, 3)
			next("neighbor entry replaced", n1b)

			tb.Change(ind, func(e *Entry) { e.Gateway = f.gwAddr(f.gw2) })
			next("gateway changed", n2)

			tb.Mutate(func() { ind.Gateway = f.gwAddr(f.gw1) })
			next("gateway changed in place", n1b)

			if _, ok := tb.Delete(f.fam, f.gw1, len(f.gw1)*8); !ok {
				t.Fatal("delete of the gateway's neighbor route failed")
			}
			next("neighbor route deleted", nil)
			if got, _ := tb.GatewayRoute(ind, f.gw1); got == n1b || got.Gateway != nil {
				t.Fatalf("after delete: got %v, want a fresh unresolved clone", got)
			}
		})
	}
}

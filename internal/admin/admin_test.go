package admin

import (
	"encoding/json"
	"reflect"
	"sort"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/netif"
	"bsd6/internal/vclock"
)

func testStack(t *testing.T) *core.Stack {
	t.Helper()
	// A virtual clock that is never advanced: the stack's timers
	// never fire, so every answer reads the configured state.
	s := core.NewStack("a1", core.Options{Clock: vclock.NewVirtual(time.Unix(1_000_000, 0))})
	t.Cleanup(s.Close)
	hub := netif.NewHub()
	ifp := s.AttachLink(hub, inet.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	s.ConfigureV6(ifp, inet.IP6{0x20, 0x01, 0x0d, 0xb8, 15: 1}, 64)
	return s
}

func testServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := NewServer(testStack(t), NodeInfo{
		Name: "a1", Router: true,
		Peers: []Peer{{Name: "b1", Link: 0, Addr: "2001:db8::2", MTU: 1500}},
	})
	n := NewNetwork()
	if err := n.Register(s); err != nil {
		t.Fatal(err)
	}
	cl, err := Connect(n, "a1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return s, cl
}

func TestListMatchesRequestNames(t *testing.T) {
	_, cl := testServer(t)
	var list RequestList
	if err := cl.Do("list", nil, &list); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(list.Requests, RequestNames()) {
		t.Fatalf("list = %v, want %v", list.Requests, RequestNames())
	}
	if !sort.StringsAreSorted(list.Requests) {
		t.Fatalf("request names not sorted: %v", list.Requests)
	}
}

func TestEveryRequestAnswers(t *testing.T) {
	_, cl := testServer(t)
	for _, name := range RequestNames() {
		var raw json.RawMessage
		if err := cl.Do(name, nil, &raw); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if len(raw) == 0 {
			t.Errorf("%s: empty response", name)
		}
	}
}

func TestGetSelfAndPeers(t *testing.T) {
	_, cl := testServer(t)
	var self Self
	if err := cl.Do("getSelf", nil, &self); err != nil {
		t.Fatal(err)
	}
	if self.Name != "a1" || !self.Router || self.Peers != 1 {
		t.Fatalf("getSelf = %+v", self)
	}
	var peers Peers
	if err := cl.Do("getPeers", nil, &peers); err != nil {
		t.Fatal(err)
	}
	if len(peers.Peers) != 1 || peers.Peers[0].Name != "b1" {
		t.Fatalf("getPeers = %+v", peers)
	}
}

func TestGetRoutes(t *testing.T) {
	_, cl := testServer(t)
	var routes Routes
	if err := cl.Do("getRoutes", routesArgs{Family: "inet6"}, &routes); err != nil {
		t.Fatal(err)
	}
	if routes.Count == 0 || routes.Count != len(routes.Routes) {
		t.Fatalf("getRoutes = %+v", routes)
	}
	found := false
	for _, r := range routes.Routes {
		if r.Dst == "2001:db8::/64" && r.Flags == "UCL" {
			found = true
		}
	}
	if !found {
		t.Fatalf("configured prefix missing from %+v", routes.Routes)
	}
	// Default family is inet6.
	var def Routes
	if err := cl.Do("getRoutes", nil, &def); err != nil {
		t.Fatal(err)
	}
	if def.Family != "inet6" || def.Count != routes.Count {
		t.Fatalf("default-family getRoutes = %+v", def)
	}
}

func TestErrorCases(t *testing.T) {
	_, cl := testServer(t)
	if err := cl.Do("noSuchRequest", nil, nil); err == nil {
		t.Fatal("unknown request did not error")
	}
	if err := cl.Do("", nil, nil); err == nil {
		t.Fatal("missing request field did not error")
	}
	if err := cl.Do("getRoutes", routesArgs{Family: "ipx"}, nil); err == nil {
		t.Fatal("bad family did not error")
	}
	// The connection survives protocol errors.
	if err := cl.Do("getSelf", nil, nil); err != nil {
		t.Fatalf("connection dead after error responses: %v", err)
	}
}

func TestMalformedJSON(t *testing.T) {
	s := NewServer(testStack(t), NodeInfo{Name: "a1"})
	n := NewNetwork()
	if err := n.Register(s); err != nil {
		t.Fatal(err)
	}
	conn, err := n.Dial("a1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("{not json}\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "error" {
		t.Fatalf("malformed line answered %+v", resp)
	}
	// The server closes the connection after a framing error.
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("connection still open after framing error")
	}
}

func TestNetworkRegistry(t *testing.T) {
	n := NewNetwork()
	s := NewServer(testStack(t), NodeInfo{Name: "a1"})
	if err := n.Register(s); err != nil {
		t.Fatal(err)
	}
	if err := n.Register(s); err == nil {
		t.Fatal("duplicate registration allowed")
	}
	if _, err := n.Dial("ghost"); err == nil {
		t.Fatal("dial of unknown node succeeded")
	}
	if got := n.Names(); len(got) != 1 || got[0] != "a1" {
		t.Fatalf("Names = %v", got)
	}
}

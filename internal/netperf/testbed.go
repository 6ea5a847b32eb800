package netperf

import (
	"time"

	"bsd6/internal/core"
	"bsd6/internal/inet"
	"bsd6/internal/ipsec"
	"bsd6/internal/key"
	"bsd6/internal/netif"
)

// The paper's grids (§7).
var (
	LatencySizes = []int{1, 64, 1024, 2048, 4096, 8192}      // Tables 1 and 2: message bytes
	Figure8Sizes = []int{1, 64, 256, 1024, 2048, 4096, 8192} // Figure 8's curves
	TCPDataSizes = []int{4096, 8192, 32768}                  // Table 3 rows: bytes per write
	TCPSockBufs  = []int{57344, 32768, 8192}                 // Table 3 columns
	UDPDataSizes = []int{64, 1024}                           // Table 4
)

// The fixed parameters of Tables 4 and 5.
const (
	UDPSockBuf = 32767 // Table 4's socket buffers
	SecMsg     = 8192  // Table 5's ttcp writes
	SecSockBuf = 32768 // and its socket buffers
)

// SecCase is one of Table 5's security configurations: the services
// both ends' sockets require.
type SecCase struct {
	Name string
	Tune SocketTuner
}

// SecCases are the paper's four Table 5 rows.
var SecCases = []SecCase{
	{"None", nil},
	{"Authentication", func(s *core.Socket) {
		s.SetSecurity(core.SoSecurityAuthentication, ipsec.LevelRequire)
	}},
	{"Encryption", func(s *core.Socket) {
		s.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire)
	}},
	{"Both", func(s *core.Socket) {
		s.SetSecurity(core.SoSecurityAuthentication, ipsec.LevelRequire)
		s.SetSecurity(core.SoSecurityEncryptTrans, ipsec.LevelRequire)
	}},
}

// Transforms is a transform family for Table 5: the AH and ESP
// algorithms, and keys of the sizes they take.
type Transforms struct {
	AH, ESP       string
	AHKey, ESPKey []byte
}

// The two families Table 5 is measured under: the paper's mandatory
// algorithms (§3: keyed MD5 and DES-CBC) and the switch's AEAD entries
// (HMAC-SHA-256 and AES-GCM, whose key is 16 bytes and a 4-byte salt).
var (
	Classic = Transforms{"keyed-md5", "des-cbc", KeyOf(16), []byte("DESCBC!!")}
	AEAD    = Transforms{"hmac-sha256", "aes-gcm", KeyOf(32), KeyOf(20)}
)

// KeyOf derives a deterministic n-byte key.
func KeyOf(n int) []byte {
	k := make([]byte, n)
	for i := range k {
		k[i] = byte(i*7 + 13)
	}
	return k
}

// Testbed is §7's measurement setup: a client and a server stack, two
// dual-stack hosts on one lossless simulated Ethernet (the paper's
// pair of systems on one wire).  Cli6 and Dst6 are their link-local
// IPv6 addresses and Dst4 is the server's IPv4 address.
type Testbed struct {
	Cli, Srv   *core.Stack
	Dst4       inet.IP4
	Cli6, Dst6 inet.IP6
	epoch      byte // SetSAs generations
}

// NewTestbed builds the two stacks and their link.
func NewTestbed() *Testbed {
	hub := netif.NewHub()
	cli := core.NewStack("cli", core.Options{})
	srv := core.NewStack("srv", core.Options{})
	cIf := cli.AttachLink(hub, inet.LinkAddr{2, 0, 0, 0, 0, 1}, 1500)
	sIf := srv.AttachLink(hub, inet.LinkAddr{2, 0, 0, 0, 0, 2}, 1500)
	dst4 := inet.IP4{10, 0, 0, 2}
	cli.ConfigureV4(cIf, inet.IP4{10, 0, 0, 1}, 24)
	srv.ConfigureV4(sIf, dst4, 24)
	cli6, _ := cIf.LinkLocal6(time.Now())
	dst6, _ := sIf.LinkLocal6(time.Now())
	return &Testbed{Cli: cli, Srv: srv, Dst4: dst4, Cli6: cli6, Dst6: dst6}
}

// Close shuts both stacks down.
func (tb *Testbed) Close() {
	tb.Cli.Close()
	tb.Srv.Close()
}

// Addr is the server's IPv6 or IPv4 address with port.
func (tb *Testbed) Addr(v6 bool, port uint16) core.Sockaddr6 {
	if v6 {
		return core.Addr6(tb.Dst6, port)
	}
	return core.Addr4(tb.Dst4, port)
}

// Legs are the cell legs the paper compares, IPv4 and IPv6 to the
// server.
func (tb *Testbed) Legs() []Leg {
	return []Leg{{Name: "IPv4", Dst: tb.Addr(false, 0)}, {Name: "IPv6", Dst: tb.Addr(true, 0)}}
}

// SetSAs flushes both Key Engines and installs AH and ESP transport
// associations each way under f.  Each call salts the keys afresh, so
// a straggler from an earlier generation's dying connections fails the
// ICV instead of sliding a same-keyed association's replay window.
func (tb *Testbed) SetSAs(f Transforms) error {
	tb.epoch++
	salt := func(k []byte) []byte {
		out := append([]byte(nil), k...)
		out[0] ^= tb.epoch
		return out
	}
	ahKey, espKey := salt(f.AHKey), salt(f.ESPKey)
	for _, s := range []*core.Stack{tb.Cli, tb.Srv} {
		s.Keys.Flush()
		for _, sa := range []*key.SA{
			{SPI: 0x100, Src: tb.Cli6, Dst: tb.Dst6, Proto: key.ProtoAH, AuthAlg: f.AH, AuthKey: ahKey},
			{SPI: 0x101, Src: tb.Dst6, Dst: tb.Cli6, Proto: key.ProtoAH, AuthAlg: f.AH, AuthKey: ahKey},
			{SPI: 0x200, Src: tb.Cli6, Dst: tb.Dst6, Proto: key.ProtoESPTransport, EncAlg: f.ESP, EncKey: espKey},
			{SPI: 0x201, Src: tb.Dst6, Dst: tb.Cli6, Proto: key.ProtoESPTransport, EncAlg: f.ESP, EncKey: espKey},
		} {
			if err := s.Keys.Add(sa); err != nil {
				return err
			}
		}
	}
	return nil
}

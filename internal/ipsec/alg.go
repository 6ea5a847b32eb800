// Package ipsec implements the IPv6 security mechanisms of §3: the
// Authentication Header (RFC 1826) with keyed MD5 (RFC 1828), the
// Encapsulating Security Payload (RFC 1827) with DES-CBC (RFC 1829) in
// transport and tunnel modes, the algorithm switches that make both
// algorithm-independent (§3.6), and the separated policy engine
// (ipsec_output_policy / ipsec_input_policy, §3.3-§3.5).
package ipsec

import (
	"crypto/cipher"
	"crypto/des"
	"crypto/md5"
	"crypto/rand"
	"crypto/sha1"
	"crypto/subtle"
	"fmt"
	"hash"
	"sort"
	"sync"
)

//
// Authentication algorithm switch (§3.2: "a keyed message digest
// function ... selected on a per-association basis through an
// algorithm switch that calls the appropriate computation function").
//

// AuthAlg is one entry in the authentication algorithm switch.  The
// keyed digest is treated as a stream operation: the AH calculation
// walks the packet feeding bytes in, and "any necessary blocking and
// padding must be handled by the implementation of the keyed message
// digest functions" — hash.Hash does exactly that.
type AuthAlg interface {
	Name() string
	DigestLen() int
	// New returns a streaming keyed digest. Callers Write the packet
	// image and call Sum(nil) for the authentication data.
	New(key []byte) hash.Hash
}

// keyedHash implements the RFC 1828 construction digest = H(key ||
// data || key) for any underlying hash.
type keyedHash struct {
	name  string
	dlen  int
	newFn func() hash.Hash
}

type keyedHashState struct {
	h   hash.Hash
	key []byte
}

func (a *keyedHash) Name() string   { return a.name }
func (a *keyedHash) DigestLen() int { return a.dlen }
func (a *keyedHash) New(key []byte) hash.Hash {
	s := &keyedHashState{h: a.newFn(), key: append([]byte(nil), key...)}
	s.h.Write(s.key)
	return s
}

func (s *keyedHashState) Write(p []byte) (int, error) { return s.h.Write(p) }
func (s *keyedHashState) Sum(b []byte) []byte {
	s.h.Write(s.key) // trailing key per RFC 1828
	return s.h.Sum(b)
}
func (s *keyedHashState) Reset()         { s.h.Reset(); s.h.Write(s.key) }
func (s *keyedHashState) Size() int      { return s.h.Size() }
func (s *keyedHashState) BlockSize() int { return s.h.BlockSize() }

//
// Encryption algorithm switch (§3.6). Each entry yields a cipher.Block;
// the generic reblocking function below runs any such cipher over the
// data in properly sized blocks (§3.2).
//

// EncAlg is one entry in the encryption algorithm switch.
type EncAlg interface {
	Name() string
	KeySize() int
	BlockSize() int
	NewCipher(key []byte) (cipher.Block, error)
}

type encAlg struct {
	name     string
	keySize  int
	blockLen int
	newFn    func(key []byte) (cipher.Block, error)
}

func (e *encAlg) Name() string   { return e.name }
func (e *encAlg) KeySize() int   { return e.keySize }
func (e *encAlg) BlockSize() int { return e.blockLen }
func (e *encAlg) NewCipher(key []byte) (cipher.Block, error) {
	if len(key) != e.keySize {
		return nil, fmt.Errorf("ipsec: %s wants a %d-byte key, got %d", e.name, e.keySize, len(key))
	}
	return e.newFn(key)
}

// Reblock runs an encryption or decryption block function over data in
// place, CBC-chained from iv — "a generic reblocking function that
// runs a specified encryption or decryption function over the data
// while arranging it into properly sized blocks" (§3.2). data must be
// a whole number of blocks.  The chaining is done here, block by block
// where the bytes lie, so a packet's cipher pass allocates nothing.
func Reblock(blk cipher.Block, iv []byte, data []byte, encrypt bool) error {
	bs := blk.BlockSize()
	if len(data)%bs != 0 {
		return fmt.Errorf("ipsec: data length %d not a multiple of block size %d", len(data), bs)
	}
	if encrypt {
		prev := iv
		for off := 0; off < len(data); off += bs {
			b := data[off : off+bs]
			subtle.XORBytes(b, b, prev)
			blk.Encrypt(b, b)
			prev = b
		}
		return nil
	}
	// Decrypt from the last block back, so every block's predecessor
	// is still ciphertext when it is needed.
	for off := len(data) - bs; off >= 0; off -= bs {
		b := data[off : off+bs]
		blk.Decrypt(b, b)
		prev := iv
		if off > 0 {
			prev = data[off-bs : off]
		}
		subtle.XORBytes(b, b, prev)
	}
	return nil
}

//
// The switches themselves. "To implement a new ESP or AH algorithm,
// the kernel must be recompiled with support for the new algorithms in
// place" — registration happens at compile time via init, and tests
// demonstrate adding entries (Register*) without touching AH/ESP code.
//

var (
	switchMu   sync.RWMutex
	authSwitch = map[string]AuthAlg{}
	encSwitch  = map[string]EncAlg{}
)

// RegisterAuth adds an authentication algorithm to the switch.
func RegisterAuth(a AuthAlg) {
	switchMu.Lock()
	authSwitch[a.Name()] = a
	switchMu.Unlock()
}

// RegisterEnc adds an encryption algorithm to the switch.
func RegisterEnc(e EncAlg) {
	switchMu.Lock()
	encSwitch[e.Name()] = e
	switchMu.Unlock()
}

// LookupAuth finds an authentication algorithm by name.
func LookupAuth(name string) (AuthAlg, bool) {
	switchMu.RLock()
	defer switchMu.RUnlock()
	a, ok := authSwitch[name]
	return a, ok
}

// LookupEnc finds an encryption algorithm by name.
func LookupEnc(name string) (EncAlg, bool) {
	switchMu.RLock()
	defer switchMu.RUnlock()
	e, ok := encSwitch[name]
	return e, ok
}

// Algorithms lists the registered algorithm names, for keyadm/netstat.
func Algorithms() (auth, enc []string) {
	switchMu.RLock()
	defer switchMu.RUnlock()
	for n := range authSwitch {
		auth = append(auth, n)
	}
	for n := range encSwitch {
		enc = append(enc, n)
	}
	sort.Strings(auth)
	sort.Strings(enc)
	return auth, enc
}

func init() {
	// Mandatory algorithms (§3): keyed MD5 for authentication, DES-CBC
	// for encryption.
	RegisterAuth(&keyedHash{name: "keyed-md5", dlen: md5.Size, newFn: md5.New})
	// A second digest demonstrates the switch ("easy addition of new
	// message digest and encryption functions").
	RegisterAuth(&keyedHash{name: "keyed-sha1", dlen: sha1.Size, newFn: sha1.New})

	RegisterEnc(&encAlg{name: "des-cbc", keySize: 8, blockLen: des.BlockSize, newFn: des.NewCipher})
	// "Other algorithms, such as triple-DES, are being implemented by
	// others" — here it is.
	RegisterEnc(&encAlg{name: "3des-cbc", keySize: 24, blockLen: des.BlockSize, newFn: des.NewTripleDESCipher})
	// §3.6's worked example: IDEA with DES-CBC's header processing.
	RegisterEnc(&encAlg{name: "idea-cbc", keySize: ideaKeySize, blockLen: ideaBlockSize, newFn: newIDEA})
}

// newIV fills iv with fresh random bytes.
func newIV(iv []byte) {
	if _, err := rand.Read(iv); err != nil {
		// The simulation has no secrecy requirement strong enough to
		// justify failing the send; fall back to a counter pattern.
		for i := range iv {
			iv[i] = byte(i*37 + 11)
		}
	}
}

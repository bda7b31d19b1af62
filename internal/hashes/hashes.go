// Package hashes implements every hash and checksum function the paper's
// leak-detection candidate set uses (§3.1 and the appendix list), on top of
// the Go standard library only.
//
// Functions that ship with the standard library (MD5, SHA-1, the SHA-2
// family, CRC-32, Adler-32) are registered as thin wrappers; everything else
// — MD2, MD4, the RIPEMD family, the SHA-3 family, Whirlpool, BLAKE2b,
// Snefru and CRC-16 — is implemented from scratch in this package.
//
// All functions are exposed through a uniform registry so that the PII
// candidate-token generator and the leak injector share byte-identical
// transforms:
//
//	sum, err := hashes.Sum("sha3_256", []byte("foo@mydom.com"))
//
// Every digest implements hash.Hash and is safe to reuse after Reset.
package hashes

import (
	"crypto/md5"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/sha512"
	"encoding/hex"
	"hash"
	"hash/adler32"
	"hash/crc32"
	"sort"
)

// Func describes one registered hash function.
type Func struct {
	// Name is the registry key, matching the paper's appendix naming
	// (lower case, underscores: "sha3_256", "ripemd_160", ...).
	Name string
	// Size is the digest length in bytes.
	Size int
	// New returns a fresh hash.Hash computing this function.
	New func() hash.Hash
}

// Sum computes the digest of data with this function.
func (f Func) Sum(data []byte) []byte {
	h := f.New()
	h.Write(data)
	return h.Sum(nil)
}

// HexSum computes the lower-case hexadecimal digest of data, which is the
// form trackers overwhelmingly transmit (§4.2.2).
func (f Func) HexSum(data []byte) string {
	return hex.EncodeToString(f.Sum(data))
}

var registry = map[string]Func{}

func register(name string, size int, ctor func() hash.Hash) {
	if _, dup := registry[name]; dup {
		panic("hashes: duplicate registration of " + name)
	}
	registry[name] = Func{Name: name, Size: size, New: ctor}
}

func init() {
	// Standard-library backed functions.
	register("md5", md5.Size, md5.New)
	register("sha1", sha1.Size, sha1.New)
	register("sha224", sha256.Size224, sha256.New224)
	register("sha256", sha256.Size, sha256.New)
	register("sha384", sha512.Size384, sha512.New384)
	register("sha512", sha512.Size, sha512.New)
	register("crc32", 4, func() hash.Hash { return hash32Adapter{crc32.NewIEEE()} })
	register("adler32", 4, func() hash.Hash { return hash32Adapter{adler32.New()} })

	// From-scratch implementations (this package).
	register("md2", MD2Size, NewMD2)
	register("md4", MD4Size, NewMD4)
	register("crc16", 2, NewCRC16)
	register("ripemd_128", 16, NewRIPEMD128)
	register("ripemd_160", 20, NewRIPEMD160)
	register("ripemd_256", 32, NewRIPEMD256)
	register("ripemd_320", 40, NewRIPEMD320)
	register("sha3_224", 28, NewSHA3_224)
	register("sha3_256", 32, NewSHA3_256)
	register("sha3_384", 48, NewSHA3_384)
	register("sha3_512", 64, NewSHA3_512)
	register("whirlpool", WhirlpoolSize, NewWhirlpool)
	register("blake2b", Blake2bSize, NewBlake2b512)
	register("snefru128", 16, NewSnefru128)
	register("snefru256", 32, NewSnefru256)
}

// Lookup returns the registered function with the given name.
func Lookup(name string) (Func, bool) {
	f, ok := registry[name]
	return f, ok
}

// Names returns all registered function names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// hash32Adapter exposes a hash.Hash32 (CRC-32, Adler-32) as a plain
// hash.Hash; the Sum forms already match, this only narrows the interface.
type hash32Adapter struct {
	hash.Hash32
}

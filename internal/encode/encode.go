// Package encode implements every encoding the paper's leak-detection
// candidate set uses (§3.1 appendix): base16, base32, base32hex, base58,
// base64, rot13, and the three compression formats gz, deflate and bzip2.
//
// Encodings are registered in a uniform codec registry shared by the PII
// candidate-token generator and the tracker-behaviour simulator, so both
// sides of the pipeline produce byte-identical transforms. Codecs that are
// invertible also expose Decode, which the detector's decode-based
// strategy uses (DESIGN.md experiment A3).
//
// The standard library has no bzip2 compressor, so this package implements
// one from scratch (see bzip2.go); it is validated by round-tripping
// through the standard library's bzip2 decompressor.
package encode

import (
	"bytes"
	"compress/bzip2"
	"compress/flate"
	"compress/gzip"
	"encoding/base32"
	"encoding/base64"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Codec is one registered, deterministic byte transform.
type Codec struct {
	// Name is the registry key, matching the paper's appendix naming.
	Name string
	// Encode transforms data. It never mutates its input.
	Encode func(data []byte) []byte
	// Decode inverts Encode, or is nil for codecs the detector cannot
	// invert generically.
	Decode func(data []byte) ([]byte, error)
}

var registry = map[string]Codec{}

func register(c Codec) {
	if _, dup := registry[c.Name]; dup {
		panic("encode: duplicate registration of " + c.Name)
	}
	registry[c.Name] = c
}

func init() {
	register(Codec{
		Name:   "base16",
		Encode: func(d []byte) []byte { return []byte(hex.EncodeToString(d)) },
		Decode: func(d []byte) ([]byte, error) { return hex.DecodeString(string(d)) },
	})
	register(Codec{
		Name:   "base32",
		Encode: func(d []byte) []byte { return []byte(base32.StdEncoding.EncodeToString(d)) },
		Decode: func(d []byte) ([]byte, error) { return base32.StdEncoding.DecodeString(string(d)) },
	})
	register(Codec{
		Name:   "base32hex",
		Encode: func(d []byte) []byte { return []byte(base32.HexEncoding.EncodeToString(d)) },
		Decode: func(d []byte) ([]byte, error) { return base32.HexEncoding.DecodeString(string(d)) },
	})
	register(Codec{
		Name:   "base58",
		Encode: func(d []byte) []byte { return []byte(Base58Encode(d)) },
		Decode: func(d []byte) ([]byte, error) { return Base58Decode(string(d)) },
	})
	register(Codec{
		Name:   "base64",
		Encode: func(d []byte) []byte { return []byte(base64.StdEncoding.EncodeToString(d)) },
		Decode: func(d []byte) ([]byte, error) { return base64.StdEncoding.DecodeString(string(d)) },
	})
	register(Codec{
		Name:   "base64url",
		Encode: func(d []byte) []byte { return []byte(base64.RawURLEncoding.EncodeToString(d)) },
		Decode: func(d []byte) ([]byte, error) { return base64.RawURLEncoding.DecodeString(string(d)) },
	})
	register(Codec{
		Name:   "rot13",
		Encode: rot13,
		Decode: func(d []byte) ([]byte, error) { return rot13(d), nil },
	})
	register(Codec{
		Name:   "deflate",
		Encode: deflateEncode,
		Decode: func(d []byte) ([]byte, error) {
			r := flate.NewReader(bytes.NewReader(d))
			defer r.Close()
			return io.ReadAll(r)
		},
	})
	register(Codec{
		Name:   "gz",
		Encode: gzipEncode,
		Decode: func(d []byte) ([]byte, error) {
			r, err := gzip.NewReader(bytes.NewReader(d))
			if err != nil {
				return nil, err
			}
			defer r.Close()
			return io.ReadAll(r)
		},
	})
	register(Codec{
		Name:   "bzip2",
		Encode: func(d []byte) []byte { return Bzip2Compress(d) },
		Decode: func(d []byte) ([]byte, error) {
			return io.ReadAll(bzip2.NewReader(bytes.NewReader(d)))
		},
	})
}

// Lookup returns the codec registered under name.
func Lookup(name string) (Codec, bool) {
	c, ok := registry[name]
	return c, ok
}

// Apply encodes data with the named codec. It returns an error for
// unknown names so callers can surface configuration typos.
func Apply(name string, data []byte) ([]byte, error) {
	c, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("encode: unknown codec %q", name)
	}
	return c.Encode(data), nil
}

// Names returns all registered codec names in sorted order.
func Names() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Invertible returns the names of codecs that expose Decode, sorted.
func Invertible() []string {
	var names []string
	for n, c := range registry {
		if c.Decode != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

func rot13(d []byte) []byte {
	out := make([]byte, len(d))
	for i, b := range d {
		switch {
		case b >= 'a' && b <= 'z':
			out[i] = 'a' + (b-'a'+13)%26
		case b >= 'A' && b <= 'Z':
			out[i] = 'A' + (b-'A'+13)%26
		default:
			out[i] = b
		}
	}
	return out
}

// Compressor construction dominates a short input's cost: a
// BestCompression flate writer allocates about 600 KB of match tables.
// The pools keep writers between calls; Reset restores a writer to the
// exact state NewWriter would return (for gzip, the default header with
// zero MTIME and unknown OS), so outputs are byte-identical to a fresh
// writer's.
var (
	deflatePool = sync.Pool{New: func() any {
		w, err := flate.NewWriter(nil, flate.BestCompression)
		if err != nil {
			panic(err) // only fails on invalid level
		}
		return w
	}}
	gzipPool = sync.Pool{New: func() any {
		w, err := gzip.NewWriterLevel(nil, gzip.BestCompression)
		if err != nil {
			panic(err) // only fails on invalid level
		}
		return w
	}}
)

func deflateEncode(d []byte) []byte {
	var buf bytes.Buffer
	w := deflatePool.Get().(*flate.Writer)
	w.Reset(&buf)
	w.Write(d) //nolint:errcheck // bytes.Buffer cannot fail
	w.Close()  //nolint:errcheck
	deflatePool.Put(w)
	return buf.Bytes()
}

func gzipEncode(d []byte) []byte {
	var buf bytes.Buffer
	w := gzipPool.Get().(*gzip.Writer)
	w.Reset(&buf)
	w.Write(d) //nolint:errcheck // bytes.Buffer cannot fail
	w.Close()  //nolint:errcheck
	gzipPool.Put(w)
	return buf.Bytes()
}

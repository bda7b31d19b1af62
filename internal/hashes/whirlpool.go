package hashes

import (
	"encoding/binary"
	"hash"
)

// WhirlpoolSize is the digest size of Whirlpool in bytes.
const WhirlpoolSize = 64

// Whirlpool (ISO/IEC 10118-3) is a 512-bit hash built from a dedicated
// 8x8-byte block cipher in Miyaguchi-Preneel mode. Rather than transcribing
// the 256-entry S-box, we generate it from the specification's mini-box
// network (E, E⁻¹ and R 4-bit boxes), which hashes_test.go cross-checks
// against the published first entries and official test vectors.

// The two published 4-bit mini-boxes.
var whirlE = [16]byte{0x1, 0xB, 0x9, 0xC, 0xD, 0x6, 0xF, 0x3, 0xE, 0x8, 0x7, 0x4, 0xA, 0x2, 0x5, 0x0}
var whirlR = [16]byte{0x7, 0xC, 0xB, 0xD, 0xE, 0x4, 0x9, 0xF, 0x6, 0x3, 0x8, 0xA, 0x2, 0x5, 0x1, 0x0}

// whirlSbox is the full byte substitution generated from the mini-boxes.
var whirlSbox = func() (s [256]byte) {
	var einv [16]byte
	for i, v := range whirlE {
		einv[v] = byte(i)
	}
	for x := 0; x < 256; x++ {
		hi := whirlE[x>>4]
		lo := einv[x&0xF]
		y := whirlR[hi^lo]
		s[x] = whirlE[hi^y]<<4 | einv[lo^y]
	}
	return s
}()

// whirlMul multiplies in GF(2^8) with Whirlpool's reduction polynomial
// x^8 + x^4 + x^3 + x^2 + 1 (0x11D).
func whirlMul(a, b byte) byte {
	var p byte
	for b != 0 {
		if b&1 != 0 {
			p ^= a
		}
		carry := a & 0x80
		a <<= 1
		if carry != 0 {
			a ^= 0x1D
		}
		b >>= 1
	}
	return p
}

// whirlC is the first row of the circulant diffusion matrix.
var whirlC = [8]byte{1, 1, 4, 1, 8, 5, 2, 9}

// whirlState is the cipher state: eight rows of eight bytes, row i's
// column j in bits 56-8j of word i (big-endian, as the bytes are read
// from a block).
type whirlState [8]uint64

// whirlT folds SubBytes and MixRows into table lookups: whirlT[k][x]
// is the row contribution of S-box output S[x] standing in column k,
// byte j of it being S[x]·c[(j-k) mod 8] in GF(2^8), for the matrix
// M' = M·C with C[k][j] = c[(j-k) mod 8].
var whirlT = func() (t [8][256]uint64) {
	for x := 0; x < 256; x++ {
		s := whirlSbox[x]
		for k := 0; k < 8; k++ {
			var row uint64
			for j := 0; j < 8; j++ {
				row |= uint64(whirlMul(s, whirlC[(j-k+8)%8])) << (56 - 8*j)
			}
			t[k][x] = row
		}
	}
	return t
}()

// whirlRC holds the ten round constants: row 0 from consecutive S-box
// entries, every other row zero.
var whirlRC = func() (rc [10]uint64) {
	for r := range rc {
		for j := 0; j < 8; j++ {
			rc[r] |= uint64(whirlSbox[8*r+j]) << (56 - 8*j)
		}
	}
	return rc
}()

// whirlRound applies one full round to st: SubBytes, ShiftColumns
// (column j moves down j rows, so output row i takes column k from
// input row i-k), MixRows and AddRoundKey.
func whirlRound(st *whirlState, key *whirlState) {
	var out whirlState
	for i := 0; i < 8; i++ {
		out[i] = whirlT[0][byte(st[i]>>56)] ^
			whirlT[1][byte(st[(i+7)%8]>>48)] ^
			whirlT[2][byte(st[(i+6)%8]>>40)] ^
			whirlT[3][byte(st[(i+5)%8]>>32)] ^
			whirlT[4][byte(st[(i+4)%8]>>24)] ^
			whirlT[5][byte(st[(i+3)%8]>>16)] ^
			whirlT[6][byte(st[(i+2)%8]>>8)] ^
			whirlT[7][byte(st[(i+1)%8])] ^
			key[i]
	}
	*st = out
}

// whirlCompress is the Miyaguchi-Preneel compression: H' = E_H(m) ^ H ^ m.
func whirlCompress(h *whirlState, m *whirlState) {
	key := *h
	st := *m
	for i := range st {
		st[i] ^= key[i]
	}
	for r := range whirlRC {
		rc := whirlState{whirlRC[r]}
		whirlRound(&key, &rc)
		whirlRound(&st, &key)
	}
	for i := range h {
		h[i] ^= st[i] ^ m[i]
	}
}

// whirlpoolDigest implements hash.Hash for Whirlpool.
type whirlpoolDigest struct {
	h   whirlState
	buf [64]byte
	n   int
	len uint64 // total bytes; 2^64 bytes is far beyond any use here
}

// NewWhirlpool returns a new Whirlpool hash.
func NewWhirlpool() hash.Hash { return new(whirlpoolDigest) }

func (d *whirlpoolDigest) Size() int      { return WhirlpoolSize }
func (d *whirlpoolDigest) BlockSize() int { return 64 }

func (d *whirlpoolDigest) Reset() { *d = whirlpoolDigest{} }

func (d *whirlpoolDigest) Write(p []byte) (int, error) {
	written := len(p)
	d.len += uint64(written)
	for len(p) > 0 {
		space := 64 - d.n
		if space > len(p) {
			space = len(p)
		}
		copy(d.buf[d.n:], p[:space])
		d.n += space
		p = p[space:]
		if d.n == 64 {
			d.block(d.buf[:])
			d.n = 0
		}
	}
	return written, nil
}

func (d *whirlpoolDigest) block(p []byte) {
	var m whirlState
	for i := range m {
		m[i] = binary.BigEndian.Uint64(p[8*i:])
	}
	whirlCompress(&d.h, &m)
}

func (d *whirlpoolDigest) Sum(in []byte) []byte {
	cp := *d
	bitLen := cp.len * 8
	// Pad with 0x80, zeros, and a 256-bit big-endian length. The length
	// occupies the last 32 bytes of the final block.
	var pad [128]byte
	pad[0] = 0x80
	padLen := 32 - int(cp.len%64) // distance to the length field
	if padLen <= 0 {
		padLen += 64
	}
	var lenField [32]byte
	binary.BigEndian.PutUint64(lenField[24:], bitLen)
	cp.Write(pad[:padLen]) //nolint:errcheck // cannot fail
	cp.Write(lenField[:])  //nolint:errcheck // cannot fail

	for _, row := range cp.h {
		in = binary.BigEndian.AppendUint64(in, row)
	}
	return in
}

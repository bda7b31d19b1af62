package hashes

import "hash"

// CRC-16/ARC: polynomial 0x8005 (reflected 0xA001), zero initial value,
// no final XOR. This is the variant Python's crcmod and the paper's
// tooling call plain "crc16".

// crc16Table is the reflected lookup table for polynomial 0xA001.
var crc16Table = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xA001
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}()

type crc16Digest uint16

// NewCRC16 returns a new CRC-16/ARC checksum as a hash.Hash with a
// 2-byte, big-endian Sum.
func NewCRC16() hash.Hash { return new(crc16Digest) }

func (d *crc16Digest) Size() int      { return 2 }
func (d *crc16Digest) BlockSize() int { return 1 }
func (d *crc16Digest) Reset()         { *d = 0 }

func (d *crc16Digest) Write(p []byte) (int, error) {
	crc := uint16(*d)
	for _, b := range p {
		crc = crc>>8 ^ crc16Table[byte(crc)^b]
	}
	*d = crc16Digest(crc)
	return len(p), nil
}

func (d *crc16Digest) Sum(in []byte) []byte {
	return append(in, byte(*d>>8), byte(*d))
}

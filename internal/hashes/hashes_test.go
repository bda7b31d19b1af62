package hashes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

// sum computes the named registered digest of data.
func sum(t *testing.T, name string, data []byte) []byte {
	t.Helper()
	f, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown function %q", name)
	}
	return f.Sum(data)
}

// kat asserts a known-answer test for a registered function.
func kat(t *testing.T, name, input, wantHex string) {
	t.Helper()
	if got := hex.EncodeToString(sum(t, name, []byte(input))); got != wantHex {
		t.Errorf("%s(%q) = %s, want %s", name, input, got, wantHex)
	}
}

func TestMD2Vectors(t *testing.T) {
	kat(t, "md2", "", "8350e5a3e24c153df2275c9f80692773")
	kat(t, "md2", "a", "32ec01ec4a6dac72c0ab96fb34c0b5d1")
	kat(t, "md2", "abc", "da853b0d3f88d99b30283a69e6ded6bb")
	kat(t, "md2", "message digest", "ab4f496bfb2a530b219ff33031fe06b0")
}

func TestMD2TableIsPermutation(t *testing.T) {
	var seen [256]bool
	for _, v := range md2S {
		if seen[v] {
			t.Fatalf("md2S contains duplicate value %d", v)
		}
		seen[v] = true
	}
}

func TestMD4Vectors(t *testing.T) {
	kat(t, "md4", "", "31d6cfe0d16ae931b73c59d7e0c089c0")
	kat(t, "md4", "a", "bde52cb31de33e46245e05fbdbd6fb24")
	kat(t, "md4", "abc", "a448017aaf21d8525fc10ae87aa6729d")
	kat(t, "md4", "message digest", "d9130a8164549fe818874806e1c7014b")
}

func TestRIPEMD160Vectors(t *testing.T) {
	kat(t, "ripemd_160", "", "9c1185a5c5e9fc54612808977ee8f548b2258d31")
	kat(t, "ripemd_160", "a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe")
	kat(t, "ripemd_160", "abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc")
	kat(t, "ripemd_160", "message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36")
}

func TestRIPEMD128Vectors(t *testing.T) {
	kat(t, "ripemd_128", "", "cdf26213a150dc3ecb610f18f6b38b46")
	kat(t, "ripemd_128", "abc", "c14a12199c66e4ba84636b0f69144c77")
}

func TestRIPEMDWideVectors(t *testing.T) {
	kat(t, "ripemd_256", "",
		"02ba4c4e5f8ecd1877fc52d64d30e37a2d9774fb1e5d026380ae0168e3c5522d")
	kat(t, "ripemd_320", "",
		"22d65d5661536cdc75c1fdf5c6de7b41b9f27325ebc61e8557177d705a0ec880151c3a32a00899b8")
}

func TestSHA3Vectors(t *testing.T) {
	kat(t, "sha3_224", "", "6b4e03423667dbb73b6e15454f0eb1abd4597f9a1b078e3f5b5a6bc7")
	kat(t, "sha3_256", "", "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a")
	kat(t, "sha3_384", "",
		"0c63a75b845e4f7d01107d852e4c2485c51a50aaaa94fc61995e71bbee983a2ac3713831264adb47fb6bd1e058d5f004")
	kat(t, "sha3_512", "",
		"a69f73cca23a9ac5c8b567dc185a756e97c982164fe25859e0d1dcc1475c80a615b2123af1f5f94c11e3e9402c3ac558f500199d95b6d3e301758586281dcd26")
	kat(t, "sha3_256", "abc", "3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532")
}

func TestWhirlpoolVectors(t *testing.T) {
	kat(t, "whirlpool", "",
		"19fa61d75522a4669b44e39c1d2e1726c530232130d407f89afee0964997f7a73e83be698b288febcf88e3e03c4f0757ea8964e59b63d93708b138cc42a66eb3")
	kat(t, "whirlpool", "abc",
		"4e2448a4c6f486bb16b6562c73b4020bf3043e3a731bce721ae1b303d97e6d4c7181eebdb6c57e277d0e34957114cbd6c797fc9d95d8b582d225292076d4eef5")
}

func TestWhirlpoolSboxFirstEntries(t *testing.T) {
	// First published row of the Whirlpool S-box.
	want := []byte{0x18, 0x23, 0xC6, 0xE8, 0x87, 0xB8, 0x01, 0x4F}
	for i, w := range want {
		if whirlSbox[i] != w {
			t.Errorf("whirlSbox[%d] = %#02x, want %#02x", i, whirlSbox[i], w)
		}
	}
}

func TestWhirlpoolSboxIsPermutation(t *testing.T) {
	var seen [256]bool
	for _, v := range whirlSbox {
		if seen[v] {
			t.Fatalf("whirlSbox contains duplicate value %#02x", v)
		}
		seen[v] = true
	}
}

func TestBlake2bVectors(t *testing.T) {
	// RFC 7693 appendix A vector.
	kat(t, "blake2b", "abc",
		"ba80a53f981c4d0d6a2797b69f12f6e94c212f14685ac4b74b12bb6fdbffa2d17d87c5392aab792dc252d5de4533cc9518d38aa8dbf1925ab92386edd4009923")
}

func TestBlake2bSizes(t *testing.T) {
	for _, size := range []int{1, 20, 32, 48, 64} {
		h := NewBlake2b(size)
		h.Write([]byte("pii"))
		if got := len(h.Sum(nil)); got != size {
			t.Errorf("BLAKE2b-%d digest length = %d", size*8, got)
		}
	}
}

func TestBlake2bInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBlake2b(65) did not panic")
		}
	}()
	NewBlake2b(65)
}

func TestCRC16Vector(t *testing.T) {
	h := NewCRC16()
	h.Write([]byte("123456789"))
	if got := h.Sum(nil); !bytes.Equal(got, []byte{0xBB, 0x3D}) {
		t.Errorf("CRC16(check) = %x, want bb3d", got)
	}
	kat(t, "crc16", "123456789", "bb3d")
}

func TestCRC32Adler32MatchStdlib(t *testing.T) {
	kat(t, "crc32", "123456789", "cbf43926")
	kat(t, "adler32", "Wikipedia", "11e60398")
}

func TestSnefruDeterministicAndSized(t *testing.T) {
	for name, size := range map[string]int{"snefru128": 16, "snefru256": 32} {
		a := sum(t, name, []byte("foo@mydom.com"))
		b := sum(t, name, []byte("foo@mydom.com"))
		if !bytes.Equal(a, b) {
			t.Errorf("%s not deterministic", name)
		}
		if len(a) != size {
			t.Errorf("%s digest length = %d, want %d", name, len(a), size)
		}
		c := sum(t, name, []byte("foo@mydom.co"))
		if bytes.Equal(a, c) {
			t.Errorf("%s collides on near-identical inputs", name)
		}
	}
}

func TestSnefruSboxesDiffer(t *testing.T) {
	for i := 1; i < len(snefruSboxes); i++ {
		if snefruSboxes[0] == snefruSboxes[i] {
			t.Fatalf("snefru S-box %d equals S-box 0", i)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"md2", "md4", "md5", "sha1", "sha224", "sha256", "sha384", "sha512",
		"crc16", "crc32", "adler32",
		"sha3_224", "sha3_256", "sha3_384", "sha3_512",
		"ripemd_128", "ripemd_160", "ripemd_256", "ripemd_320",
		"whirlpool", "blake2b", "snefru128", "snefru256",
	}
	for _, name := range want {
		f, ok := Lookup(name)
		if !ok {
			t.Errorf("registry missing %q", name)
			continue
		}
		if got := len(f.Sum([]byte("x"))); got != f.Size {
			t.Errorf("%s: digest length %d != declared Size %d", name, got, f.Size)
		}
	}
	if len(Names()) != len(want) {
		t.Errorf("registry has %d entries, want %d: %v", len(Names()), len(want), Names())
	}
}

func TestSumUnknownName(t *testing.T) {
	if _, ok := Lookup("sha9000"); ok {
		t.Error("Lookup found an unknown function")
	}
}

// TestStreamingEquivalence checks, for every registered hash, that writing
// in arbitrary chunks produces the same digest as a single write, and that
// Sum does not disturb the running state.
func TestStreamingEquivalence(t *testing.T) {
	for _, name := range Names() {
		f, _ := Lookup(name)
		property := func(data []byte, split uint8) bool {
			one := f.Sum(data)

			h := f.New()
			cut := 0
			if len(data) > 0 {
				cut = int(split) % (len(data) + 1)
			}
			h.Write(data[:cut])
			mid := h.Sum(nil) // must not affect the final digest
			_ = mid
			h.Write(data[cut:])
			streamed := h.Sum(nil)
			return bytes.Equal(one, streamed)
		}
		if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%s: streaming mismatch: %v", name, err)
		}
	}
}

// TestResetRestoresInitialState verifies Reset for every registered hash.
func TestResetRestoresInitialState(t *testing.T) {
	for _, name := range Names() {
		f, _ := Lookup(name)
		h := f.New()
		h.Write([]byte("garbage that must be forgotten"))
		h.Reset()
		h.Write([]byte("pii"))
		if !bytes.Equal(h.Sum(nil), f.Sum([]byte("pii"))) {
			t.Errorf("%s: Reset did not restore initial state", name)
		}
	}
}

// TestAvalanche samples a one-bit input change for every function and
// requires the digest to change. This is a sanity property, not a
// cryptographic claim.
func TestAvalanche(t *testing.T) {
	base := []byte("foo@mydom.com")
	flipped := append([]byte(nil), base...)
	flipped[0] ^= 0x01
	for _, name := range Names() {
		f, _ := Lookup(name)
		if bytes.Equal(f.Sum(base), f.Sum(flipped)) {
			t.Errorf("%s: digest unchanged after bit flip", name)
		}
	}
}

func TestHexSum(t *testing.T) {
	f, _ := Lookup("sha256")
	want := hex.EncodeToString(f.Sum([]byte("x")))
	if got := f.HexSum([]byte("x")); got != want {
		t.Errorf("HexSum = %s, want %s", got, want)
	}
}

// TestLongInputs exercises multi-block code paths (buffering, padding
// boundaries) for every function at lengths around each block size.
func TestLongInputs(t *testing.T) {
	for _, name := range Names() {
		f, _ := Lookup(name)
		bs := f.New().BlockSize()
		for _, n := range []int{bs - 1, bs, bs + 1, 3*bs - 1, 3 * bs, 1000} {
			if n < 0 {
				continue
			}
			data := bytes.Repeat([]byte{0xA5}, n)
			one := f.Sum(data)
			h := f.New()
			for i := 0; i < len(data); i += 7 {
				end := i + 7
				if end > len(data) {
					end = len(data)
				}
				h.Write(data[i:end])
			}
			if !bytes.Equal(one, h.Sum(nil)) {
				t.Errorf("%s: mismatch at length %d", name, n)
			}
		}
	}
}

func BenchmarkRegisteredHashes(b *testing.B) {
	data := bytes.Repeat([]byte("foo@mydom.com "), 8)
	for _, name := range Names() {
		f, _ := Lookup(name)
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				f.Sum(data)
			}
		})
	}
}

// TestQuickBrownFoxVectors adds a second, independent set of published
// vectors over a longer input that crosses block boundaries differently
// from the short KATs.
func TestQuickBrownFoxVectors(t *testing.T) {
	const fox = "The quick brown fox jumps over the lazy dog"
	kat(t, "md4", fox, "1bee69a46ba811185c194762abaeae90")
	kat(t, "md5", fox, "9e107d9d372bb6826bd81d3542a419d6")
	kat(t, "sha1", fox, "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12")
	kat(t, "sha256", fox, "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592")
	kat(t, "ripemd_160", fox, "37f332f68db77bd9d7edd4969571ad671cf9dd3b")
	kat(t, "crc32", fox, "414fa339")
	kat(t, "whirlpool", fox,
		"b97de512e91e3828b40d2b0fdce9ceb3c4a71f9bea8d88e75c4fa854df36725fd2b52eb6544edcacd6f8beddfea403cb55ae31f03ad62a5ef54e42ee82c3fb35")
}

// TestMillionA exercises the multi-block streaming path with the
// classic one-million-'a' vector for the stdlib-backed functions and a
// self-consistency check for the from-scratch ones.
func TestMillionA(t *testing.T) {
	if testing.Short() {
		t.Skip("long input")
	}
	million := bytes.Repeat([]byte{'a'}, 1_000_000)
	kat(t, "sha1", string(million), "34aa973cd4c4daa4f61eeb2bdbad27316534016f")
	kat(t, "sha256", string(million), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0")
	// From-scratch functions: one-shot equals chunked (128-byte writes).
	for _, name := range []string{"md4", "ripemd_160", "sha3_256", "blake2b", "whirlpool"} {
		f, _ := Lookup(name)
		one := f.Sum(million)
		h := f.New()
		for i := 0; i < len(million); i += 128 {
			end := i + 128
			if end > len(million) {
				end = len(million)
			}
			h.Write(million[i:end])
		}
		if !bytes.Equal(one, h.Sum(nil)) {
			t.Errorf("%s: million-a chunked mismatch", name)
		}
	}
}

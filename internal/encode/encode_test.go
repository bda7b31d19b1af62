package encode

import (
	"bytes"
	"testing"
	"testing/quick"
)

// apply encodes data with the named codec.
func apply(t *testing.T, name string, data []byte) []byte {
	t.Helper()
	c, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown codec %q", name)
	}
	return c.Encode(data)
}

func TestBase16(t *testing.T) {
	got := apply(t, "base16", []byte("foo@mydom.com"))
	if string(got) != "666f6f406d79646f6d2e636f6d" {
		t.Errorf("base16 = %s", got)
	}
}

func TestBase64Vectors(t *testing.T) {
	got := apply(t, "base64", []byte("foo@mydom.com"))
	if string(got) != "Zm9vQG15ZG9tLmNvbQ==" {
		t.Errorf("base64 = %s", got)
	}
	url := apply(t, "base64url", []byte{0xfb, 0xff})
	if string(url) != "-_8" {
		t.Errorf("base64url = %s", url)
	}
}

func TestRot13(t *testing.T) {
	got := apply(t, "rot13", []byte("foo@MyDom.com"))
	if string(got) != "sbb@ZlQbz.pbz" {
		t.Errorf("rot13 = %s", got)
	}
	// Involution.
	back := apply(t, "rot13", got)
	if string(back) != "foo@MyDom.com" {
		t.Errorf("rot13 is not an involution: %s", back)
	}
}

func TestBase58Vectors(t *testing.T) {
	cases := map[string]string{
		"":            "",
		"\x00":        "1",
		"\x00\x00a":   "112g",
		"hello world": "StV1DL6CwTryKyV",
	}
	for in, want := range cases {
		if got := Base58Encode([]byte(in)); got != want {
			t.Errorf("Base58Encode(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestBase58RoundTrip(t *testing.T) {
	property := func(data []byte) bool {
		enc := Base58Encode(data)
		dec, err := Base58Decode(enc)
		return err == nil && bytes.Equal(dec, data)
	}
	if err := quick.Check(property, nil); err != nil {
		t.Error(err)
	}
}

func TestBase58DecodeInvalid(t *testing.T) {
	for _, bad := range []string{"0", "O", "I", "l", "abc!"} {
		if _, err := Base58Decode(bad); err == nil {
			t.Errorf("Base58Decode(%q) succeeded", bad)
		}
	}
}

func TestInvertibleCodecsRoundTrip(t *testing.T) {
	inputs := [][]byte{
		nil,
		[]byte("a"),
		[]byte("foo@mydom.com"),
		[]byte("The quick brown fox jumps over the lazy dog"),
		bytes.Repeat([]byte{0x00, 0xff, 0x10}, 100),
	}
	for _, name := range Invertible() {
		c, _ := Lookup(name)
		for _, in := range inputs {
			enc := c.Encode(in)
			dec, err := c.Decode(enc)
			if err != nil {
				t.Errorf("%s: decode error: %v", name, err)
				continue
			}
			if !bytes.Equal(dec, in) {
				t.Errorf("%s: round trip failed for %d-byte input", name, len(in))
			}
		}
	}
}

func TestAllCodecsRegistered(t *testing.T) {
	want := []string{
		"base16", "base32", "base32hex", "base58", "base64", "base64url",
		"bzip2", "deflate", "gz", "rot13",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Names()[%d] = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestApplyUnknown(t *testing.T) {
	if _, ok := Lookup("base1024"); ok {
		t.Error("Lookup found an unknown codec")
	}
}

func TestEncodeDeterministic(t *testing.T) {
	data := []byte("persona@example.test")
	for _, name := range Names() {
		c, _ := Lookup(name)
		a := c.Encode(data)
		b := c.Encode(data)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: non-deterministic encode", name)
		}
	}
}

func TestEncodeDoesNotMutateInput(t *testing.T) {
	data := []byte("mutation-check")
	orig := append([]byte(nil), data...)
	for _, name := range Names() {
		c, _ := Lookup(name)
		c.Encode(data)
		if !bytes.Equal(data, orig) {
			t.Fatalf("%s: Encode mutated its input", name)
		}
	}
}

// TestRFC4648Vectors pins the base16/32/32hex codecs to the RFC's
// published test vectors.
func TestRFC4648Vectors(t *testing.T) {
	cases := []struct{ codec, in, want string }{
		{"base16", "foobar", "666f6f626172"},
		{"base32", "f", "MY======"},
		{"base32", "fo", "MZXQ===="},
		{"base32", "foobar", "MZXW6YTBOI======"},
		{"base32hex", "f", "CO======"},
		{"base32hex", "fo", "CPNG===="},
		{"base32hex", "foobar", "CPNMUOJ1E8======"},
		{"base64", "foobar", "Zm9vYmFy"},
		{"base64", "fooba", "Zm9vYmE="},
	}
	for _, c := range cases {
		got := apply(t, c.codec, []byte(c.in))
		if string(got) != c.want {
			t.Errorf("%s(%q) = %q, want %q", c.codec, c.in, got, c.want)
		}
	}
}

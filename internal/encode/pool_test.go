package encode

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"
	"sync"
	"testing"
)

// compressorInputs mixes short persona-sized values with long,
// repetitive ones, so a pooled writer that carried window or hash state
// from a long input into the next short one would change its output.
func compressorInputs() [][]byte {
	inputs := [][]byte{nil, []byte("x"), []byte("mariko.tanaka2105@piistudy.example.com")}
	for i := 0; i < 6; i++ {
		inputs = append(inputs,
			bytes.Repeat([]byte(fmt.Sprintf("persona-%d@example.test;", i)), 1<<(2*i)),
			[]byte(fmt.Sprintf("%x", i*7919)))
	}
	return inputs
}

// freshCompress is the reference: a writer constructed for this one
// call, as the encoders did before they pooled them.
func freshCompress(t testing.TB, codec string, d []byte) []byte {
	var buf bytes.Buffer
	var w io.WriteCloser
	var err error
	switch codec {
	case "deflate":
		w, err = flate.NewWriter(&buf, flate.BestCompression)
	case "gz":
		w, err = gzip.NewWriterLevel(&buf, gzip.BestCompression)
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(d); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPooledCompressorsMatchFreshWriters pins the pooled deflate and gz
// encoders to a freshly constructed writer's bytes, input after input.
func TestPooledCompressorsMatchFreshWriters(t *testing.T) {
	for _, codec := range []string{"deflate", "gz"} {
		c, _ := Lookup(codec)
		for round := 0; round < 2; round++ {
			for i, in := range compressorInputs() {
				if got, want := c.Encode(in), freshCompress(t, codec, in); !bytes.Equal(got, want) {
					t.Fatalf("%s round %d input %d: pooled output differs from a fresh writer's", codec, round, i)
				}
			}
		}
	}
}

// TestPooledCompressorsConcurrent runs deflate and gz from 8 goroutines
// at once, as crawl workers applying chains do, and compares every
// result with the sequential output. Run it under -race.
func TestPooledCompressorsConcurrent(t *testing.T) {
	inputs := compressorInputs()
	codecs := []string{"deflate", "gz"}
	want := map[string][][]byte{}
	for _, codec := range codecs {
		c, _ := Lookup(codec)
		for _, in := range inputs {
			want[codec] = append(want[codec], c.Encode(in))
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for k := range inputs {
					// Each goroutine walks the inputs from its own
					// offset, so long and short inputs interleave
					// across the pool.
					i := (k + g) % len(inputs)
					codec := codecs[(k+g+round)%len(codecs)]
					c, _ := Lookup(codec)
					if got := c.Encode(inputs[i]); !bytes.Equal(got, want[codec][i]) {
						t.Errorf("goroutine %d round %d: %s of input %d differs from the sequential output", g, round, codec, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

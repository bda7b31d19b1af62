package httpmodel

import (
	"reflect"
	"testing"
)

// TestRequestIndexChain pins the initiator walk's corner cases: URL and
// seq lookups resolve to the last matching record, a record that
// initiates itself ends the walk, a cycle stops at depth 8, and a
// missing seq or link ends the chain.
func TestRequestIndexChain(t *testing.T) {
	ir := func(seq int, url, init string, typ ResourceType) IndexedRequest {
		return IndexedRequest{URL: url, Initiator: init, Type: typ, Seq: seq}
	}
	rq := func(url, init string, typ ResourceType) Request {
		return Request{URL: url, Initiator: init, Type: typ}
	}
	cycle := make([]Request, 0, 8)
	for i := 0; i < 4; i++ {
		cycle = append(cycle, rq("https://a.net/a.js", "https://b.net/b.js", TypeScript),
			rq("https://b.net/b.js", "https://a.net/a.js", TypeScript))
	}
	cases := []struct {
		name   string
		domain string
		rs     []IndexedRequest
		seq    int
		want   []Request
	}{
		{
			name: "linear chain",
			rs: []IndexedRequest{
				ir(1, "https://site.com/", "", TypeDocument),
				ir(2, "https://tag.net/t.js", "https://site.com/", TypeScript),
				ir(3, "https://px.net/p?e=1", "https://tag.net/t.js", TypeImage),
			},
			seq: 3,
			want: []Request{
				rq("https://tag.net/t.js", "https://site.com/", TypeScript),
				rq("https://site.com/", "", TypeDocument),
			},
		},
		{
			name: "duplicate URL resolves to the last record",
			rs: []IndexedRequest{
				ir(1, "https://tag.net/t.js", "https://first.net/f.js", TypeScript),
				ir(2, "https://px.net/p", "https://tag.net/t.js", TypeImage),
				ir(3, "https://tag.net/t.js", "", TypeXHR),
			},
			seq:  2,
			want: []Request{rq("https://tag.net/t.js", "", TypeXHR)},
		},
		{
			name: "duplicate seq resolves to the last record",
			rs: []IndexedRequest{
				ir(1, "https://a.net/a.js", "", TypeScript),
				ir(2, "https://b.net/b.js", "", TypeScript),
				ir(5, "https://px.net/p", "https://a.net/a.js", TypeImage),
				ir(5, "https://px.net/q", "https://b.net/b.js", TypeImage),
			},
			seq:  5,
			want: []Request{rq("https://b.net/b.js", "", TypeScript)},
		},
		{
			name: "self-loop stops the walk",
			rs: []IndexedRequest{
				ir(1, "https://loop.net/l.js", "https://loop.net/l.js", TypeScript),
				ir(2, "https://px.net/p", "https://loop.net/l.js", TypeImage),
			},
			seq:  2,
			want: []Request{rq("https://loop.net/l.js", "https://loop.net/l.js", TypeScript)},
		},
		{
			name: "self-loop at the start yields no chain",
			rs: []IndexedRequest{
				ir(1, "https://loop.net/l.js", "https://loop.net/l.js", TypeScript),
			},
			seq:  1,
			want: nil,
		},
		{
			name: "self-initiated record followed by a later duplicate walks on",
			rs: []IndexedRequest{
				ir(1, "https://dup.net/d.js", "https://dup.net/d.js", TypeScript),
				ir(2, "https://dup.net/d.js", "", TypeXHR),
			},
			seq:  1,
			want: []Request{rq("https://dup.net/d.js", "", TypeXHR)},
		},
		{
			name: "A-B-A cycle stops at depth 8",
			rs: []IndexedRequest{
				ir(1, "https://a.net/a.js", "https://b.net/b.js", TypeScript),
				ir(2, "https://b.net/b.js", "https://a.net/a.js", TypeScript),
				ir(3, "https://px.net/p", "https://a.net/a.js", TypeImage),
			},
			seq:  3,
			want: cycle,
		},
		{
			name: "missing seq returns nil",
			rs: []IndexedRequest{
				ir(1, "https://a.net/a.js", "", TypeScript),
			},
			seq:  9,
			want: nil,
		},
		{
			name:   "unknown domain returns nil",
			domain: "other.com",
			rs: []IndexedRequest{
				ir(1, "https://a.net/a.js", "", TypeScript),
			},
			seq:  1,
			want: nil,
		},
		{
			name: "missing initiator link ends the chain",
			rs: []IndexedRequest{
				ir(1, "https://a.net/a.js", "https://gone.net/g.js", TypeScript),
				ir(2, "https://px.net/p", "https://a.net/a.js", TypeImage),
			},
			seq:  2,
			want: []Request{rq("https://a.net/a.js", "https://gone.net/g.js", TypeScript)},
		},
		{
			name: "missing initiator link at the start yields no chain",
			rs: []IndexedRequest{
				ir(1, "https://px.net/p", "https://gone.net/g.js", TypeImage),
			},
			seq:  1,
			want: nil,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ix := NewRequestIndex()
			ix.AddReduced("site.com", c.rs)
			domain := c.domain
			if domain == "" {
				domain = "site.com"
			}
			got := ix.Chain(domain, c.seq)
			if c.want == nil {
				if got != nil {
					t.Fatalf("Chain = %+v, want nil", got)
				}
				return
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("Chain =\n%+v\nwant\n%+v", got, c.want)
			}
		})
	}
}

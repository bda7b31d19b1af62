package tracking

import (
	"sort"

	"piileak/internal/core"
	"piileak/internal/httpmodel"
)

// Index is the incremental form of the §5 analysis: leaks are folded in
// one at a time (in any order — every aggregate is a set), and the
// Table 2 classification is materialized on demand as a view. Classify
// is now a thin wrapper that feeds a fresh Index; the streaming pipeline
// calls Add as each site's detection completes instead of buffering a
// global leak slice.
type Index struct {
	byProv map[provKey]*provAgg
}

type provKey struct {
	receiver string
	cloaked  bool
}

// provAgg is one receiver's accumulated §5 state.
type provAgg struct {
	// allSenders counts every sender feeding the receiver (the
	// multi-/single-sender census partition).
	allSenders map[string]bool
	// idSenders counts senders of *identifiable* leaks (named param,
	// non-referer) — the Table 2 sender column.
	idSenders map[string]bool
	// valueSenders maps identifier token value -> sender set (the
	// cross-site same-ID cue).
	valueSenders map[string]map[string]bool
	// persistent records the storage cue: an identifiable leak seen on
	// a subpage.
	persistent bool
	// rows aggregates the Table 2 breakdown by encoding label.
	rows map[string]*rowAgg
}

type rowAgg struct {
	senders map[string]bool
	methods map[string]bool
	params  map[string]bool
}

// NewIndex returns an empty incremental tracking index.
func NewIndex() *Index {
	return &Index{byProv: map[provKey]*provAgg{}}
}

// Add folds one detected leak into the receiver's aggregates.
func (ix *Index) Add(l *core.Leak) {
	k := provKey{l.Receiver, l.Cloaked}
	p := ix.byProv[k]
	if p == nil {
		p = &provAgg{
			allSenders:   map[string]bool{},
			idSenders:    map[string]bool{},
			valueSenders: map[string]map[string]bool{},
			rows:         map[string]*rowAgg{},
		}
		ix.byProv[k] = p
	}
	p.allSenders[l.Site] = true
	if !identifiable(l) {
		return
	}
	p.idSenders[l.Site] = true
	vs := p.valueSenders[l.Token.Value]
	if vs == nil {
		vs = map[string]bool{}
		p.valueSenders[l.Token.Value] = vs
	}
	vs[l.Site] = true
	if l.Phase == httpmodel.PhaseSubpage {
		p.persistent = true
	}
	lab := l.EncodingLabel()
	r := p.rows[lab]
	if r == nil {
		r = &rowAgg{senders: map[string]bool{}, methods: map[string]bool{}, params: map[string]bool{}}
		p.rows[lab] = r
	}
	r.senders[l.Site] = true
	r.methods[methodName(l.Method)] = true
	r.params[l.Param] = true
}

// Classification materializes the §5.2 census from the accumulated
// state. It can be called repeatedly; each call builds a fresh view.
func (ix *Index) Classification() *Classification {
	keys := make([]provKey, 0, len(ix.byProv))
	for k := range ix.byProv {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].receiver != keys[b].receiver {
			return keys[a].receiver < keys[b].receiver
		}
		return !keys[a].cloaked && keys[b].cloaked
	})

	c := &Classification{}
	for _, k := range keys {
		agg := ix.byProv[k]
		p := Provider{Receiver: k.receiver, Cloaked: k.cloaked, Senders: len(agg.idSenders), Persistent: agg.persistent}
		for _, ss := range agg.valueSenders {
			if len(ss) >= 2 {
				p.MultiSenderID = true
				break
			}
		}
		for lab, r := range agg.rows {
			p.Rows = append(p.Rows, Row{
				Senders:  len(r.senders),
				Methods:  sortedSet(r.methods),
				Encoding: lab,
				Params:   sortedSet(r.params),
			})
		}
		sort.Slice(p.Rows, func(a, b int) bool {
			if p.Rows[a].Senders != p.Rows[b].Senders {
				return p.Rows[a].Senders > p.Rows[b].Senders
			}
			return p.Rows[a].Encoding < p.Rows[b].Encoding
		})

		if len(agg.allSenders) >= 2 {
			c.MultiSender++
		} else {
			c.SingleSender++
		}
		if p.MultiSenderID {
			c.MultiSenderID++
		}
		c.Providers = append(c.Providers, p)
		if p.IsTracker() {
			c.Trackers = append(c.Trackers, p)
		}
	}
	sort.SliceStable(c.Providers, func(a, b int) bool {
		if c.Providers[a].Senders != c.Providers[b].Senders {
			return c.Providers[a].Senders > c.Providers[b].Senders
		}
		return c.Providers[a].Receiver < c.Providers[b].Receiver
	})
	sort.SliceStable(c.Trackers, func(a, b int) bool {
		if c.Trackers[a].Senders != c.Trackers[b].Senders {
			return c.Trackers[a].Senders > c.Trackers[b].Senders
		}
		return c.Trackers[a].Receiver < c.Trackers[b].Receiver
	})
	return c
}

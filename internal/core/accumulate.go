package core

import (
	"fmt"
	"sort"

	"piileak/internal/httpmodel"
	"piileak/internal/pii"
)

// Accumulator builds the §4.2 aggregate indexes one leak at a time, so
// detection can stream with collection instead of buffering every site's
// traffic before analysis starts. Every index it maintains is a set (or
// a map of sets), which makes the accumulated state independent of the
// order leaks arrive in — the property that lets parallel runs
// reproduce the serial numbers exactly.
//
// Analyze is now a thin wrapper: it feeds a fresh Accumulator and
// finalizes it. A streaming caller instead calls Add per leak and
// AddSites per crawled site as they complete, then Finalize once.
type Accumulator struct {
	totalSites int

	senderReceivers map[string]map[string]bool
	receiverSenders map[string]map[string]bool
	leakyRequests   map[string]bool

	senderMethods   map[string]map[httpmodel.SurfaceKind]bool
	receiverMethods map[string]map[httpmodel.SurfaceKind]bool

	senderLabels   map[string]map[string]bool
	receiverLabels map[string]map[string]bool

	senderTypes   map[string]map[pii.Type]bool
	receiverTypes map[string]map[pii.Type]bool

	cloakedReceivers map[string]bool
}

// NewAccumulator returns an empty accumulator.
func NewAccumulator() *Accumulator {
	return &Accumulator{
		senderReceivers:  map[string]map[string]bool{},
		receiverSenders:  map[string]map[string]bool{},
		leakyRequests:    map[string]bool{},
		senderMethods:    map[string]map[httpmodel.SurfaceKind]bool{},
		receiverMethods:  map[string]map[httpmodel.SurfaceKind]bool{},
		senderLabels:     map[string]map[string]bool{},
		receiverLabels:   map[string]map[string]bool{},
		senderTypes:      map[string]map[pii.Type]bool{},
		receiverTypes:    map[string]map[pii.Type]bool{},
		cloakedReceivers: map[string]bool{},
	}
}

// AddSites grows the crawled-site population (the headline's
// denominator) by n.
func (acc *Accumulator) AddSites(n int) { acc.totalSites += n }

func mark[K comparable](m map[string]map[K]bool, entity string, k K) {
	s := m[entity]
	if s == nil {
		s = map[K]bool{}
		m[entity] = s
	}
	s[k] = true
}

// Add folds one detected leak into every aggregate index.
func (acc *Accumulator) Add(l *Leak) {
	mark(acc.senderReceivers, l.Site, l.Receiver)
	mark(acc.receiverSenders, l.Receiver, l.Site)
	acc.leakyRequests[fmt.Sprintf("%s#%d", l.Site, l.Seq)] = true

	mark(acc.senderMethods, l.Site, l.Method)
	mark(acc.receiverMethods, l.Receiver, l.Method)

	lab := l.EncodingLabel()
	mark(acc.senderLabels, l.Site, lab)
	mark(acc.receiverLabels, l.Receiver, lab)

	mark(acc.senderTypes, l.Site, l.Token.Field.Type)
	mark(acc.receiverTypes, l.Receiver, l.Token.Field.Type)

	if l.Cloaked {
		acc.cloakedReceivers[l.Receiver] = true
	}
}

// Finalize materializes the Analysis view over the accumulated state.
// The leaks slice is carried for export (WriteLeaksJSON, downstream
// tooling); none of the Analysis methods rescan it. Finalize may be
// called again after further Adds — each call builds a fresh view over
// the same shared indexes.
func (acc *Accumulator) Finalize(leaks []Leak) *Analysis {
	a := &Analysis{
		Leaks:           leaks,
		TotalSites:      acc.totalSites,
		SenderReceivers: acc.senderReceivers,
		ReceiverSenders: acc.receiverSenders,
		LeakyRequests:   len(acc.leakyRequests),

		senderMethods:    acc.senderMethods,
		receiverMethods:  acc.receiverMethods,
		senderLabels:     acc.senderLabels,
		receiverLabels:   acc.receiverLabels,
		senderTypes:      acc.senderTypes,
		receiverTypes:    acc.receiverTypes,
		cloakedReceivers: acc.cloakedReceivers,
	}
	for s := range acc.senderReceivers {
		a.Senders = append(a.Senders, s)
	}
	for r := range acc.receiverSenders {
		a.Receivers = append(a.Receivers, r)
	}
	sort.Strings(a.Senders)
	sort.Strings(a.Receivers)
	return a
}

// SenderSet exposes the distinct sender domains accumulated so far —
// the §6 policy-audit population — without materializing an Analysis.
func (acc *Accumulator) SenderSet() map[string]bool {
	out := make(map[string]bool, len(acc.senderReceivers))
	for s := range acc.senderReceivers {
		out[s] = true
	}
	return out
}

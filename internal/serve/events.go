package serve

import (
	"encoding/json"
	"sync"
)

// EventLog is a job's in-memory progress history: a bounded ring of
// sequenced events that late subscribers replay from any point. It is
// the live half of the progress surface — the WAL persists state, not
// telemetry, so the log is rebuilt empty on restart and a resumed job's
// stream starts over from its resume point. Subscribers that cannot
// keep up are disconnected rather than buffered without bound (they
// reconnect with Last-Event-ID and replay what the ring still holds),
// keeping the server's memory bounded no matter how slow a client is.

// eventRingCap bounds how many events a job retains for replay. A
// -small study emits a few hundred progress events, so the default ring
// holds a complete history; larger studies degrade to "replay the
// recent window", which SSE reconnection semantics tolerate.
const eventRingCap = 1024

// Event is one sequenced progress record. IDs start at 1 and increase
// by 1 per event within a job's lifetime in this process.
type Event struct {
	// ID is the per-job sequence number (the SSE id: field).
	ID int64 `json:"id"`
	// Kind names the payload shape: "state" (JobView), "progress"
	// (pipeline stage progress), or "done" (terminal JobView).
	Kind string `json:"kind"`
	// Data is the marshaled payload.
	Data json.RawMessage `json:"data"`
}

// subscriber is one attached stream: a buffered delivery channel plus
// the overflow flag that records a forced disconnect.
type subscriber struct {
	ch      chan Event
	dropped bool
}

// EventLog is safe for concurrent publish/subscribe.
type EventLog struct {
	mu     sync.Mutex
	ring   []Event // at most eventRingCap, oldest first
	nextID int64
	subs   map[*subscriber]struct{}
	closed bool
}

// NewEventLog returns an empty log.
func NewEventLog() *EventLog {
	return &EventLog{nextID: 1, subs: map[*subscriber]struct{}{}}
}

// Publish appends one event, assigning its ID, and fans it out. A
// subscriber whose buffer is full is disconnected (its channel closed)
// instead of blocking the publisher — the client reconnects with
// Last-Event-ID. Publishing to a closed log is a no-op.
func (l *EventLog) Publish(kind string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		// Payloads are our own structs; a marshal failure is a
		// programming error, and dropping the event beats wedging the
		// run loop.
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev := Event{ID: l.nextID, Kind: kind, Data: data}
	l.nextID++
	l.ring = append(l.ring, ev)
	if len(l.ring) > eventRingCap {
		l.ring = l.ring[len(l.ring)-eventRingCap:]
	}
	for sub := range l.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped = true
			close(sub.ch)
			delete(l.subs, sub)
		}
	}
}

// Subscribe returns the retained events after afterID (the client's
// Last-Event-ID; 0 replays everything the ring holds) and a live
// channel for subsequent events. The channel is closed when the log
// closes or the subscriber falls too far behind; cancel detaches it.
func (l *EventLog) Subscribe(afterID int64) (replay []Event, live <-chan Event, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, ev := range l.ring {
		if ev.ID > afterID {
			replay = append(replay, ev)
		}
	}
	sub := &subscriber{ch: make(chan Event, 64)}
	if l.closed {
		close(sub.ch)
		return replay, sub.ch, func() {}
	}
	l.subs[sub] = struct{}{}
	cancel = func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[sub]; ok {
			delete(l.subs, sub)
			close(sub.ch)
		}
	}
	return replay, sub.ch, cancel
}

// Close ends the stream: live channels close, replay keeps working.
// Idempotent.
func (l *EventLog) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for sub := range l.subs {
		close(sub.ch)
		delete(l.subs, sub)
	}
}

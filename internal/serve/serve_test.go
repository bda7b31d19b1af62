package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"piileak"
	"piileak/internal/cliflags"
	"piileak/internal/resilience"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero", Spec{}, true},
		{"small", Spec{Seed: 7, Small: true}, true},
		{"full knobs", Spec{Browser: "brave", Workers: 4, DetectWorkers: 2, Faults: 0.1, Retries: 3, SiteTimeout: "30s", Only: []string{"a.example"}}, true},
		{"faults over 1", Spec{Faults: 1.5}, false},
		{"negative workers", Spec{Workers: -1}, false},
		{"negative retries", Spec{Retries: -2}, false},
		{"unknown browser", Spec{Browser: "netscape"}, false},
		{"bad timeout", Spec{SiteTimeout: "soon"}, false},
		{"negative timeout", Spec{SiteTimeout: "-5s"}, false},
		{"empty only entry", Spec{Only: []string{"a.example", " "}}, false},
		{"lone empty only entry", Spec{Only: []string{""}}, false},
		{"comma in an only entry", Spec{Seed: 7, Small: true, Only: []string{"a.com,b.com"}}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := st.Submit(Spec{Seed: uint64(i + 1), Small: true}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.MarkRunning("j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MarkDone("j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MarkRunning("j2"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MarkFailed("j2", "boom"); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.TornRecords() != 0 || re.Recovered() != 0 {
		t.Fatalf("clean reopen reported torn=%d recovered=%d", re.TornRecords(), re.Recovered())
	}
	jobs := re.Jobs()
	if len(jobs) != 3 {
		t.Fatalf("got %d jobs, want 3", len(jobs))
	}
	wantStates := map[string]State{"j1": StateDone, "j2": StateFailed, "j3": StateQueued}
	for _, j := range jobs {
		if j.State != wantStates[j.ID] {
			t.Errorf("%s: state %s, want %s", j.ID, j.State, wantStates[j.ID])
		}
	}
	if j, _ := re.Get("j2"); j.Error != "boom" || j.Attempts != 1 {
		t.Errorf("j2 = %+v, want error boom, attempts 1", j)
	}
	if q := re.Queued(); len(q) != 1 || q[0].ID != "j3" {
		t.Errorf("Queued() = %v, want [j3]", q)
	}
	// A new submission continues the sequence instead of reusing IDs.
	j4, err := re.Submit(Spec{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if j4.ID != "j4" {
		t.Errorf("post-reopen submit got ID %s, want j4", j4.ID)
	}
}

func TestStoreRecoversRunning(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(Spec{Small: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.MarkRunning("j1"); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate the process dying with the WAL mid-flight.
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Recovered() != 1 {
		t.Fatalf("Recovered() = %d, want 1", re.Recovered())
	}
	j, ok := re.Get("j1")
	if !ok || j.State != StateQueued || j.Resumes != 1 || j.Attempts != 1 {
		t.Fatalf("recovered job = %+v, want queued with resumes=1 attempts=1", j)
	}
}

func TestStoreTornTail(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Submit(Spec{Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a kill -9 mid-append: a torn, undecodable trailing line.
	f, err := os.OpenFile(StorePath(dir), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"state","id":"j1","state":"do`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.TornRecords() != 1 {
		t.Fatalf("TornRecords() = %d, want 1", re.TornRecords())
	}
	if j, _ := re.Get("j1"); j.State != StateQueued {
		t.Fatalf("job after torn tail = %s, want queued (the torn transition must not apply)", j.State)
	}
	re.Close()

	// The open-time compaction rewrote the file; a further reopen is clean.
	again, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.TornRecords() != 0 {
		t.Fatalf("compacted store still reports %d torn records", again.TornRecords())
	}
}

func TestEventLogReplayAndOverflow(t *testing.T) {
	l := NewEventLog()
	for i := 0; i < 5; i++ {
		l.Publish("progress", map[string]int{"i": i})
	}
	replay, live, cancel := l.Subscribe(2)
	if len(replay) != 3 || replay[0].ID != 3 || replay[2].ID != 5 {
		t.Fatalf("Subscribe(2) replayed %v, want IDs 3..5", replay)
	}
	l.Publish("progress", map[string]int{"i": 5})
	select {
	case ev := <-live:
		if ev.ID != 6 {
			t.Fatalf("live event ID %d, want 6", ev.ID)
		}
	case <-time.After(time.Second):
		t.Fatal("live event never arrived")
	}
	cancel()

	// A subscriber that never drains is disconnected, not buffered
	// without bound: its channel closes once the 64-slot buffer fills.
	lastID := func() int64 {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.nextID - 1
	}
	_, slow, slowCancel := l.Subscribe(lastID())
	defer slowCancel()
	for i := 0; i < 70; i++ {
		l.Publish("progress", map[string]int{"i": i})
	}
	deadline := time.After(time.Second)
	closed := false
	for !closed {
		select {
		case _, open := <-slow:
			if !open {
				closed = true
			}
		case <-deadline:
			t.Fatal("overflowing subscriber was never disconnected")
		}
	}

	// The ring bounds replay: after eventRingCap more events only the
	// newest eventRingCap are retained.
	for i := 0; i < eventRingCap; i++ {
		l.Publish("progress", map[string]int{"i": i})
	}
	replay, _, cancel2 := l.Subscribe(0)
	cancel2()
	if len(replay) != eventRingCap {
		t.Fatalf("ring replayed %d events, want %d", len(replay), eventRingCap)
	}
	if last := replay[len(replay)-1].ID; last != lastID() {
		t.Fatalf("replay ends at ID %d, want %d", last, lastID())
	}

	l.Close()
	replayAfterClose, liveAfterClose, _ := l.Subscribe(0)
	if len(replayAfterClose) != eventRingCap {
		t.Fatalf("replay after close lost events: %d", len(replayAfterClose))
	}
	if _, open := <-liveAfterClose; open {
		t.Fatal("live channel open after Close")
	}
}

// postSpec submits a spec JSON through the handler surface.
func postSpec(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/jobs", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestAdmissionControl(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir(), Slots: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	// Workers are deliberately not started: submissions stay queued, so
	// the admission bound is exercised without racing a study.
	for i := 0; i < 2; i++ {
		if w := postSpec(t, h, `{"seed":7,"small":true}`); w.Code != http.StatusCreated {
			t.Fatalf("submit %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	w := postSpec(t, h, `{"seed":7,"small":true}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated submit: %d, want 429", w.Code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 Retry-After = %q, want a positive whole-seconds hint", ra)
	}

	if w := postSpec(t, h, `{"seed":7,"faults":2}`); w.Code != http.StatusBadRequest {
		t.Fatalf("invalid spec: %d, want 400", w.Code)
	}
	if w := postSpec(t, h, `{"seed":7,"surprise":true}`); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown field: %d, want 400", w.Code)
	}
	// One only element is one domain: a comma in it is refused, naming
	// the element, not split into two.
	if w := postSpec(t, h, `{"seed":7,"small":true,"only":["a.com,b.com"]}`); w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "a.com,b.com") {
		t.Fatalf("comma in an only element: %d %s, want 400 naming the element", w.Code, w.Body.String())
	}

	srv.Drain()
	w = postSpec(t, h, `{"seed":7}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 carries no Retry-After")
	}
}

func TestCancelQueuedJob(t *testing.T) {
	srv, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	h := srv.Handler()
	if w := postSpec(t, h, `{"seed":7,"small":true}`); w.Code != http.StatusCreated {
		t.Fatalf("submit: %d %s", w.Code, w.Body.String())
	}
	req := httptest.NewRequest("POST", "/v1/jobs/j1/cancel", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("cancel: %d %s", w.Code, w.Body.String())
	}
	var view JobView
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view.State != StateCancelled {
		t.Fatalf("cancelled job state = %s", view.State)
	}
	// Cancelling a terminal job conflicts.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("POST", "/v1/jobs/j1/cancel", nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("double cancel: %d, want 409", w.Code)
	}
	// Unknown jobs 404.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/j99", nil))
	if w.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", w.Code)
	}
	// Results for a non-done job conflict rather than 404.
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/j1/leaks", nil))
	if w.Code != http.StatusConflict {
		t.Fatalf("leaks of cancelled job: %d, want 409", w.Code)
	}
}

func TestWatchdogFailsOverBudgetJob(t *testing.T) {
	srv, err := New(Config{
		Dir:        t.TempDir(),
		Slots:      1,
		JobTimeout: time.Millisecond,
		Clock:      resilience.NewVirtualClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	if _, err := srv.Submit(Spec{Seed: 7, Small: true}); err != nil {
		t.Fatal(err)
	}
	// The virtual clock makes the watchdog fire instantly, so the job
	// must land failed with the budget in its error.
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _ := srv.Store().Get("j1")
		if j != nil && j.State.Terminal() {
			if j.State != StateFailed || !strings.Contains(j.Error, "watchdog") {
				t.Fatalf("job = %s (%q), want watchdog failure", j.State, j.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never went terminal")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Drain()
	srv.Wait()
	srv.Close()
}

// runDirect executes spec through the library exactly as runJob does and
// returns the leak bytes and rendered tables — the byte-identity oracle.
func runDirect(t *testing.T, spec Spec) (leaks []byte, tables map[string]string) {
	t.Helper()
	study, err := piileak.NewStudy(spec.StudyConfig())
	if err != nil {
		t.Fatal(err)
	}
	profile, err := cliflags.ResolveBrowser("firefox", study.Eco)
	if err != nil {
		t.Fatal(err)
	}
	study.Config.Browser = profile
	if err := study.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := study.WriteLeaksJSON(&buf); err != nil {
		t.Fatal(err)
	}
	tables = map[string]string{}
	for n, render := range map[string]func() (string, error){
		"1": study.Table1, "2": study.Table2, "4": study.Table4,
	} {
		text, err := render()
		if err != nil {
			t.Fatal(err)
		}
		tables[n] = text
	}
	return buf.Bytes(), tables
}

// TestServeEndToEndByteIdentity pins the tentpole contract across the
// API boundary in-process: a job submitted over HTTP yields leak bytes
// and tables byte-identical to the same spec run directly through the
// library, with the SSE stream replayable from any Last-Event-ID.
func TestServeEndToEndByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small study")
	}
	spec := Spec{Seed: 7, Small: true}
	wantLeaks, wantTables := runDirect(t, spec)

	srv, err := New(Config{Dir: t.TempDir(), Slots: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || view.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, view)
	}

	// Follow the JSONL progress stream to completion; it must carry
	// progress ticks and end with the terminal "done" event.
	events := streamEvents(t, ts.URL+"/v1/jobs/"+view.ID+"/events?format=jsonl")
	if len(events) == 0 || events[len(events)-1].Kind != "done" {
		t.Fatalf("stream ended without a done event (%d events)", len(events))
	}
	sawProgress := false
	for i, ev := range events {
		if ev.ID != int64(i+1) {
			t.Fatalf("event %d has ID %d, want contiguous IDs from 1", i, ev.ID)
		}
		if ev.Kind == "progress" {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("stream carried no progress events")
	}

	// Reconnect with Last-Event-ID mid-stream: replay resumes exactly
	// after the acknowledged event.
	mid := events[len(events)/2].ID
	req, _ := http.NewRequest("GET", ts.URL+"/v1/jobs/"+view.ID+"/events?format=jsonl", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(mid))
	replayed := streamEventsReq(t, req)
	if len(replayed) != len(events)-int(mid) {
		t.Fatalf("Last-Event-ID=%d replayed %d events, want %d", mid, len(replayed), len(events)-int(mid))
	}
	if replayed[0].ID != mid+1 {
		t.Fatalf("replay starts at ID %d, want %d", replayed[0].ID, mid+1)
	}

	// The SSE default format frames the same events.
	req, _ = http.NewRequest("GET", ts.URL+"/v1/jobs/"+view.ID+"/events", nil)
	req.Header.Set("Last-Event-ID", fmt.Sprint(events[len(events)-1].ID-1))
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	sse, err := readAll(sresp.Body)
	sresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sse, "event: done\n") || !strings.Contains(sse, "id: ") {
		t.Fatalf("SSE framing missing id/event lines:\n%s", sse)
	}

	get := func(path string) []byte {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if got := get("/v1/jobs/" + view.ID + "/leaks"); !bytes.Equal(got, wantLeaks) {
		t.Errorf("served leaks differ from the direct run (%d vs %d bytes)", len(got), len(wantLeaks))
	}
	for n, want := range wantTables {
		if got := string(get("/v1/jobs/" + view.ID + "/tables/" + n)); got != want {
			t.Errorf("served table %s differs from the direct render", n)
		}
	}
	var metrics struct {
		EngineCache map[string]uint64 `json:"engine_cache"`
	}
	if err := json.Unmarshal(get("/metrics"), &metrics); err != nil {
		t.Fatal(err)
	}
	if metrics.EngineCache == nil {
		t.Error("/metrics misses engine_cache")
	}
	if len(get("/v1/jobs/"+view.ID+"/metrics")) == 0 {
		t.Error("job metrics empty")
	}

	srv.Drain()
	srv.Wait()
	srv.Close()
}

// TestServeDrainRequeuesAndResumes pins the graceful-drain contract
// in-process: draining mid-study re-queues the job durably, and a new
// server over the same state directory completes it to byte-identical
// results.
func TestServeDrainRequeuesAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a small study")
	}
	spec := Spec{Seed: 7, Small: true}
	wantLeaks, _ := runDirect(t, spec)
	dir := t.TempDir()

	srv, err := New(Config{Dir: dir, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.Start(ctx)
	if _, err := srv.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to own the job, then drain mid-study. The
	// study may finish first on a fast machine; both arms below hold.
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if j, _ := srv.Store().Get("j1"); j != nil && j.State != StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}
	srv.Drain()
	srv.Wait()
	j, _ := srv.Store().Get("j1")
	switch j.State {
	case StateQueued:
		if j.Resumes != 1 {
			t.Fatalf("drained job resumes = %d, want 1", j.Resumes)
		}
	case StateDone:
		t.Log("study completed before the drain; resume covers the full checkpoint")
	default:
		t.Fatalf("post-drain state = %s, want queued or done", j.State)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart over the same state: the queued job re-enqueues and its
	// next attempt resumes from the checkpoint.
	srv2, err := New(Config{Dir: dir, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start(ctx)
	for deadline := time.Now().Add(60 * time.Second); ; {
		j, _ := srv2.Store().Get("j1")
		if j != nil && j.State.Terminal() {
			if j.State != StateDone {
				t.Fatalf("resumed job ended %s (%s)", j.State, j.Error)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("resumed job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := os.ReadFile(filepath.Join(srv2.Store().JobDir("j1"), FileLeaks))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, wantLeaks) {
		t.Errorf("resumed leaks differ from the direct run (%d vs %d bytes)", len(got), len(wantLeaks))
	}
	srv2.Drain()
	srv2.Wait()
	srv2.Close()
}

// streamEvents reads a JSONL event stream to EOF.
func streamEvents(t *testing.T, url string) []Event {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	return streamEventsReq(t, req)
}

func streamEventsReq(t *testing.T, req *http.Request) []Event {
	t.Helper()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", req.URL, resp.StatusCode)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func readAll(r interface{ Read([]byte) (int, error) }) (string, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r)
	return buf.String(), err
}

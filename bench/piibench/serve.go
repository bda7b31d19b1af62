package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"piileak/internal/serve"
)

const (
	serveRate     = 2.0                    // open-loop submissions per second
	pollInterval  = 10 * time.Millisecond  // how often the poller lists jobs
	maxLate       = 50 * time.Millisecond  // a later submission invalidates the round
	serveDeadline = 120 * time.Second      // longest wait for the queue to drain
	burstGap      = 150 * time.Millisecond // idle time before the next due submission that a burst needs
)

// dueAt is when the open loop's submission i is due.
func dueAt(start time.Time, i int) time.Time {
	return start.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
}

// serveSpec is job i of the open loop: three small studies, then one
// full paper-scale study, each with its own seed.
func serveSpec(seed uint64, i int) serve.Spec {
	return serve.Spec{Seed: seed + uint64(i), Small: i%4 != 3}
}

// server is one running piiserve process.
type server struct {
	cmd   *exec.Cmd
	start time.Time
	base  string
	log   *addrWatcher
}

// addrWatcher is the server's stderr: it keeps the tail for
// diagnostics and reports the listen address from the start-up line.
// Only exec's copying goroutine calls Write.
type addrWatcher struct {
	tailBuffer
	addr chan string // capacity 1: the first address wins, later ones drop
	line []byte
}

func (a *addrWatcher) Write(p []byte) (int, error) {
	a.tailBuffer.Write(p) //nolint:errcheck // tailBuffer never fails
	a.line = append(a.line, p...)
	for {
		i := bytes.IndexByte(a.line, '\n')
		if i < 0 {
			break
		}
		l := string(a.line[:i])
		a.line = a.line[i+1:]
		if _, rest, ok := strings.Cut(l, "serving on http://"); ok {
			addr, _, _ := strings.Cut(rest, " ")
			select {
			case a.addr <- addr:
			default:
			}
		}
	}
	return len(p), nil
}

// startServer execs piiserve on a loopback port with two study slots.
func startServer(ctx context.Context, e *env, state string) (*server, error) {
	w := &addrWatcher{tailBuffer: tailBuffer{max: 4096}, addr: make(chan string, 1)}
	cmd := exec.CommandContext(ctx, e.binary("piiserve"), "-state", state, "-slots", "2", "-addr", "127.0.0.1:0")
	cmd.Dir = e.root
	cmd.Stderr = w
	s := &server{cmd: cmd, log: w, start: now()}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start piiserve: %w", err)
	}
	select {
	case addr := <-w.addr:
		s.base = "http://" + addr
		return s, nil
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	s.kill()
	return nil, fmt.Errorf("piiserve did not report its address: %s", w.String())
}

// stop drains the server with SIGTERM and waits for it; the drain must
// exit 0.
func (s *server) stop() (procResult, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return procResult{}, err
	}
	err := s.cmd.Wait()
	p := procResult{wall: since(s.start), tail: s.log.String()}
	p.usage(s.cmd.ProcessState)
	if err != nil {
		return p, fmt.Errorf("piiserve drain: %v: %s", err, p.tail)
	}
	return p, nil
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill() // best effort: the process may have exited already
	_ = s.cmd.Wait()         // reaps it; the error is the kill we just sent
}

// client is one HTTP connection to the server: the load generator uses
// one for submissions and one for polling.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// submit posts one spec; it returns the job ID, or "" with the status
// when the server refused it.
func submit(ctx context.Context, c *http.Client, base string, spec serve.Spec) (string, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusCreated {
		return "", resp.StatusCode, nil
	}
	var v serve.JobView
	if err := json.Unmarshal(data, &v); err != nil {
		return "", 0, fmt.Errorf("submit response: %w", err)
	}
	return v.ID, resp.StatusCode, nil
}

// get fetches one API document.
func get(ctx context.Context, c *http.Client, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, data)
	}
	return data, nil
}

// listJobs returns every job's state.
func listJobs(ctx context.Context, c *http.Client, base string) (map[string]serve.State, error) {
	data, err := get(ctx, c, base+"/v1/jobs")
	if err != nil {
		return nil, err
	}
	var views []serve.JobView
	if err := json.Unmarshal(data, &views); err != nil {
		return nil, fmt.Errorf("job list: %w", err)
	}
	states := make(map[string]serve.State, len(views))
	for _, v := range views {
		states[v.ID] = v.State
	}
	return states, nil
}

// warmUp submits the warm-up job and polls until it is done, returning
// the time from the server's exec to that poll: the service's set-up.
func warmUp(ctx context.Context, c *http.Client, s *server, seed uint64) (time.Duration, error) {
	id, status, err := submit(ctx, c, s.base, serve.Spec{Seed: seed, Small: true})
	if err != nil {
		return 0, err
	}
	if id == "" {
		return 0, fmt.Errorf("warm-up job refused with status %d", status)
	}
	deadline := now().Add(serveDeadline)
	for now().Before(deadline) {
		states, err := listJobs(ctx, c, s.base)
		if err != nil {
			return 0, err
		}
		switch st := states[id]; {
		case st == serve.StateDone:
			return since(s.start), nil
		case st.Terminal():
			return 0, fmt.Errorf("warm-up job ended %s", st)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(pollInterval):
		}
	}
	return 0, fmt.Errorf("warm-up job not done after %v", serveDeadline)
}

// submission is one open-loop job as the submitter sent it.
type submission struct {
	index int
	id    string // "" when refused
	due   time.Time
	late  time.Duration
}

func runServeMix(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	poller := newClient()
	defer poller.CloseIdleConnections()

	// Set-up: throwaway cold starts, each from exec to its warm-up job
	// done; the measured server's own start is the last sample.
	for i := 0; i < e.sz.setups-1; i++ {
		o.burst(2)
		d, err := coldStart(ctx, e, poller, filepath.Join(e.work, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			o.problem("serve-mix set-up %d: %v", i, err)
			continue
		}
		o.add("setup_s", "s", d.Seconds())
	}

	state := filepath.Join(e.work, "state")
	s, err := startServer(ctx, e, state)
	if err != nil {
		return nil, err
	}
	d, err := warmUp(ctx, poller, s, e.seed)
	if err != nil {
		s.kill()
		return nil, err
	}
	o.add("setup_s", "s", d.Seconds())

	n := e.sz.jobs
	if n == 0 {
		n = int(serveRate*e.seconds + 0.5)
	}
	subs, err := openLoop(ctx, e, o, s, poller, n)
	if err != nil {
		s.kill()
		return nil, err
	}
	checkServed(ctx, e, o, s, poller, subs)

	p, err := s.stop()
	if err != nil {
		o.problem("%v", err)
	}
	o.add("cpu_s", "s", p.cpu.Seconds())
	o.add("raw.peak_rss_mb", "MB", p.rssMB)
	addFailedFrac(o)
	return o, os.RemoveAll(state)
}

// coldStart measures one server start to its warm-up job done, then
// drains the server.
func coldStart(ctx context.Context, e *env, c *http.Client, state string) (time.Duration, error) {
	s, err := startServer(ctx, e, state)
	if err != nil {
		return 0, err
	}
	d, err := warmUp(ctx, c, s, e.seed)
	if err != nil {
		s.kill()
		return 0, err
	}
	if _, err := s.stop(); err != nil {
		return 0, err
	}
	c.CloseIdleConnections()
	return d, os.RemoveAll(state)
}

// openLoop submits n jobs at serveRate on their own schedule — a slow
// server does not slow the submissions — and polls until every job is
// terminal. Each job's latency runs from its due time to the poll that
// first sees it done, so a stall is charged to every job it delays.
//
// The calibration bursts run inside the loop, so they read the machine
// while the server works, but only in the gaps between jobs: when no
// job is in flight and the next one is due more than burstGap later,
// the poller runs one burst. It then competes with no job and delays
// no poll that could see one finish.
func openLoop(ctx context.Context, e *env, o *outcome, s *server, poller *http.Client, n int) ([]submission, error) {
	submitter := newClient()
	defer submitter.CloseIdleConnections()
	// A failed poll stops the submitter rather than waiting out its
	// schedule.
	sctx, stopSubmitter := context.WithCancel(ctx)
	defer stopSubmitter()
	sent := make(chan submission, n) // one slot per submission: the submitter never blocks on the poller
	var subErr error
	var wg sync.WaitGroup
	start := now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(sent)
		for i := 0; i < n; i++ {
			due := dueAt(start, i)
			select {
			case <-sctx.Done():
				subErr = sctx.Err()
				return
			case <-time.After(due.Sub(now())):
			}
			late := since(due)
			id, status, err := submit(sctx, submitter, s.base, serveSpec(e.seed, i))
			if err != nil {
				subErr = err
				return
			}
			if id == "" && status != http.StatusTooManyRequests {
				subErr = fmt.Errorf("job %d refused with status %d", i, status)
				return
			}
			sent <- submission{index: i, id: id, due: due, late: late}
		}
	}()

	var subs []submission
	var rss rssWindows
	pending := map[string]submission{}
	open := true
	deadline := dueAt(start, n).Add(serveDeadline)
	burstAt := -1 // the submission count at the last burst: one burst per gap
	var pollErr error
	for (open || len(pending) > 0) && pollErr == nil {
		if now().After(deadline) {
			pollErr = fmt.Errorf("%d jobs still pending after %v", len(pending), serveDeadline)
			break
		}
		for drained := false; !drained; {
			select {
			case sub, ok := <-sent:
				if !ok {
					open, drained = false, true
					break
				}
				subs = append(subs, sub)
				if sub.id != "" {
					pending[sub.id] = sub
				}
			default:
				drained = true
			}
		}
		states, err := listJobs(ctx, poller, s.base)
		if err != nil {
			pollErr = err
			break
		}
		seen := now()
		rss.sample(s.cmd.Process.Pid, seen.Sub(start))
		for id, sub := range pending {
			switch st := states[id]; {
			case st == serve.StateDone:
				o.add("wall_s", "s", seen.Sub(sub.due).Seconds())
				delete(pending, id)
			case st.Terminal():
				o.failed++
				o.problem("serve-mix job %d (%s) ended %s", sub.index, id, st)
				delete(pending, id)
			}
		}
		if open && len(pending) == 0 && burstAt < len(subs) && dueAt(start, len(subs)).Sub(now()) > burstGap {
			o.burst(1)
			burstAt = len(subs)
		}
		select {
		case <-ctx.Done():
			pollErr = ctx.Err()
		case <-time.After(pollInterval):
		}
	}
	if pollErr != nil {
		stopSubmitter()
		wg.Wait()
		return nil, pollErr
	}
	wg.Wait()
	if subErr != nil {
		return nil, subErr
	}

	var lateMax time.Duration
	for _, sub := range subs {
		o.attempted++
		if sub.id == "" {
			o.failed++
			o.problem("serve-mix job %d refused with 429", sub.index)
		}
		if sub.late > lateMax {
			lateMax = sub.late
		}
	}
	o.add("late_ms_max", "ms", float64(lateMax)/float64(time.Millisecond))
	if lateMax > maxLate {
		o.invalid = fmt.Sprintf("a submission left %v after its due time (limit %v): the generator, not the server, set the load", lateMax, maxLate)
	}
	if w := o.metrics["wall_s"]; w != nil {
		o.add("job_p90_s", "s", percentile(w.xs, 90))
	}
	for _, peak := range rss.peaks() {
		o.add("peak_rss_mb", "MB", peak)
	}
	return subs, nil
}

// rssWindow is the span of the open loop each peak_rss_mb sample covers.
const rssWindow = 5 * time.Second

// rssWindows keeps the server's largest resident set per rssWindow of
// the open loop, sampled at every poll. The single rusage maximum over
// a run swings with which jobs happen to overlap a GC cycle; the median
// of the windows' peaks repeats.
type rssWindows struct {
	max []float64 // MB, by window
}

func (r *rssWindows) sample(pid int, at time.Duration) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return // the process is gone; its rusage maximum is still reported
	}
	for _, line := range strings.Split(string(b), "\n") {
		rest, ok := strings.CutPrefix(line, "VmRSS:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return
		}
		w := int(at / rssWindow)
		for len(r.max) <= w {
			r.max = append(r.max, 0)
		}
		r.max[w] = max(r.max[w], kb/1024)
		return
	}
}

// peaks returns the windows' peaks, dropping a last window too short
// to hold a full job cycle.
func (r *rssWindows) peaks() []float64 {
	if len(r.max) > 1 {
		return r.max[:len(r.max)-1]
	}
	return r.max
}

// checkServed compares the served leak datasets of the first small and
// the first full job with the in-process references.
func checkServed(ctx context.Context, e *env, o *outcome, s *server, c *http.Client, subs []submission) {
	checked := map[bool]bool{}
	for _, sub := range subs {
		spec := serveSpec(e.seed, sub.index)
		if sub.id == "" || checked[spec.Small] {
			continue
		}
		checked[spec.Small] = true
		got, err := get(ctx, c, s.base+"/v1/jobs/"+sub.id+"/leaks")
		if err != nil {
			o.problem("serve-mix job %s leaks: %v", sub.id, err)
			continue
		}
		e.checkBytes(ctx, o, fmt.Sprintf("serve-mix job %s", sub.id), got, spec.Seed, spec.Small)
	}
	if !checked[true] || !checked[false] {
		o.problem("serve-mix: no completed small and full job to check")
	}
}

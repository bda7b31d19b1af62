package crawler

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"sync"

	"piileak/internal/browser"
	"piileak/internal/obs"
	"piileak/internal/site"
	"piileak/internal/webgen"
)

// A Checkpoint is a run's one per-site file: a header line pinning the
// run, then one SiteResult line per finished site, in completion order,
// appended by the stage that finishes the site — Run after the crawl,
// with its records; the study pipeline after detection, with its leaks.
// Each line is written whole with one write, so a killed process loses
// only the sites it had not yet appended; lines are fsynced in groups,
// so an OS crash can also lose the unsynced tail, which a resume runs
// again to the same bytes. A resume hands every intact line to the
// caller's fold and keeps only the set of finished indexes. A shard's
// checkpoint is sealed when its run completes (Complete): a trailer line
// ends it, and it is then the shard's result (ReadSealed).
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	obs      *obs.Run
	src      site.Source // the run's sites, which every decoded line must name
	done     []uint64    // site indexes decoded, one bit each
	loaded   int         // site lines loaded at open
	torn     int         // non-empty lines dropped on load (crash-torn tail)
	lines    int         // site lines in the file: read, then appended
	sum      hash.Hash   // SHA-256 of those lines for a trailer; nil for an unsharded run's
	appends  int         // lines appended this run, for the failpoint
	unsynced int         // bytes written since the last fsync
	closed   bool
	redo     string // how to replace the file when a read refuses it
}

// checkpointSyncBytes of unsynced lines trigger a group fsync (Close
// syncs the rest): about 85 paper-study sites or 1,100 tail sites, tens
// of milliseconds of crawl. Each fsync holds the mutex all appenders
// share, so smaller groups stall the run (64-site groups: 6.65 s
// against 5.43 s on a 200k-site run); larger ones widen an OS crash's loss.
const checkpointSyncBytes = 1 << 20

// CheckpointFailpoint, when non-nil, is invoked around every checkpoint
// append with an event name and the 1-based append count: "pre" before
// the line is written, "mid" after only its first half reached the file
// (the hook splits the write, so a kill there leaves a genuinely torn
// record), "sync" right before each group fsync, Close's included, and
// "post" after the write — and after the sync when the write closes a
// group. The torture harnesses kill the process from it. Test-only.
var CheckpointFailpoint func(event string, appends int)

// Header is a checkpoint's first line. It pins the file to one run, so
// a resume under another seed, population, browser, universe, shard,
// fault settings or candidate set is refused instead of mixing runs.
// Detect is the study's candidate-set pin (the pipeline's DetectPin),
// empty for a dataset crawl, whose lines carry records, not leaks.
type Header struct {
	Version  int    `json:"version"`
	Browser  string `json:"browser"`
	Seed     uint64 `json:"seed"`
	Sites    int    `json:"sites"`
	Universe int    `json:"universe"`
	Shard    int    `json:"shard,omitempty"`
	Shards   int    `json:"shards,omitempty"`
	FaultPin
	Detect string `json:"detect,omitempty"`
}

// checkpointVersion 2 is the one per-site format: indexed SiteResult
// lines appended by the stage that finishes each site. Version 1 lines
// were raw crawls keyed by domain.
const checkpointVersion = 2

// NewHeader returns the header a run of eco under opts writes; detect
// is the study's candidate-set pin, "" for a dataset crawl.
func NewHeader(eco *webgen.Ecosystem, profile browser.Profile, opts Options, detect string) Header {
	return Header{
		Version:  checkpointVersion,
		Browser:  profile.Name + " " + profile.Version,
		Seed:     eco.Config.Seed,
		Sites:    eco.Config.ShoppingSites,
		Universe: eco.Universe().Len(),
		Shard:    opts.Shard,
		Shards:   opts.Shards,
		FaultPin: opts.FaultPin(eco),
		Detect:   detect,
	}
}

func (h Header) String() string {
	return fmt.Sprintf("%s seed=%d sites=%d universe=%d shard=%d/%d %s detect=%q",
		h.Browser, h.Seed, h.Sites, h.Universe, h.Shard, h.Shards, h.FaultPin.Summary(), h.Detect)
}

// OpenCheckpoint opens opts.CheckpointPath for a run of eco under opts
// whose lines detect describes (see NewHeader). With opts.Resume and an
// existing file, each intact line is checked (check), counted in the
// telemetry and handed to fold, in file order, and a torn tail is cut
// off in place. Otherwise the file starts fresh.
func OpenCheckpoint(eco *webgen.Ecosystem, profile browser.Profile, opts Options, detect string, fold func(SiteResult)) (*Checkpoint, error) {
	c := &Checkpoint{path: opts.CheckpointPath, obs: opts.Obs, redo: redoResume}
	if opts.Shards > 0 {
		c.sum = sha256.New() // Complete seals a shard's checkpoint
		c.redo = redoShard
	}
	want := NewHeader(eco, profile, opts, detect)
	if opts.Resume {
		c.src = opts.source(eco)
		c.done = make([]uint64, (c.src.Len()+63)/64)
		loaded, err := c.load(&want, func(r SiteResult) {
			c.loaded++
			c.obs.Count(obs.MetricCheckpointResumed, 1)
			noteSiteCounters(c.obs, &r)
			fold(r)
		})
		if err != nil {
			return nil, err
		}
		c.obs.Count(obs.MetricCheckpointTorn, int64(c.torn))
		if opts.OnResume != nil {
			opts.OnResume(ResumeSummary{Completed: c.loaded, TornRecords: c.torn})
		}
		if loaded {
			return c, nil
		}
	}

	// A fresh file is its header alone, written atomically so a stale
	// checkpoint is replaced whole.
	hdr, _ := json.Marshal(want) // flat struct: cannot fail
	err := WriteFileAtomic(c.path, func(w io.Writer) error {
		_, err := w.Write(append(hdr, '\n'))
		return err
	})
	if err != nil {
		return nil, c.wrap(err)
	}
	if c.f, err = os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, c.wrap(err)
	}
	return c, nil
}

func (c *Checkpoint) wrap(err error) error {
	return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
}

// Unfinished returns src without the sites the checkpoint loaded: its
// At returns nil at a finished index, and the crawl skips a nil site.
func (c *Checkpoint) Unfinished(src site.Source) site.Source {
	if c.loaded == 0 {
		return src
	}
	return unfinished{src, c.done}
}

type unfinished struct {
	site.Source
	done []uint64
}

func (u unfinished) At(i int) *site.Site {
	if u.done[i/64]&(1<<(i%64)) != 0 {
		return nil
	}
	return u.Source.At(i)
}

// load reads an existing checkpoint whose header equals want, handing
// each site line to add, then cuts a torn tail off in place and opens
// the file for appends. loaded is false when there is nothing to load
// (no file, or a blank first line), so the caller starts fresh.
func (c *Checkpoint) load(want *Header, add func(SiteResult)) (loaded bool, err error) {
	f, err := os.Open(c.path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, c.wrap(err)
	}
	_, keep, nl, err := c.scan(bufio.NewReader(f), want, false, add)
	f.Close()
	if err != nil || keep == 0 {
		return false, err
	}
	if c.f, err = os.OpenFile(c.path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return false, c.wrap(err)
	}
	// Cut the torn tail and end the intact prefix on a newline so
	// appends start a fresh line.
	if err = c.f.Truncate(keep); err == nil && !nl {
		_, err = c.f.Write([]byte{'\n'})
	}
	if err == nil {
		err = c.f.Sync()
	}
	if err != nil {
		c.f.Close()
		return false, c.wrap(err)
	}
	return true, nil
}

// ErrOtherRun marks a checkpoint or sealed file whose header is not the
// one the reader expects: it holds another run's sites.
var ErrOtherRun = errors.New("written for another run")

// A file whose header a read refuses is replaced by running again, in
// the way its reader allows: a resumed run by starting fresh, a shard's
// worker — which always resumes its checkpoint — only once the file is
// gone, and a sealed result by running its shard again.
const (
	redoResume = "re-run without resuming to replace it"
	redoShard  = "its shard worker always resumes it: delete it or use a fresh -shard-dir"
	redoSealed = "re-run to replace it"
)

// scan is the one checkpoint line reader. It reads the header, which
// must be of this version and equal want (ErrOtherRun), then the site
// lines in file order, counting and hashing each; a lenient scan
// without add reads no site line. With add, each is decoded
// (decodeSiteLine), checked (check) and handed to add. keep is the byte
// length of the prefix through the last site line and nl whether it
// ends in a newline; keep is 0 when the first line is blank. Leniently
// — a resume — the first non-blank line that does not decode with a
// domain ends the prefix: it and every later non-blank line count as
// torn, since a crash cut the tail. Strictly — a sealed file — the last
// non-blank line must be the trailer of the site lines before it, one
// per site of the source; without add, those lines are hashed and
// never decoded. A strict want with no candidate-set pin takes the
// file's: a merge has no detector, and compares the pins its shards'
// reads return.
func (c *Checkpoint) scan(r *bufio.Reader, want *Header, strict bool, add func(SiteResult)) (hdr Header, keep int64, nl bool, err error) {
	line, err := readLine(r)
	if err != nil && err != io.EOF {
		return hdr, 0, false, c.wrap(err)
	}
	if !strict && len(bytes.TrimSpace(line)) == 0 {
		return hdr, 0, false, nil
	}
	if err := json.Unmarshal(line, &hdr); err != nil {
		return hdr, 0, false, c.wrap(fmt.Errorf("malformed header: %w", err))
	}
	if hdr.Version != checkpointVersion {
		return hdr, 0, false, c.wrap(fmt.Errorf("format version %d, this build reads version %d: %s", hdr.Version, checkpointVersion, c.redo))
	}
	if strict && want.Detect == "" {
		want.Detect = hdr.Detect
	}
	if hdr != *want {
		if strict {
			return hdr, 0, false, c.wrap(fmt.Errorf("%w: %s, this run writes %s", ErrOtherRun, hdr, *want))
		}
		return hdr, 0, false, c.wrap(fmt.Errorf("%w (%s), resume requested for %s: %s", ErrOtherRun, hdr, *want, c.redo))
	}
	size := int64(len(line))
	keep, nl = size, err == nil
	if !strict && add == nil {
		return hdr, keep, nl, nil // CheckResume reads the header alone
	}
	var tail []byte // the first non-blank line that is not a site; without add, the last non-blank line
	for err == nil {
		if line, err = readLine(r); err != nil && err != io.EOF {
			return hdr, 0, false, c.wrap(err)
		}
		size += int64(len(line))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if add == nil {
			if tail != nil {
				c.hash(tail)
			}
			tail = append(tail[:0], line...)
			continue
		}
		var s SiteResult
		if tail == nil && decodeSiteLine(line, &s) && s.Crawl.Domain != "" {
			if err := c.check(&s); err != nil {
				return hdr, 0, false, err
			}
			add(s)
			c.hash(line)
			keep, nl = size, err == nil
			continue
		}
		if tail == nil {
			tail = bytes.Clone(line)
		}
		c.torn++
	}
	if !strict {
		return hdr, keep, nl, nil
	}
	if c.torn > 1 || !bytes.Equal(bytes.TrimSuffix(tail, newline), c.trailer()) {
		return hdr, 0, false, c.wrap(fmt.Errorf("not sealed: %d site lines end in %q, not in their trailer %s alone", c.lines, tail, c.trailer()))
	}
	if c.lines != c.src.Len() {
		return hdr, 0, false, c.wrap(fmt.Errorf("sealed with %d site lines, its run has %d sites", c.lines, c.src.Len()))
	}
	return hdr, keep, nl, nil
}

var newline = []byte{'\n'}

// readLine reads the next line through its newline, as ReadBytes does,
// but in place: a line that fits r's buffer is a slice of it, valid
// only until the next read, so a caller that keeps one copies it. A
// longer line is gathered into a copy of its own.
func readLine(r *bufio.Reader) ([]byte, error) {
	line, err := r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	long := bytes.Clone(line)
	for err == bufio.ErrBufferFull {
		line, err = r.ReadSlice('\n')
		long = append(long, line...)
	}
	return long, err
}

// check refuses a decoded site line whose index lies outside the run's
// source or repeats, or whose domain is not the source's there — a
// resume and a sealed read judge a line alike — and marks it done.
func (c *Checkpoint) check(r *SiteResult) error {
	i := r.Index
	if i < 0 || i >= c.src.Len() {
		return c.wrap(fmt.Errorf("site index %d outside the run's %d sites", i, c.src.Len()))
	}
	if c.done[i/64]&(1<<(i%64)) != 0 {
		return c.wrap(fmt.Errorf("duplicate site index %d (%s)", i, r.Crawl.Domain))
	}
	if want := c.src.At(i).Domain; r.Crawl.Domain != want {
		return c.wrap(fmt.Errorf("site %d is %s, the run's site %d is %s", i, r.Crawl.Domain, i, want))
	}
	c.done[i/64] |= 1 << (i % 64)
	return nil
}

// hash counts one site line into the trailer: the line count, and the
// SHA-256 over the lines, each with its newline, when one is kept.
func (c *Checkpoint) hash(line []byte) {
	c.lines++
	if c.sum != nil {
		c.sum.Write(bytes.TrimSuffix(line, newline))
		c.sum.Write(newline)
	}
}

// trailer is a sealed checkpoint's last line: the count and SHA-256 of
// its site lines.
func (c *Checkpoint) trailer() []byte {
	return fmt.Appendf(nil, `{"lines":%d,"sha256":"%x"}`, c.lines, c.sum.Sum(nil))
}

// ReadSealed reads the sealed checkpoint at path, a shard's result,
// through the resume's line reader, and returns its header. It refuses
// a header other than want (ErrOtherRun; an empty want.Detect takes the
// file's pin), a trailer that does not match the site lines, and a
// count of site lines other than src's sites. With fold, each site line
// is decoded once, checked as a resume checks it — its index inside
// src, not repeated, and src's domain there — and handed to fold, in
// file order; a refusal can come after some lines were folded. Without
// fold, the site lines are only hashed.
func ReadSealed(path string, want Header, src site.Source, fold func(SiteResult)) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, fmt.Errorf("crawler: %w", err)
	}
	c := &Checkpoint{path: path, src: src, done: make([]uint64, (src.Len()+63)/64), sum: sha256.New(), redo: redoSealed}
	hdr, _, _, err := c.scan(bufio.NewReaderSize(f, 64<<10), &want, true, fold)
	f.Close()
	return hdr, err
}

// CheckResume reads the header line of the checkpoint at path and
// refuses it as a resume under want would: malformed, of another
// format version, or another run's (ErrOtherRun). It reads no site
// line. A missing file, or one whose first line is blank, passes: a
// resume starts it fresh.
func CheckResume(path string, want Header) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("crawler: %w", err)
	}
	c := &Checkpoint{path: path, redo: redoResume}
	_, _, _, err = c.scan(bufio.NewReader(f), &want, false, nil)
	f.Close()
	return err
}

// Append persists one finished site: its line is written whole before
// Append returns, and synced with its group once checkpointSyncBytes of
// lines are unsynced. A study-neutral line is written by hand, the rest
// through encoding/json (appendNeutralLine). Safe for concurrent use.
func (c *Checkpoint) Append(r *SiteResult) error {
	line, neutral := appendNeutralLine(make([]byte, 0, 192), r) // a tail site's line is about 130 bytes
	if !neutral {
		// Marshal a copy: handing r itself to encoding/json would move
		// every caller's record to the heap, whichever line it writes.
		var err error
		if line, err = json.Marshal(*r); err != nil {
			return c.wrap(err)
		}
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	c.appends++
	fp := CheckpointFailpoint
	if fp != nil {
		// Torture mode: write the line in two unbuffered halves with a
		// hook between them, so a kill at "mid" tears the record on
		// disk exactly the way a real crash mid-write would.
		fp("pre", c.appends)
		half := len(line) / 2
		if _, err := c.f.Write(line[:half]); err != nil {
			return c.wrap(err)
		}
		fp("mid", c.appends)
		if _, err := c.f.Write(line[half:]); err != nil {
			return c.wrap(err)
		}
	} else if _, err := c.f.Write(line); err != nil {
		return c.wrap(err)
	}
	c.obs.Count(obs.MetricCheckpointAppends, 1)
	c.hash(line)
	c.unsynced += len(line)
	if c.unsynced >= checkpointSyncBytes {
		if err := c.sync(); err != nil {
			return err
		}
	}
	if fp != nil {
		fp("post", c.appends)
	}
	return nil
}

// sync fsyncs the unsynced group. Callers hold c.mu.
func (c *Checkpoint) sync() error {
	if fp := CheckpointFailpoint; fp != nil {
		fp("sync", c.appends)
	}
	c.unsynced = 0
	if err := c.f.Sync(); err != nil {
		return c.wrap(err)
	}
	return nil
}

// Complete closes the checkpoint of a run that finished every site. A
// shard's checkpoint (its header names a shard) is first sealed from
// the count and SHA-256 kept as its lines were loaded and appended: the
// trailer ends the file, which is then the shard's result.
func (c *Checkpoint) Complete() error {
	if c.sum != nil {
		c.mu.Lock()
		line := append(c.trailer(), '\n')
		_, err := c.f.Write(line)
		c.unsynced += len(line)
		c.mu.Unlock()
		if err != nil {
			return c.wrap(err)
		}
	}
	return c.Close()
}

// Close syncs any unsynced lines and releases the file, which it closes
// even when the sync fails; it is idempotent so a deferred Close after
// an explicit one is harmless.
func (c *Checkpoint) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	var err error
	if c.unsynced > 0 {
		err = c.sync()
	}
	if cerr := c.f.Close(); err == nil && cerr != nil {
		err = c.wrap(cerr)
	}
	return err
}

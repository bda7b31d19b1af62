package crawler

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"piileak/internal/browser"
	"piileak/internal/webgen"
)

// A Checkpoint persists per-site crawl progress as JSON lines: one
// header identifying the run, then one self-contained line per finished
// site (crawl record, mail, shield blocks), written whole with one write
// before the site is emitted. A killed process keeps its written lines
// in the page cache, so it loses at most the site in flight. Lines are
// fsynced in groups, so an OS crash or power loss can also lose the
// unsynced tail, which a resume crawls again to the same bytes. Appended
// entries are not retained; a resume holds each loaded entry until it is
// emitted, keyed by domain — unique in every site source (tranco dedups
// the core, tail domains are unique by construction, SelectSites dedups)
// and refused when duplicated on load.
type Checkpoint struct {
	mu       sync.Mutex
	f        *os.File
	path     string
	entries  map[string]crawlEntry // loaded on resume, deleted as emitted
	done     int                   // entries loaded at open
	torn     int                   // non-empty lines dropped on load (crash-torn tail)
	appends  int                   // lines appended this run, for the failpoint
	unsynced int                   // bytes written since the last fsync
	closed   bool
}

// checkpointSyncBytes of unsynced lines trigger a group fsync (Close
// syncs the rest): about 85 paper-study sites or 1,100 tail sites, tens
// of milliseconds of crawl. Each fsync holds the mutex all workers
// share, so smaller groups stall the crawl (64-site groups: 6.65 s
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

// checkpointHeader pins a checkpoint to one run: resuming under a
// different seed, site population, browser, shard scope or fault
// settings silently mixes datasets, so it is refused instead. Shard is
// the "i/K" label of a sharded study's failure domain ("" for unsharded
// runs) — a shard checkpoint resumed by a different shard, or an
// unsharded checkpoint resumed by a sharded run, is a header mismatch,
// not silent data corruption.
type checkpointHeader struct {
	Version int    `json:"version"`
	Browser string `json:"browser"`
	Seed    uint64 `json:"seed"`
	Sites   int    `json:"sites"`
	Shard   string `json:"shard,omitempty"`
	FaultPin
}

const checkpointVersion = 1

func headerFor(eco *webgen.Ecosystem, profile browser.Profile, opts Options) checkpointHeader {
	return checkpointHeader{
		Version:  checkpointVersion,
		Browser:  profile.Name + " " + profile.Version,
		Seed:     eco.Config.Seed,
		Sites:    eco.Config.ShoppingSites,
		Shard:    opts.ShardLabel(),
		FaultPin: opts.FaultPin(eco),
	}
}

func (h checkpointHeader) String() string {
	s := fmt.Sprintf("%s seed=%d sites=%d shard=%q", h.Browser, h.Seed, h.Sites, h.Shard)
	if h.FaultPin != (FaultPin{}) {
		s += " " + h.FaultPin.Summary()
	}
	return s
}

// CheckpointShard peeks at a checkpoint file's header line and reports
// the shard label it was written under ("" = unsharded). found is false
// when the file does not exist or its header line is unreadable — the
// caller cannot conclude anything about such a file beyond "not a
// valid checkpoint".
func CheckpointShard(path string) (shard string, found bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return "", false, nil
	}
	if err != nil {
		return "", false, fmt.Errorf("crawler: checkpoint %s: %w", path, err)
	}
	// A first line longer than the reader's buffer is no header.
	line, err := bufio.NewReader(f).ReadSlice('\n')
	f.Close()
	if err != nil && err != io.EOF && err != bufio.ErrBufferFull {
		return "", false, fmt.Errorf("crawler: checkpoint %s: %w", path, err)
	}
	var hdr checkpointHeader
	if json.Unmarshal(line, &hdr) != nil || hdr.Version == 0 {
		return "", false, nil
	}
	return hdr.Shard, true, nil
}

// OpenCheckpoint opens the checkpoint file at opts.CheckpointPath for a
// crawl of eco under opts. With opts.Resume and an existing file,
// completed entries are loaded and the file's torn tail, if any, is cut
// off; otherwise the file is created fresh. Resuming across shard
// scopes or fault settings is refused via the header check.
func OpenCheckpoint(eco *webgen.Ecosystem, profile browser.Profile, opts Options) (*Checkpoint, error) {
	path := opts.CheckpointPath
	c := &Checkpoint{path: path}
	want := headerFor(eco, profile, opts)
	if opts.Resume {
		if loaded, err := c.load(want); err != nil {
			return nil, err
		} else if loaded {
			return c, nil
		}
	}

	// A fresh file is its header alone, written atomically so a stale
	// checkpoint is replaced whole.
	hdr, _ := json.Marshal(want) // flat struct: cannot fail
	err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := w.Write(append(hdr, '\n'))
		return err
	})
	if err != nil {
		return nil, c.wrap(err)
	}
	if c.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, c.wrap(err)
	}
	return c, nil
}

func (c *Checkpoint) wrap(err error) error {
	return fmt.Errorf("crawler: checkpoint %s: %w", c.path, err)
}

// load resumes an existing checkpoint: it loads every intact entry,
// cuts a crash-torn tail off in place and opens the file for appends.
// loaded is false when there is nothing to resume (no file, or a blank
// first line), so the caller starts fresh.
func (c *Checkpoint) load(want checkpointHeader) (loaded bool, err error) {
	f, err := os.Open(c.path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, c.wrap(err)
	}
	keep, nl, err := c.scan(bufio.NewReader(f), want)
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

// scan validates the header and loads the entry lines. keep is the byte
// length of the intact prefix — the header through the last entry that
// decodes with a domain — and nl whether it ends in a newline; keep is 0
// when the first line is blank (an empty file, resumed as fresh). A line
// that does not decode ends the prefix: it and every non-empty line
// after it are counted as torn, so the resume summary reports them.
func (c *Checkpoint) scan(r *bufio.Reader, want checkpointHeader) (keep int64, nl bool, err error) {
	line, err := r.ReadBytes('\n')
	if err != nil && err != io.EOF {
		return 0, false, c.wrap(err)
	}
	if len(bytes.TrimSpace(line)) == 0 {
		return 0, false, nil
	}
	var hdr checkpointHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return 0, false, c.wrap(fmt.Errorf("malformed header: %w", err))
	}
	if hdr != want {
		return 0, false, fmt.Errorf("crawler: checkpoint %s: written for %s, resume requested for %s", c.path, hdr, want)
	}
	c.entries = map[string]crawlEntry{}
	size := int64(len(line))
	keep, nl = size, err == nil
	for err == nil {
		if line, err = r.ReadBytes('\n'); err != nil && err != io.EOF {
			return 0, false, c.wrap(err)
		}
		size += int64(len(line))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var e crawlEntry
		if c.torn > 0 || json.Unmarshal(line, &e) != nil || e.Crawl.Domain == "" {
			c.torn++
			continue
		}
		if _, dup := c.entries[e.Crawl.Domain]; dup {
			return 0, false, fmt.Errorf("crawler: checkpoint %s: duplicate site %q", c.path, e.Crawl.Domain)
		}
		c.entries[e.Crawl.Domain] = e
		keep, nl = size, err == nil
	}
	c.done = len(c.entries)
	return keep, nl, nil
}

// TornRecords reports how many non-empty lines the load dropped as a
// crash-torn tail.
func (c *Checkpoint) TornRecords() int { return c.torn }

// Done reports how many sites the checkpoint held when it was opened.
func (c *Checkpoint) Done() int { return c.done }

// lookup returns a site's loaded entry and forgets it, since each site
// is emitted once. Safe on a nil receiver — the no-checkpoint crawl
// path — and for concurrent use by the workers.
func (c *Checkpoint) lookup(domain string) (crawlEntry, bool) {
	if c == nil {
		return crawlEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[domain]
	delete(c.entries, domain)
	return e, ok
}

// Append persists one finished site: its line is written whole before
// Append returns, and synced with its group once checkpointSyncBytes of
// lines are unsynced.
func (c *Checkpoint) Append(e crawlEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return c.wrap(err)
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

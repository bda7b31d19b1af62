package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles the programs under test into dir. It runs
// before anything is timed; an up-to-date binary is not relinked.
func buildBinaries(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/piicrawl", "./cmd/piiserve")
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build piicrawl, piiserve: %v\n%s", err, out.Bytes())
	}
	return nil
}

// procResult is one finished child process as the user would have paid
// for it: wall time from exec to exit, and the CPU time and peak
// resident set the kernel accounted to it and to every descendant it
// waited for (re-execed shard workers included).
type procResult struct {
	wall  time.Duration
	cpu   time.Duration
	rssMB float64
	err   error
	tail  string // the end of the process's standard error
}

// usage fills the rusage-derived fields from a finished process.
func (p *procResult) usage(ps *os.ProcessState) {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		p.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// runProc runs one cold process to completion in dir, discarding its
// standard output unless stdout is given and keeping the tail of its
// standard error for diagnostics.
func runProc(ctx context.Context, dir string, stdout io.Writer, name string, args ...string) procResult {
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	cmd.Stdout = stdout
	tail := &tailBuffer{max: 4096}
	cmd.Stderr = tail
	start := now()
	err := cmd.Run()
	p := procResult{wall: since(start), err: err, tail: tail.String()}
	if cmd.ProcessState != nil {
		p.usage(cmd.ProcessState)
	}
	if err != nil {
		p.err = fmt.Errorf("%s: %v: %s", filepath.Base(name), err, p.tail)
	}
	return p
}

// tailBuffer is an io.Writer that keeps only the last max bytes
// written, so a chatty child's progress lines cost no memory.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = append(t.buf[:0], t.buf[over:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

package piileak_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPiicrawlSIGINTLeavesResumableCheckpoint drives the crash-only
// shutdown contract on the built piicrawl: a checkpointing crawl
// interrupted by SIGINT exits 0 with a valid checkpoint, and a -resume
// run completes it to a dataset byte-identical to a run that was never
// interrupted.
func TestPiicrawlSIGINTLeavesResumableCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	interruptAndResume(t, buildBinary(t, t.TempDir(), "piicrawl", "./cmd/piicrawl"))
}

// TestPiireproSIGINTLeavesResumableCheckpoint holds piirepro to the
// same contract: its interrupted study exits 0 with the -resume hint,
// and the resumed run's summary is byte-identical to an uninterrupted
// run's.
func TestPiireproSIGINTLeavesResumableCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	interruptAndResume(t, buildBinary(t, t.TempDir(), "piirepro", "./cmd/piirepro"), "-json")
}

// interruptAndResume runs bin with args three times: once uninterrupted
// for the reference stdout; once with -checkpoint, sent SIGINT once the
// checkpoint holds a few sites, which must exit 0 and print the -resume
// hint; and once with -checkpoint -resume, whose stdout must equal the
// reference byte for byte.
func interruptAndResume(t *testing.T, bin string, args ...string) {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("POSIX signal delivery")
	}
	run := func(extra ...string) (cmd *exec.Cmd, stdout, stderr *bytes.Buffer) {
		cmd = exec.Command(bin, append(append([]string{}, args...), extra...)...)
		stdout, stderr = new(bytes.Buffer), new(bytes.Buffer)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		return cmd, stdout, stderr
	}

	ref, want, refErr := run()
	if err := ref.Run(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, refErr)
	}

	// Interrupted run: wait for the checkpoint to accumulate a few
	// sites, then SIGINT. The contract is exit 0 — progress is on disk.
	ckpt := filepath.Join(t.TempDir(), "ckpt.jsonl")
	cmd, interrupted, stderr := run("-checkpoint", ckpt)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	signalled := false
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		if data, err := os.ReadFile(ckpt); err == nil && bytes.Count(data, []byte("\n")) >= 6 {
			if err := cmd.Process.Signal(os.Interrupt); err != nil {
				t.Fatal(err)
			}
			signalled = true
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !signalled {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("checkpoint never grew; cannot interrupt")
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("interrupted %s exited non-zero: %v\n%s", filepath.Base(bin), err, stderr.String())
	}

	// The run may have finished in the window between the checkpoint
	// read and the signal; the resume assertions below still hold (a
	// complete checkpoint resumes to the same output), the interruption
	// messages just never printed.
	if interrupted.Len() > 0 {
		t.Log("run completed before the signal landed; exercising resume over the full checkpoint")
	} else if !strings.Contains(stderr.String(), "interrupted") || !strings.Contains(stderr.String(), "-resume") {
		t.Errorf("interrupted run's stderr missing the resume hint:\n%s", stderr.String())
	}

	rcmd, got, rstderr := run("-checkpoint", ckpt, "-resume")
	if err := rcmd.Run(); err != nil {
		t.Fatalf("resume run failed: %v\n%s", err, rstderr.String())
	}
	if !strings.Contains(rstderr.String(), "resume:") {
		t.Errorf("resume run did not report the loaded checkpoint:\n%s", rstderr.String())
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Errorf("resumed output is not byte-identical to the uninterrupted run (%d vs %d bytes)", got.Len(), want.Len())
	}
}

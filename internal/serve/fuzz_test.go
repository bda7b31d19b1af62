package serve

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzOpenStore opens a job WAL of arbitrary bytes. The load never
// panics, and a refused file is left as it was. A non-blank file opens
// only past a version 1 header line, so a blank or foreign first line
// cannot make a file a fresh store whose compaction drops its jobs. A
// store that opens has compacted the file: reopened, it holds the same
// jobs with no torn line and nothing recovered, and an undecodable line
// appended after that changes no job and counts one torn record.
func FuzzOpenStore(f *testing.F) {
	// A fuzz process runs its inputs one at a time, so they share a
	// state directory.
	dir := f.TempDir()
	path := StorePath(dir)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		jobs, _, _, err := openJobs(dir)
		if err != nil {
			if got, rerr := os.ReadFile(path); rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("a refused open changed the file (err %v)", rerr)
			}
			return
		}
		if len(bytes.TrimSpace(data)) > 0 {
			first, _, _ := bytes.Cut(data, []byte("\n"))
			var hdr storeHeader
			if json.Unmarshal(first, &hdr) != nil || hdr.Version != storeVersion {
				t.Fatalf("opened a file whose first line %q is not a version %d header", first, storeVersion)
			}
		}
		again, torn, recovered, err := openJobs(dir)
		if err != nil {
			t.Fatalf("reopening the compacted store: %v", err)
		}
		if !reflect.DeepEqual(again, jobs) || torn != 0 || recovered != 0 {
			t.Fatalf("reopened store: jobs %+v, %d torn, %d recovered; want jobs %+v, none torn or recovered",
				again, torn, recovered, jobs)
		}

		wal, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wal.WriteString(`{"op":"state","id":"j1","state":"do` + "\n"); err != nil {
			t.Fatal(err)
		}
		if err := wal.Close(); err != nil {
			t.Fatal(err)
		}
		again, torn, _, err = openJobs(dir)
		if err != nil {
			t.Fatalf("reopening after a torn append: %v", err)
		}
		if !reflect.DeepEqual(again, jobs) || torn != 1 {
			t.Fatalf("after a torn append: jobs %+v, %d torn; want jobs %+v, 1 torn", again, torn, jobs)
		}
	})
}

// openJobs opens the store under dir and closes it again, returning
// what the open found: the jobs, the torn records and the recovered
// running jobs.
func openJobs(dir string) ([]*Job, int, int, error) {
	st, err := OpenStore(dir)
	if err != nil {
		return nil, 0, 0, err
	}
	jobs, torn, recovered := st.Jobs(), st.TornRecords(), st.Recovered()
	return jobs, torn, recovered, st.Close()
}

// FuzzSpec runs arbitrary bytes through the submit handler's spec
// reader (unknown fields refused) and Spec.Validate. Neither panics,
// and a spec Validate accepts maps through flags onto a flag set whose
// own validator accepts it, with an -only list of the spec's elements,
// one for one: a job runs exactly the sites its spec names.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(bytes.NewReader(data))
		if err != nil || spec.Validate() != nil {
			return
		}
		c, err := spec.flags()
		if err != nil {
			t.Fatalf("Validate accepts %+v, flags refuses it: %v", spec, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("Validate accepts %+v, its flags are refused: %v", spec, err)
		}
		var only []string
		if c.Only != "" {
			only = strings.Split(c.Only, ",")
		}
		if !slices.Equal(only, spec.Only) {
			t.Fatalf("spec only %q runs as -only %q", spec.Only, c.Only)
		}
	})
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// doc is a -json document: the trajectory point of one commit on one
// machine, holding every set of rounds measured for it.
type doc struct {
	Schema    int      `json:"schema"`
	Nproc     int      `json:"nproc"`
	GoVersion string   `json:"go_version"`
	Commit    string   `json:"commit"`
	Sets      []setRec `json:"sets"`
}

// setRec is one piibench invocation's rounds.
type setRec struct {
	Seed    uint64     `json:"seed"`
	Seconds int        `json:"seconds"`
	Runs    int        `json:"runs"`
	Quick   bool       `json:"quick,omitempty"`
	Rounds  []roundRec `json:"rounds"`
}

const docSchema = 1

func readDoc(path string) (*doc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d doc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %d, want %d", path, d.Schema, docSchema)
	}
	return &d, nil
}

// appendSet adds one invocation's set to the document at path,
// creating it when missing. A document holds one commit on one
// machine, so a set from another commit or core count is refused.
func appendSet(path string, meta doc, set setRec) error {
	d := meta
	if _, err := os.Stat(path); err == nil {
		old, err := readDoc(path)
		if err != nil {
			return err
		}
		if old.Commit != meta.Commit || old.Nproc != meta.Nproc {
			return fmt.Errorf("%s holds commit %s on %d cores; this run is commit %s on %d cores — write a new file",
				path, old.Commit, old.Nproc, meta.Commit, meta.Nproc)
		}
		d = *old
	}
	d.Sets = append(d.Sets, set)
	return writeJSONFile(path, d)
}

// bound is one declared metric from BENCHMARK.json: its direction and,
// for an end-to-end metric, its regression bound.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readBounds returns the end-to-end bounds and every declared metric's
// direction.
func readBounds(path string) (bounds map[string]bound, higher map[string]bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
		PerLayer []bound `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	bounds, higher = map[string]bound{}, map[string]bool{"sites_per_s": true}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m
		higher[m.Name] = m.Better == "higher"
	}
	for _, m := range spec.PerLayer {
		higher[m.Name] = m.Better == "higher"
	}
	return bounds, higher, nil
}

// pooled gathers each (workload, metric) pair's per-round values
// across every set of a document, skipping rounds marked invalid.
func pooled(d *doc) map[[2]string][]float64 {
	out := map[[2]string][]float64{}
	for _, s := range d.Sets {
		for _, r := range s.Rounds {
			if !r.Valid {
				continue
			}
			for name, st := range r.Metrics {
				k := [2]string{r.Workload, name}
				out[k] = append(out[k], st.Value)
			}
		}
	}
	return out
}

// verdict judges one pair. worse is the relative change of the median
// in the costly direction; spread is the wider of the two sides'
// interquartile ranges relative to their medians. Where the spread
// exceeds the bound the pair is unresolved, unless every new value
// beats every base value.
func verdict(base, cur []float64, b bound, hasBound bool, higher bool) (worse float64, v string) {
	sb, sc := summarize(base), summarize(cur)
	if sb.Median == 0 {
		return 0, "info"
	}
	worse = (sc.Median - sb.Median) / math.Abs(sb.Median)
	if higher {
		worse = -worse
	}
	if !hasBound {
		return worse, "info"
	}
	spread := math.Max(iqrShare(sb), iqrShare(sc))
	if spread > b.Bound {
		if allBetter(base, cur, higher) {
			return worse, "improved"
		}
		return worse, "unresolved"
	}
	switch {
	case worse > b.Bound:
		return worse, "regressed"
	case -worse > b.Bound:
		return worse, "improved"
	}
	return worse, "unchanged"
}

func iqrShare(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// allBetter reports whether every new value beats every base value.
func allBetter(base, cur []float64, higher bool) bool {
	for _, b := range base {
		for _, c := range cur {
			if (higher && c <= b) || (!higher && c >= b) {
				return false
			}
		}
	}
	return true
}

// compareDocs prints both sides of every (workload, metric) pair the
// two documents share, with the verdict under the BENCHMARK.json
// bounds, and reports whether any pair regressed.
func compareDocs(w io.Writer, bounds map[string]bound, higher map[string]bool, base, cur *doc) bool {
	bp, cp := pooled(base), pooled(cur)
	var keys [][2]string
	for k := range bp {
		if _, ok := cp[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	fmt.Fprintf(w, "base commit %s (%d cores, %s); new commit %s (%d cores, %s)\n",
		base.Commit, base.Nproc, base.GoVersion, cur.Commit, cur.Nproc, cur.GoVersion)
	fmt.Fprintf(w, "%-16s %-36s %12s %12s %12s   %12s %12s %12s %9s %6s %s\n",
		"workload", "metric", "base", "q1", "q3", "new", "q1", "q3", "worse", "bound", "verdict")
	regressed := false
	for _, k := range keys {
		b, hasBound := bounds[k[1]]
		worse, v := verdict(bp[k], cp[k], b, hasBound, higher[k[1]])
		if v == "regressed" {
			regressed = true
		}
		sb, sc := summarize(bp[k]), summarize(cp[k])
		boundText := "-"
		if hasBound {
			boundText = fmt.Sprintf("%.0f%%", b.Bound*100)
		}
		fmt.Fprintf(w, "%-16s %-36s %12.5g %12.5g %12.5g   %12.5g %12.5g %12.5g %+8.1f%% %6s %s\n",
			k[0], k[1], sb.Median, sb.Q1, sb.Q3, sc.Median, sc.Q1, sc.Q3, worse*100, boundText, v)
	}
	return regressed
}

// writeJSONFile writes v as indented JSON to path.
func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

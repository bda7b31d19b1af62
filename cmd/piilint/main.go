// Command piilint runs the repo's determinism and concurrency-hygiene
// analyzer suite (internal/analysis): closecheck, ctxflow, detrand,
// goroleak, lockdiscipline, maporder, obskey, piilog.
//
// Standalone:
//
//	piilint ./...            # lint packages, exit 1 on findings
//	piilint -json ./...      # JSON lines + summary trailer
//	piilint -github ./...    # GitHub Actions ::error annotations
//	piilint -list            # describe the suite
//
// One pass analyzes the packages in the dependency order `go list
// -deps` gives, so every package sees the facts of everything it
// imports. Findings print as file:line:col: analyzer: message, in one
// canonical order (file, line, column, analyzer, message). Suppress a
// deliberate exception with a trailing or preceding comment:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; see internal/analysis/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"piileak/internal/analysis"
	"piileak/internal/analysis/suite"
)

// jsonFinding is one -json output line; the field order here is the
// byte order in the output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonSummary is the -json trailer line.
type jsonSummary struct {
	Findings   int `json:"findings"`
	Suppressed int `json:"suppressed"`
	Analyzed   int `json:"analyzed"`
}

func main() {
	list := flag.Bool("list", false, "describe the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON lines plus a summary trailer")
	github := flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: piilint [-list] [-json] [-github] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range suite.Analyzers() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	graph, err := analysis.LoadGraph("", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "piilint:", err)
		os.Exit(2)
	}
	findings, suppressed, err := graph.Run(suite.Analyzers())
	if err != nil {
		fmt.Fprintln(os.Stderr, "piilint:", err)
		os.Exit(2)
	}

	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if cwd != "" {
			if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
				return r
			}
		}
		return name
	}
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		name := rel(f.Pos.Filename)
		if *jsonOut {
			// Encode never fails on these flat structs; findings stay
			// one-object-per-line in the canonical finding order.
			enc.Encode(jsonFinding{
				File: name, Line: f.Pos.Line, Col: f.Pos.Column,
				Analyzer: f.Analyzer, Message: f.Message,
			})
		} else {
			fmt.Printf("%s:%d:%d: %s: %s\n", name, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
		if *github {
			// The workflow-command grammar reserves these characters in
			// property values.
			esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ",", "%2C").Replace
			fmt.Printf("::error file=%s,line=%d,col=%d::%s\n",
				esc(name), f.Pos.Line, f.Pos.Column,
				strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(f.Analyzer+": "+f.Message))
		}
	}
	if *jsonOut {
		enc.Encode(jsonSummary{
			Findings:   len(findings),
			Suppressed: suppressed,
			Analyzed:   len(graph.Packages),
		})
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "piilint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
}

package analysis

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Stats reports what a driver run actually did — which packages were
// re-analyzed and which were served from the cache. The CI cache-
// poisoning guard asserts on these lists: mutate one file, and only
// that package and its dependents may appear in Analyzed.
type Stats struct {
	Analyzed   []string // package paths analyzed this run, sorted
	Cached     []string // package paths served from cache, sorted
	Suppressed int      // diagnostics silenced by //lint:allow directives
}

// A Driver schedules the package DAG across Workers goroutines,
// propagating facts along import edges in dependency order, with an
// optional content-keyed result cache. Output is byte-identical to the
// sequential runner: per-package results depend only on the package
// and its dependencies' facts (never on scheduling), and the merged
// findings are sorted by the one total order (SortFindings).
type Driver struct {
	// Workers bounds concurrent package analyses; <= 0 selects
	// GOMAXPROCS. Workers == 1 is the sequential driver.
	Workers int

	// Cache, when non-nil with a Dir, short-circuits packages whose
	// key (source + suite + deps) is unchanged.
	Cache *Cache
}

// driverNode is the scheduler's per-package state. depFacts/depKeys
// are per-node snapshots built under the scheduler lock at the moment
// the node becomes ready — workers then read only their own node's
// maps, so no map is ever read and written concurrently.
type driverNode struct {
	pkg        *GraphPackage
	waiting    int      // unfinished in-module deps
	dependents []string // packages importing this one
	result     *PackageResult
	key        string
	depFacts   FactReader
	depKeys    map[string]string
}

// Run analyzes every package in the graph and returns the merged,
// sorted findings plus run statistics.
func (d *Driver) Run(g *Graph, analyzers []*Analyzer) ([]Finding, *Stats, error) {
	workers := d.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	nodes := make(map[string]*driverNode, len(g.Packages))
	for _, pkg := range g.Packages {
		nodes[pkg.PkgPath] = &driverNode{pkg: pkg}
	}
	for _, pkg := range g.Packages {
		n := nodes[pkg.PkgPath]
		n.waiting = len(pkg.Imports)
		for _, imp := range pkg.Imports {
			nodes[imp].dependents = append(nodes[imp].dependents, pkg.PkgPath)
		}
	}

	fingerprint := Fingerprint(analyzers)

	// The scheduler: a sorted ready list feeds idle workers; a
	// completion updates dependents under the same lock, snapshotting
	// each newly-ready node's dependency facts and keys into that node
	// before it is queued — workers touch only their own node's maps.
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		ready   []string
		done    int
		firstEr error
		stats   Stats
	)
	for _, pkg := range g.Packages { // Packages is sorted, so ready starts sorted
		if nodes[pkg.PkgPath].waiting == 0 {
			ready = append(ready, pkg.PkgPath)
		}
	}

	analyzeOne := func(n *driverNode) (*PackageResult, string, bool, error) {
		// Dep facts/keys are complete: the scheduler only readies a
		// package after every dependency published.
		var key string
		if d.Cache != nil && d.Cache.Dir != "" {
			k, err := d.Cache.Key(fingerprint, n.pkg, n.depKeys, n.depFacts)
			if err != nil {
				return nil, "", false, err
			}
			key = k
			if hit, err := d.Cache.Get(key, n.pkg.PkgPath); err != nil {
				return nil, "", false, err
			} else if hit != nil {
				return hit, key, true, nil
			}
		}
		pkg, err := g.load(n.pkg)
		if err != nil {
			return nil, "", false, err
		}
		res, err := analyzePackage(pkg, analyzers, n.depFacts)
		if err != nil {
			return nil, "", false, err
		}
		if key != "" {
			if err := d.Cache.Put(key, res); err != nil {
				return nil, "", false, err
			}
		}
		return res, key, false, nil
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && done < len(g.Packages) && firstEr == nil {
					cond.Wait()
				}
				if firstEr != nil || done == len(g.Packages) {
					mu.Unlock()
					return
				}
				path := ready[0]
				ready = ready[1:]
				mu.Unlock()

				n := nodes[path]
				res, key, cached, err := analyzeOne(n)

				mu.Lock()
				if err != nil {
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					cond.Broadcast()
					return
				}
				n.result = res
				n.key = key
				if cached {
					stats.Cached = append(stats.Cached, path)
				} else {
					stats.Analyzed = append(stats.Analyzed, path)
				}
				stats.Suppressed += res.Suppressed
				done++
				for _, dep := range n.dependents {
					dn := nodes[dep]
					dn.waiting--
					if dn.waiting == 0 {
						dn.depFacts = make(FactReader, len(dn.pkg.Imports))
						dn.depKeys = make(map[string]string, len(dn.pkg.Imports))
						for _, imp := range dn.pkg.Imports {
							in := nodes[imp]
							dn.depFacts[imp] = in.result.Facts
							dn.depKeys[imp] = in.key
						}
						ready = insertSorted(ready, dep)
					}
				}
				mu.Unlock()
				cond.Broadcast()
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, nil, firstEr
	}
	if done != len(g.Packages) {
		return nil, nil, fmt.Errorf("analysis: import cycle among %d unanalyzed packages", len(g.Packages)-done)
	}

	var findings []Finding
	for _, pkg := range g.Packages {
		findings = append(findings, nodes[pkg.PkgPath].result.Findings...)
	}
	SortFindings(findings)
	sort.Strings(stats.Analyzed)
	sort.Strings(stats.Cached)
	return findings, &stats, nil
}

// insertSorted inserts s into sorted slice xs, keeping it sorted — the
// ready queue stays deterministic so the 1-worker driver is exactly
// the sequential driver.
func insertSorted(xs []string, s string) []string {
	i := sort.SearchStrings(xs, s)
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = s
	return xs
}

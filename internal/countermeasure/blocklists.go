package countermeasure

import (
	"sort"

	"piileak/internal/blocklist"
	"piileak/internal/core"
	"piileak/internal/crawler"
	"piileak/internal/httpmodel"
	"piileak/internal/psl"
)

// Cell is one Table 4 entry: how many of a per-method population a
// filter configuration covers.
type Cell struct {
	Count int
	Total int
}

// Pct renders the coverage percentage.
func (c Cell) Pct() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.Count) / float64(c.Total)
}

// Table4Row is one (metric, method) row with the three list
// configurations.
type Table4Row struct {
	Metric                          string // "senders" or "receivers"
	Method                          string // Table 1a vocabulary, plus "combined" and "total"
	EasyList, EasyPrivacy, Combined Cell
}

// Table4 is the §7.2 result.
type Table4 struct {
	Rows []Table4Row
	// MissedTrackers lists Table 2 tracking providers the combined
	// lists fail to cover (the paper's custora/taboola/zendesk).
	MissedTrackers []string
}

// ListSet bundles the parsed filter lists.
type ListSet struct {
	EasyList    *blocklist.List
	EasyPrivacy *blocklist.List
}

// ParseLists compiles the two list texts.
func ParseLists(easyListText, easyPrivacyText string) (ListSet, error) {
	el, err := blocklist.ParseList("easylist", easyListText)
	if err != nil {
		return ListSet{}, err
	}
	ep, err := blocklist.ParseList("easyprivacy", easyPrivacyText)
	if err != nil {
		return ListSet{}, err
	}
	return ListSet{EasyList: el, EasyPrivacy: ep}, nil
}

// configs is a set of Table 4's filter configurations, one bit each.
type configs uint8

const (
	easyList configs = 1 << iota
	easyPrivacy
	combined   // both lists in one ABP engine
	allConfigs = easyList | easyPrivacy | combined
)

// add counts one entity into the row: covered holds the configurations
// that block every one of its leaks.
func (r *Table4Row) add(covered configs) {
	r.EasyList.Total++
	r.EasyPrivacy.Total++
	r.Combined.Total++
	if covered&easyList != 0 {
		r.EasyList.Count++
	}
	if covered&easyPrivacy != 0 {
		r.EasyPrivacy.Count++
	}
	if covered&combined != 0 {
		r.Combined.Count++
	}
}

// requestKey is everything list matching reads from a request: the
// third-party bit is a function of the page host and the URL.
type requestKey struct {
	pageHost, url string
	typ           httpmodel.ResourceType
}

// blocker evaluates requests against both lists, scanning each list
// once per distinct request over one evaluation.
type blocker struct {
	lists ListSet
	psl   *psl.List
	memo  map[requestKey]configs
}

// blocks returns the configurations that block the request. Each list
// is scanned once; the combined verdict follows the ABP rule that an
// exception in either list overrides a block in either, which is what
// one engine over both lists decides.
func (b *blocker) blocks(pageHost, url string, typ httpmodel.ResourceType) configs {
	if typ == "" {
		typ = httpmodel.TypeOther
	}
	k := requestKey{pageHost, url, typ}
	if v, ok := b.memo[k]; ok {
		return v
	}
	ri := blocklist.RequestInfo{
		URL:        url,
		PageHost:   pageHost,
		Type:       typ,
		ThirdParty: b.psl.IsThirdParty(pageHost, hostOf(url)),
	}
	elBlock, elExc := b.lists.EasyList.Scan(ri)
	epBlock, epExc := b.lists.EasyPrivacy.Scan(ri)
	var v configs
	if elBlock && !elExc {
		v |= easyList
	}
	if epBlock && !epExc {
		v |= easyPrivacy
	}
	if (elBlock || epBlock) && !(elExc || epExc) {
		v |= combined
	}
	b.memo[k] = v
	return v
}

// leakBlocked returns the configurations that would have prevented a
// leak: those blocking the leaky request itself or any request in its
// initiator chain (the tag scripts that caused it), §7.2's methodology.
func (b *blocker) leakBlocked(l *core.Leak, chain []httpmodel.Request) configs {
	pageHost := "www." + l.Site
	v := b.blocks(pageHost, l.RequestURL, httpmodel.TypeOther)
	for i := 0; i < len(chain) && v != allConfigs; i++ {
		v |= b.blocks(pageHost, chain[i].URL, chain[i].Type)
	}
	return v
}

func hostOf(rawURL string) string {
	r := httpmodel.Request{URL: rawURL}
	return r.Host()
}

// EvaluateBlocklists reproduces Table 4 from a full crawl dataset: it
// reduces the captures to a request index and delegates to the indexed
// evaluation.
func EvaluateBlocklists(leaks []core.Leak, ds *crawler.Dataset, lists ListSet, trackers []string) *Table4 {
	ix := httpmodel.NewRequestIndex()
	for i := range ds.Crawls {
		ix.AddSite(ds.Crawls[i].Domain, ds.Crawls[i].Records)
	}
	return EvaluateBlocklistsIndexed(leaks, ix, lists, trackers)
}

// EvaluateBlocklistsIndexed reproduces Table 4 over a reduced request
// index: for each (metric, method) cell it counts the senders
// (receivers) whose every leak through that channel would have been
// blocked by EasyList alone, EasyPrivacy alone, and both combined. The
// streaming pipeline calls this form — it retains only the reduced
// index, never the full captures.
func EvaluateBlocklistsIndexed(leaks []core.Leak, ix *httpmodel.RequestIndex, lists ListSet, trackers []string) *Table4 {
	b := blocker{lists: lists, psl: psl.Default(), memo: map[requestKey]configs{}}
	blocked := make([]configs, len(leaks))
	for i := range leaks {
		l := &leaks[i]
		blocked[i] = b.leakBlocked(l, ix.Chain(l.Site, l.Seq))
	}

	labels := map[httpmodel.SurfaceKind]string{
		httpmodel.SurfaceReferer: "referer",
		httpmodel.SurfaceURI:     "uri",
		httpmodel.SurfaceBody:    "payload",
		httpmodel.SurfaceCookie:  "cookie",
	}
	t := &Table4{}
	for _, metric := range []string{"senders", "receivers"} {
		// covered[entity][method]: the configurations blocking every
		// leak of that entity through that method.
		covered := map[string]map[httpmodel.SurfaceKind]configs{}
		for i := range leaks {
			l := &leaks[i]
			e := l.Site
			if metric == "receivers" {
				e = l.Receiver
			}
			perMethod := covered[e]
			if perMethod == nil {
				perMethod = map[httpmodel.SurfaceKind]configs{}
				covered[e] = perMethod
			}
			c, ok := perMethod[l.Method]
			if !ok {
				c = allConfigs
			}
			perMethod[l.Method] = c & blocked[i]
		}

		for _, m := range httpmodel.AllSurfaceKinds {
			row := Table4Row{Metric: metric, Method: labels[m]}
			for _, perMethod := range covered {
				if c, ok := perMethod[m]; ok {
					row.add(c)
				}
			}
			t.Rows = append(t.Rows, row)
		}

		// Combined-method row: entities using >= 2 channels.
		rowC := Table4Row{Metric: metric, Method: "combined"}
		rowT := Table4Row{Metric: metric, Method: "total"}
		for _, perMethod := range covered {
			all := allConfigs
			for _, c := range perMethod {
				all &= c
			}
			if len(perMethod) >= 2 {
				rowC.add(all)
			}
			rowT.add(all)
		}
		t.Rows = append(t.Rows, rowC, rowT)
	}

	// Which Table 2 tracking providers escape the combined lists?
	escaped := map[string]bool{}
	for i := range leaks {
		if blocked[i]&combined == 0 {
			escaped[leaks[i].Receiver] = true
		}
	}
	for _, tr := range trackers {
		if escaped[tr] {
			t.MissedTrackers = append(t.MissedTrackers, tr)
		}
	}
	sort.Strings(t.MissedTrackers)
	return t
}

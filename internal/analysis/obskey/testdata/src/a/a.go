// Package a exercises obskey: constant registry keys pass, computed
// keys are flagged, and the kind/site arguments stay free-form.
package a

import (
	"fmt"

	"piileak/internal/obs"
)

const localMetric = "local_metric_total"

func constantKeys(o *obs.Run, outcome string) {
	o.Count(obs.MetricCrawlSites, 1)                     // exported constant
	o.CountKind(obs.MetricCrawlOutcome, outcome, 1)      // dynamic kind is the supported shape
	o.GaugeSet(obs.MetricUniverseMaterialized, 3)        //
	o.Observe(obs.HistSiteRecords, 12)                   //
	o.Count(localMetric, 1)                              // local constant
	o.Count("literal_total", 1)                          // literal
	o.Count("prefix_"+localMetric, 1)                    // constant-folded concatenation
	sp := o.StartSpan(obs.StageCrawl, "shop0.test", 0)   // Stage constant
	sp2 := o.StartSpan(obs.Stage("custom"), "s.test", 1) // constant conversion
	sp.End()
	sp2.End()
}

func computedKeys(o *obs.Run, site string) {
	name := "per_site_" + site
	o.Count(name, 1)                                  // want `obs\.Run\.Count metric name is not a compile-time constant`
	o.CountKind(fmt.Sprintf("m_%s", site), "kind", 1) // want `obs\.Run\.CountKind metric name is not a compile-time constant`
	o.GaugeSet(name, 2)                               // want `obs\.Run\.GaugeSet metric name is not a compile-time constant`
	o.GaugeMax(name, 2)                               // want `obs\.Run\.GaugeMax metric name is not a compile-time constant`
	o.Observe(name, 9)                                // want `obs\.Run\.Observe metric name is not a compile-time constant`
	sp := o.StartSpan(obs.Stage(site), site, 0)       // want `obs\.Run\.StartSpan stage is not a compile-time constant`
	sp.End()
}

func suppressed(o *obs.Run, site string) {
	o.Count("dyn_"+site, 1) //lint:allow obskey exercising the directive
}

package repair

import (
	"repro/internal/obs"
)

// mttrBuckets resolve detection-to-rebuilt times from 10ms (in-memory test
// stores) out to ~3 minutes (rate-limited file-backed rebuilds).
var mttrBuckets = obs.ExpBuckets(0.01, 4, 8)

// metrics is the scheduler's observability bundle. Nil-safe like the store's:
// a scheduler built without a registry skips all accounting.
//
// Metric names:
//
//	ecfrm_repair_bytes_total{kind="rebuild"} bytes rebuilt
//	ecfrm_repair_mttr_seconds             histogram: detection → rebuilt
//	ecfrm_repair_last_mttr_seconds        gauge: most recent repair's MTTR
//	ecfrm_repair_backoff_total{reason}    rate-limit stalls, tokens (budget exhausted)
//	ecfrm_repair_detections_total{kind}   detector verdicts, failed|errored|lost
//	ecfrm_repair_rebuilds_total{outcome}  finished repairs, ok|error
//	ecfrm_scrub_stripes_total             stripes verified by the scrubber
//	ecfrm_scrub_heals_total               cells healed by the scrubber
//	ecfrm_scrub_cycles_total              completed full scrub passes
//	ecfrm_scrub_cursor                    next stripe the scrubber will verify
type metrics struct {
	bytesRebuild *obs.Counter

	mttr     *obs.Histogram
	lastMTTR *obs.Gauge

	backoffTokens *obs.Counter

	detectFailed  *obs.Counter
	detectErrored *obs.Counter
	detectLost    *obs.Counter

	rebuildsOK  *obs.Counter
	rebuildsErr *obs.Counter

	scrubStripes *obs.Counter
	scrubHeals   *obs.Counter
	scrubCycles  *obs.Counter
	scrubCursor  *obs.Gauge
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	m := &metrics{}
	m.bytesRebuild = reg.Counter("ecfrm_repair_bytes_total",
		"Bytes written to replacement devices by background repair, by kind.",
		obs.L("kind", "rebuild"))
	m.mttr = reg.Histogram("ecfrm_repair_mttr_seconds",
		"Mean-time-to-repair: failure detection to rebuilt-and-live.",
		mttrBuckets)
	m.lastMTTR = reg.Gauge("ecfrm_repair_last_mttr_seconds",
		"MTTR of the most recently completed repair.")
	m.backoffTokens = reg.Counter("ecfrm_repair_backoff_total",
		"Repair batches stalled by the rate limiter, by reason: tokens (repair budget exhausted).",
		obs.L("reason", "tokens"))
	m.detectFailed = reg.Counter("ecfrm_repair_detections_total",
		"Detector verdicts acted on, by kind.", obs.L("kind", "failed"))
	m.detectErrored = reg.Counter("ecfrm_repair_detections_total",
		"Detector verdicts acted on, by kind.", obs.L("kind", "errored"))
	m.detectLost = reg.Counter("ecfrm_repair_detections_total",
		"Detector verdicts acted on, by kind.", obs.L("kind", "lost"))
	m.rebuildsOK = reg.Counter("ecfrm_repair_rebuilds_total",
		"Background repairs finished, by outcome.", obs.L("outcome", "ok"))
	m.rebuildsErr = reg.Counter("ecfrm_repair_rebuilds_total",
		"Background repairs finished, by outcome.", obs.L("outcome", "error"))
	m.scrubStripes = reg.Counter("ecfrm_scrub_stripes_total",
		"Stripes verified by the incremental scrubber.")
	m.scrubHeals = reg.Counter("ecfrm_scrub_heals_total",
		"Cells rebuilt from redundancy by the scrubber.")
	m.scrubCycles = reg.Counter("ecfrm_scrub_cycles_total",
		"Completed full scrub passes over the store.")
	m.scrubCursor = reg.Gauge("ecfrm_scrub_cursor",
		"Next stripe the incremental scrubber will verify.")
	return m
}

func (m *metrics) observeBytes(n int) {
	if m == nil {
		return
	}
	m.bytesRebuild.Add(int64(n))
}

func (m *metrics) observeMTTR(seconds float64) {
	if m == nil {
		return
	}
	m.mttr.Observe(seconds)
	m.lastMTTR.Set(seconds)
}

func (m *metrics) observeBackoff() {
	if m == nil {
		return
	}
	m.backoffTokens.Inc()
}

func (m *metrics) observeDetection(kind string) {
	if m == nil {
		return
	}
	switch kind {
	case "failed":
		m.detectFailed.Inc()
	case "errored":
		m.detectErrored.Inc()
	case "lost":
		m.detectLost.Inc()
	}
}

func (m *metrics) observeRebuildDone(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.rebuildsOK.Inc()
	} else {
		m.rebuildsErr.Inc()
	}
}

func (m *metrics) observeScrub(rep ScrubReport) {
	if m == nil {
		return
	}
	m.scrubStripes.Add(int64(rep.End - rep.Start))
	m.scrubHeals.Add(int64(rep.Healed))
	if rep.Wrapped {
		m.scrubCycles.Inc()
	}
}

func (m *metrics) setScrubCursor(next int) {
	if m == nil {
		return
	}
	m.scrubCursor.Set(float64(next))
}

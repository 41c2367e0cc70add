package discovery

import (
	"time"

	"prism/internal/obs"
)

// Round-level metrics on the process-default registry. Counters are
// bumped once per round from the finished report — never inside the
// validation hot path — so the instrumented pipeline costs a handful of
// atomic adds per round. GET /api/v1/metrics on the demo server scrapes
// these.
var (
	metricRounds = obs.Default.Counter("prism_rounds_total",
		"Discovery rounds completed (including failed and interrupted rounds).")
	metricRoundsTimedOut = obs.Default.Counter("prism_rounds_timedout_total",
		"Discovery rounds that hit their time budget before resolving every candidate.")
	metricRoundsCancelled = obs.Default.Counter("prism_rounds_cancelled_total",
		"Discovery rounds cancelled by the caller before completion.")
	metricRoundDuration = obs.Default.Histogram("prism_round_duration_ms",
		"Wall-clock duration of a discovery round in milliseconds.", 0)
	metricValidations = obs.Default.Counter("prism_validations_total",
		"Filter validations executed against the backend.")
	metricImplied = obs.Default.Counter("prism_validations_implied_total",
		"Filter outcomes resolved by implication instead of execution.")
	metricCacheHits = obs.Default.Counter("prism_filter_cache_hits_total",
		"Session filter-outcome cache hits (validations skipped).")
	metricCacheMisses = obs.Default.Counter("prism_filter_cache_misses_total",
		"Session filter-outcome cache misses (validations executed).")
	metricCacheStores = obs.Default.Counter("prism_filter_cache_stores_total",
		"Filter outcomes written back to a session cache.")
	metricRowsScanned = obs.Default.Counter("prism_rows_scanned_total",
		"Base-table rows read by validations; a selection counts once per round, on the first validation to install it.")
	metricSelectionsReused = obs.Default.Counter("prism_selections_reused_total",
		"Predicate selections validations read from their round's table after an earlier validation of the round installed them.")
	metricZonesPruned = obs.Default.Counter("prism_zones_pruned_total",
		"Whole-table selections a column's key dictionary proved empty.")
	metricPeakScratch = obs.Default.Gauge("prism_memory_peak_scratch_bytes",
		"Process high-water mark of one execution state's pooled scratch arenas, in bytes.")
)

// recordRound folds one finished round into the default registry.
func recordRound(r *Report) {
	metricRounds.Inc()
	if r.TimedOut {
		metricRoundsTimedOut.Inc()
	}
	if r.Cancelled {
		metricRoundsCancelled.Inc()
	}
	metricRoundDuration.Observe(float64(r.Elapsed) / float64(time.Millisecond))
	metricValidations.Add(int64(r.Validations))
	metricImplied.Add(int64(r.Implied))
	metricCacheHits.Add(int64(r.Cache.Hits))
	metricCacheMisses.Add(int64(r.Cache.Misses))
	metricCacheStores.Add(int64(r.Cache.Stores))
	metricRowsScanned.Add(int64(r.Cost.RowsScanned))
	metricSelectionsReused.Add(int64(r.Cost.SelectionsReused))
	metricZonesPruned.Add(int64(r.Cost.ZonesPruned))
	metricPeakScratch.SetMax(int64(r.Cost.ScratchBytes))
}

package ethrpc

import "github.com/phishinghook/phishinghook/internal/obs"

// WriteEndpointSeries writes one family per EndpointStats field, named
// prefix+field and labelled label=URL — the operator view of the plane's
// AIMD windows, health and faults. A fetch plane exports it as
// phishinghook_rpc_endpoint_*{endpoint=…}, the cluster router as
// phishinghook_cluster_replica_*{replica=…}.
func WriteEndpointSeries(w *obs.Writer, prefix, label string, eps []EndpointStats) {
	per := " per " + label
	series := func(field, help string, typ obs.Type, value func(EndpointStats) float64) {
		w.Family(prefix+field, help, typ, label, len(eps), func(i int) (string, float64) { return eps[i].URL, value(eps[i]) })
	}
	series("requests_total", "Exchanges attempted"+per+".", obs.Counter,
		func(e EndpointStats) float64 { return float64(e.Requests) })
	series("successes_total", "Exchanges answered"+per+".", obs.Counter,
		func(e EndpointStats) float64 { return float64(e.Successes) })
	series("rate_limited_total", "429 responses"+per+".", obs.Counter,
		func(e EndpointStats) float64 { return float64(e.RateLimited) })
	series("timeouts_total", "Timed-out exchanges"+per+".", obs.Counter,
		func(e EndpointStats) float64 { return float64(e.Timeouts) })
	series("failures_total", "Other transport/server faults"+per+".", obs.Counter,
		func(e EndpointStats) float64 { return float64(e.Failures) })
	series("hedges_total", "Hedged (raced) exchanges"+per+".", obs.Counter,
		func(e EndpointStats) float64 { return float64(e.Hedges) })
	series("limit", "Current AIMD concurrency window"+per+" (0 = uncapped).", obs.Gauge,
		func(e EndpointStats) float64 { return e.Limit })
	series("inflight", "Exchanges currently charged against the window"+per+".", obs.Gauge,
		func(e EndpointStats) float64 { return float64(e.Inflight) })
	series("health", "Success EWMA"+per+".", obs.Gauge,
		func(e EndpointStats) float64 { return e.Health })
	series("breaker_trips_total", "Circuit-breaker openings"+per+".", obs.Counter,
		func(e EndpointStats) float64 { return float64(e.BreakerTrips) })
}

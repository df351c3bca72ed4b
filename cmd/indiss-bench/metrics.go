package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// metricDef names one metric of the benchmark's vocabulary and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off; BENCHMARK.json gates regressions on them. Every workload
// emits every one of them, and none can read 0 on a working run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"lookup_p50_us", "us"},
	{"lookup_max_qps", "1/s"},
	{"heap_live_mb", "MB"},
}

// perLayer are the traced run's single-layer metrics. Every workload
// emits every one: layers a workload leaves idle read 0 in counts and
// ratios, and the timed probes run against every workload's live
// gateway, so no timing is ever a placeholder.
var perLayer = []metricDef{
	{"slp.marshal_ns", "ns"},
	{"slp.parse_ns", "ns"},
	{"ssdp.marshal_ns", "ns"},
	{"ssdp.parse_ns", "ns"},
	{"dnssd.marshal_ns", "ns"},
	{"dnssd.parse_ns", "ns"},
	{"view.find_foreign_ns", "ns"},
	{"view.find_where_ns", "ns"},
	{"view.puts_per_s", "1/s"},
	{"view.removes_per_s", "1/s"},
	{"view.gen_bumps_per_s", "1/s"},
	{"bus.streams_per_lookup", "ratio"},
	{"query.answer_hit_ns", "ns"},
	{"query.answer_miss_ns", "ns"},
	{"query.hit_ratio", "ratio"},
	{"query.bytes_per_answer", "B"},
	{"query.pred_rejected_per_query", "ratio"},
	{"fed.batch_entries_per_frame", "ratio"},
	{"fed.bytes_per_delta", "B"},
	{"fed.digest_misses", "count"},
	{"fed.queue_drops", "count"},
	{"store.disk_bytes_per_op", "B"},
	{"store.segments", "count"},
	{"net.gw_udp_tx_per_lookup", "ratio"},
	{"net.gw_tcp_bytes_per_lookup", "B"},
	{"net.gw_tx_ns", "ns"},
	{"proc.cpu_us_per_lookup", "us"},
	{"proc.alloc_bytes_per_lookup", "B"},
	{"proc.gc_pause_ms", "ms"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p90_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"loadgen.lookup_p90_us", "us"},
	{"loadgen.lookup_p99_us", "us"},
	{"loadgen.samples", "count"},
	{"trace.queue_self_ns", "ns"},
	{"trace.client_marshal_self_ns", "ns"},
	{"trace.wait_self_ns", "ns"},
	{"trace.client_parse_self_ns", "ns"},
	{"trace.check_self_ns", "ns"},
	{"trace.overhead_us", "us"},
}

// Run-validity limits: a run beyond them measured an overloaded machine
// or a broken system, and must not become anyone's baseline. The
// generator's lateness is judged at p90: its p99 also catches the
// gateways' own periodic stalls (a campus gateway's Jini registrar sync
// walks all 4096 records twice a second), which are the system's cost,
// measured in the lookup latencies, and no sign of an overloaded machine.
const (
	maxLateP90Us = 500
	maxFailRatio = 0.01
)

// metric is one reported number, with all its digits.
type metric struct {
	name  string
	value float64
	unit  string
}

// report collects one workload run's metrics in the order measured, plus
// the operation counts the correctness verdict rests on.
type report struct {
	workload string
	metrics  []metric
	// attempted and failed count every measured operation: lookups and
	// churn registrations and goodbyes.
	attempted, failed         int
	lookups, lookupFails      int
	churnAttempts, churnFails int
	// errs holds each client loop's first failure, for diagnosis.
	errs []error
}

func (r *report) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

// set overwrites a metric's value.
func (r *report) set(name string, value float64) {
	for i := range r.metrics {
		if r.metrics[i].name == name {
			r.metrics[i].value = value
		}
	}
}

func (r *report) get(name string) (float64, bool) {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value, true
		}
	}
	return 0, false
}

// validate is the run-validity guard: it names the workload and the
// violated limit, or returns nil for a run fit to record.
func validate(r *report) error {
	if late, ok := r.get("loadgen.late_p90_us"); ok && late > maxLateP90Us {
		return fmt.Errorf("%s: load generator ran %.1fµs late at p90 (limit %dµs): the machine is overloaded",
			r.workload, late, maxLateP90Us)
	}
	for _, name := range []string{"lookup_fail_ratio", "churn_fail_ratio"} {
		if v, ok := r.get(name); ok && v > maxFailRatio {
			return fmt.Errorf("%s: %s is %.4f (limit %.2f)", r.workload, name, v, maxFailRatio)
		}
	}
	return nil
}

// ratio divides, reading 0 for an idle layer instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the p-quantile (0..1) of sorted by nearest rank.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(samples []time.Duration) []time.Duration {
	out := slices.Clone(samples)
	slices.Sort(out)
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"time"
)

// timing fixes a run's shape. The command derives it from --seconds;
// the smoke test shortens it.
type timing struct {
	// rounds is how many times a run deploys its workload afresh and
	// measures it. Every metric is the median over the rounds, so one
	// deployment's luck — say, where its gateways' periodic work falls
	// against the load — cannot move a run.
	rounds int
	// warmup is each round's unmeasured open loop, filling the caches.
	warmup time.Duration
	// window is each round's measured time: two thirds open loop (in a
	// traced run one third untraced, one third traced), one third closed
	// loop.
	window time.Duration
	// setups is how many times a round sets its workload up; the last
	// set-up is the one measured, and setup_s is their median.
	setups int
}

// runRounds is the number of rounds a run of the command makes.
const runRounds = 5

func runTiming(seconds int) timing {
	return timing{
		rounds: runRounds,
		warmup: time.Second,
		window: time.Duration(seconds) * time.Second / runRounds,
		setups: 3,
	}
}

// Span request ids carry their round and phase in the high bits, so no
// two requests of a run share one.
const (
	reqOpen = iota + 1
	reqTraced
	reqRegisters
)

func reqBase(round int, phase uint64) uint64 { return uint64(round)<<40 | phase<<32 }

// runWorkload measures w over tm.rounds fresh deployments and reports
// every metric as its median over the rounds. A traced run also returns
// its spans.
func runWorkload(w workload, e *env, tm timing) (*report, []span, error) {
	epoch := time.Now()
	var rounds []*report
	var spans []span
	for i := 0; i < tm.rounds; i++ {
		var d *deployment
		var setups []time.Duration
		for j := 0; j < tm.setups; j++ {
			if d != nil {
				d.close()
			}
			// Each set-up starts on a collected heap, so earlier garbage
			// is not collected on its clock.
			runtime.GC()
			t0 := time.Now()
			var err error
			if d, err = w.deploy(e); err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			setups = append(setups, time.Since(t0))
		}
		r := &report{workload: w.name}
		r.add("setup_s", median(setups).Seconds(), "s")
		s := runRound(r, w, e, tm, d, i, epoch)
		d.close()
		rounds = append(rounds, r)
		spans = mergeSpans(spans, s)
	}
	return combine(w.name, rounds), spans, nil
}

// runRound drives one deployment through warm-up, the open loop and the
// closed loop, and the churn's end, reporting into r.
func runRound(r *report, w workload, e *env, tm timing, d *deployment, round int, epoch time.Time) []span {
	seed := e.seed<<8 | int64(round)
	loops := make([]*loop, len(d.clients))
	for i, c := range d.clients {
		loops[i] = &loop{c: c, probe: newProbe(d.serving.View())}
	}
	rng := rand.New(rand.NewSource(seed))
	if d.churn != nil {
		d.churn.start(seed)
	}
	runOpen(d, loops, w.rate, tm.warmup, rng, false, epoch, 0)

	third := tm.window / 3
	openFrom := time.Now()
	spans := measureOpen(r, d, loops, w.rate, third, rng, e.traced, epoch, round)
	openTo := time.Now()
	r.add("heap_live_mb", liveHeapMB(), "MB")
	measureClosed(r, d, loops, tm.window-2*third, seed)
	closedTo := time.Now()

	if d.churn != nil {
		stale := d.churn.finish()
		spans = mergeSpans(spans, addChurn(r, d.churn.track, openFrom, openTo, closedTo, stale, epoch, reqBase(round, reqRegisters)))
	}
	r.add("lookup_fail_ratio", ratio(float64(r.lookupFails), float64(r.lookups)), "ratio")
	for _, l := range loops {
		if l.firstErr != nil {
			r.errs = append(r.errs, l.firstErr)
		}
	}
	return spans
}

// combine makes a run's report from its rounds': each metric is its
// median over the rounds, while operation counts and the failure ratios
// pool them, so one failed lookup cannot hide in a median.
func combine(name string, rounds []*report) *report {
	out := &report{workload: name}
	for _, m := range rounds[0].metrics {
		var vals []float64
		for _, r := range rounds {
			if v, ok := r.get(m.name); ok {
				vals = append(vals, v)
			}
		}
		slices.Sort(vals)
		out.add(m.name, vals[(len(vals)-1)/2], m.unit)
	}
	for _, r := range rounds {
		out.attempted += r.attempted
		out.failed += r.failed
		out.lookups += r.lookups
		out.lookupFails += r.lookupFails
		out.churnAttempts += r.churnAttempts
		out.churnFails += r.churnFails
		out.errs = append(out.errs, r.errs...)
	}
	out.set("lookup_fail_ratio", ratio(float64(out.lookupFails), float64(out.lookups)))
	if out.churnAttempts > 0 {
		out.set("churn_fail_ratio", ratio(float64(out.churnFails), float64(out.churnAttempts)))
	}
	return out
}

// measureOpen runs the measured open loop and reports it. A traced run
// splits it: an untraced half for the generator and latency baseline,
// then a traced half with spans, probes and taps.
func measureOpen(r *report, d *deployment, loops []*loop, rate float64, half time.Duration, rng *rand.Rand, traced bool, epoch time.Time, round int) []span {
	if !traced {
		c0 := snapshot(d)
		open := runOpen(d, loops, rate, 2*half, rng, false, epoch, reqBase(round, reqOpen))
		addLayerCounters(r, c0, snapshot(d), len(open.outcomes))
		addOpen(r, d, open)
		return nil
	}
	untraced := runOpen(d, loops, rate, half, rng, false, epoch, reqBase(round, reqOpen))
	addOpen(r, d, untraced)
	c0, taps := snapshot(d), startTaps(d)
	tracedPhase := runOpen(d, loops, rate, half, rng, true, epoch, reqBase(round, reqTraced))
	n := len(tracedPhase.outcomes)
	taps.stop(d, r, n)
	addLayerCounters(r, c0, snapshot(d), n)
	count(r, tracedPhase)
	lists := make([][]span, len(loops))
	for i, l := range loops {
		lists[i], l.spans = l.spans, nil
	}
	spans := mergeSpans(lists...)
	addTraced(r, d, loops, untraced, tracedPhase, spans)
	return spans
}

// liveHeapMB forces a collection and reports the live heap. It runs at
// the end of the open loop, so the live set is the one the workload's
// fixed arrival rate sustains.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measureClosed runs the closed loop: the sustained lookup rate and the
// process's cost per lookup at that rate.
func measureClosed(r *report, d *deployment, loops []*loop, dur time.Duration, seed int64) {
	before := readProc()
	closed := runClosed(d, loops, dur, seed)
	after := readProc()
	count(r, closed)
	done := float64(len(closed.outcomes) - closed.failures())
	r.add("lookup_max_qps", done/closed.elapsed.Seconds(), "1/s")
	r.add("proc.cpu_us_per_lookup", ratio(us(after.cpu-before.cpu), done), "us")
	r.add("proc.alloc_bytes_per_lookup", ratio(float64(after.allocBytes-before.allocBytes), done), "B")
	r.add("proc.gc_pause_ms", float64(after.pauseNs-before.pauseNs)/1e6, "ms")
}

// count adds a measured phase's lookups to the run's totals.
func count(r *report, p phase) {
	r.attempted += len(p.outcomes)
	r.failed += p.failures()
	r.lookups += len(p.outcomes)
	r.lookupFails += p.failures()
}

// addOpen reports the untraced open loop: the gated latencies, the
// generator's own lateness, and each pairing's median.
func addOpen(r *report, d *deployment, p phase) {
	count(r, p)
	lat := p.latencies()
	r.add("lookup_p50_us", us(percentile(lat, 0.5)), "us")
	r.add("loadgen.lookup_p90_us", us(percentile(lat, 0.9)), "us")
	late := sortedCopy(p.late)
	r.add("loadgen.late_p50_us", us(percentile(late, 0.5)), "us")
	r.add("loadgen.late_p90_us", us(percentile(late, 0.9)), "us")
	r.add("loadgen.late_p99_us", us(percentile(late, 0.99)), "us")
	r.add("loadgen.lookup_p99_us", us(percentile(lat, 0.99)), "us")
	r.add("loadgen.samples", float64(len(lat)), "count")
	byName := map[string][]time.Duration{}
	var names []string
	for _, o := range p.outcomes {
		name := d.targets[o.target].name
		if _, ok := byName[name]; !ok {
			names = append(names, name)
		}
		byName[name] = append(byName[name], o.lat)
	}
	slices.Sort(names)
	for _, name := range names {
		r.add("pair."+name+".p50_us", us(percentile(sortedCopy(byName[name]), 0.5)), "us")
	}
}

// addTraced reports the traced open loop: span self times, the layer
// probes, the tap's send timings and the tracing overhead.
func addTraced(r *report, d *deployment, loops []*loop, untraced, traced phase, spans []span) {
	self := selfTimes(spans)
	for _, name := range []string{"queue", "client.marshal", "wait", "client.parse", "check"} {
		r.add("trace."+strings.ReplaceAll(name, ".", "_")+"_self_ns", float64(median(self[name])), "ns")
	}
	probes := map[string][]time.Duration{}
	for _, l := range loops {
		for name, v := range l.probe.ns {
			probes[name] = append(probes[name], v...)
		}
	}
	for _, m := range perLayer {
		if v, ok := probes[m.name]; ok {
			r.add(m.name, float64(median(v)), m.unit)
		}
	}
	if _, ok := probes["query.answer_hit_ns"]; !ok {
		r.add("query.answer_hit_ns", 0, "ns") // the view changed between every replayed pair
	}
	var tx []time.Duration
	if d.tap != nil {
		d.tap.mu.Lock()
		tx = d.tap.txNs
		d.tap.mu.Unlock()
	}
	r.add("net.gw_tx_ns", float64(median(tx)), "ns")
	p50 := us(percentile(traced.latencies(), 0.5))
	r.add("trace.lookup_p50_us", p50, "us")
	r.add("trace.overhead_us", p50-us(percentile(untraced.latencies(), 0.5)), "us")
}

// addChurn reports the churn: convergence and withdrawal times of the
// open loop's changes, failures over the whole window plus stale
// records, and — in traced runs — the absorb/federate stage split.
func addChurn(r *report, t *churnTracker, openFrom, openTo, closedTo time.Time, stale int, epoch time.Time, base uint64) []span {
	open := t.summarize(openFrom, openTo, epoch, base)
	all := t.summarize(openFrom, closedTo, epoch, base)
	converge, withdraw := sortedCopy(open.converge), sortedCopy(open.withdraw)
	r.add("converge_p50_ms", ms(percentile(converge, 0.5)), "ms")
	r.add("converge_p90_ms", ms(percentile(converge, 0.9)), "ms")
	r.add("withdraw_p50_ms", ms(percentile(withdraw, 0.5)), "ms")
	r.add("withdraw_p90_ms", ms(percentile(withdraw, 0.9)), "ms")
	fails := all.fails + stale
	r.churnAttempts += all.attempts
	r.churnFails += fails
	r.add("churn_attempts", float64(all.attempts), "count")
	r.add("churn_stale", float64(stale), "count")
	r.add("churn_resurrected", float64(all.resurrected), "count")
	r.add("churn_fail_ratio", ratio(float64(fails), float64(all.attempts)), "ratio")
	r.attempted += all.attempts
	r.failed += fails
	r.errs = append(r.errs, all.errs...)
	if stale > 0 {
		r.errs = append(r.errs, fmt.Errorf("churn: gw2 still holds %d withdrawn records", stale))
	}
	if len(open.absorb) == 0 {
		return nil
	}
	absorb, federate := sortedCopy(open.absorb), sortedCopy(open.federate)
	r.add("stage.absorb_p50_us", us(percentile(absorb, 0.5)), "us")
	r.add("stage.absorb_p90_us", us(percentile(absorb, 0.9)), "us")
	r.add("stage.federate_p50_us", us(percentile(federate, 0.5)), "us")
	r.add("stage.federate_p90_us", us(percentile(federate, 0.9)), "us")
	return open.spans
}

func median(v []time.Duration) time.Duration { return percentile(sortedCopy(v), 0.5) }

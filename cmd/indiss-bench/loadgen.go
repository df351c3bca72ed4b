package main

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"indiss/internal/netapi"
)

// jobBacklog is how many due lookups may wait for a free client loop.
// A second's worth at the highest rate: a stalled gateway then shows as
// lookup latency, timed from each lookup's due time, before it can
// block the pacer.
const jobBacklog = 2048

// job is one scheduled lookup.
type job struct {
	due    time.Time
	target int
	req    uint64
}

// outcome is one finished lookup. A failed lookup's latency is infinite:
// it misses every latency limit.
type outcome struct {
	lat    time.Duration
	target int
	failed bool
}

// loop is one client loop and what it recorded in the current phase.
type loop struct {
	c        *client
	probe    *probe
	out      []outcome
	spans    []span
	firstErr error
}

// do performs one lookup; a traced lookup records its spans and, once
// in probeEvery, probes the layers.
func (l *loop) do(d *deployment, j job, traced bool, epoch time.Time) {
	t := &d.targets[j.target]
	dequeued := time.Now()
	var st stamps
	_, err := l.c.lookup(t, &st)
	done := time.Now()
	o := outcome{lat: done.Sub(j.due), target: j.target}
	if err != nil {
		o.lat, o.failed = time.Duration(math.MaxInt64), true
		if l.firstErr == nil {
			l.firstErr = err
		}
	}
	l.out = append(l.out, o)
	if traced && err == nil {
		l.spans = appendLookupSpans(l.spans, epoch, j.req, j.due, dequeued, &st, done)
		if j.req%probeEvery == 0 {
			l.probe.sample(t)
		}
	}
}

// phase is one load phase's merged record.
type phase struct {
	outcomes []outcome
	// late is how late the pacer dispatched each open-loop lookup;
	// elapsed is how long a closed loop ran.
	late    []time.Duration
	elapsed time.Duration
}

func (p *phase) failures() int {
	n := 0
	for _, o := range p.outcomes {
		if o.failed {
			n++
		}
	}
	return n
}

// latencies returns the phase's latencies in ascending order.
func (p *phase) latencies() []time.Duration {
	lat := make([]time.Duration, len(p.outcomes))
	for i, o := range p.outcomes {
		lat[i] = o.lat
	}
	slices.Sort(lat)
	return lat
}

// collect moves the loops' outcomes into the phase, leaving the loops
// holding no memory from it.
func collect(loops []*loop, p *phase) {
	for _, l := range loops {
		p.outcomes = append(p.outcomes, l.out...)
		l.out = nil
	}
}

// runOpen is the open loop: one pacer draws Poisson arrivals at rate,
// sleeps then spins to each due time (netapi.SleepPrecise; plain
// time.Sleep ran a median 560µs late), and hands each lookup to
// whichever client loop is free. Requests are numbered from base.
func runOpen(d *deployment, loops []*loop, rate float64, dur time.Duration, rng *rand.Rand, traced bool, epoch time.Time, base uint64) phase {
	jobs := make(chan job, jobBacklog)
	var wg sync.WaitGroup
	for _, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				l.do(d, j, traced, epoch)
			}
		}()
	}
	p := phase{late: make([]time.Duration, 0, int(rate*dur.Seconds()*1.1)+64)}
	start := time.Now()
	due := start
	for req := base; ; req++ {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		netapi.SleepPrecise(time.Until(due))
		p.late = append(p.late, time.Since(due))
		jobs <- job{due: due, target: d.pick(rng), req: req}
	}
	close(jobs)
	wg.Wait()
	collect(loops, &p)
	return p
}

// runClosed is the closed loop: every client loop issues its next
// lookup as soon as the previous one answers, for dur.
func runClosed(d *deployment, loops []*loop, dur time.Duration, seed int64) phase {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, l := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(i) + 1))
			for time.Now().Before(deadline) {
				ti := d.pick(rng)
				t0 := time.Now()
				_, err := l.c.lookup(&d.targets[ti], &stamps{})
				o := outcome{lat: time.Since(t0), target: ti, failed: err != nil}
				if err != nil && l.firstErr == nil {
					l.firstErr = err
				}
				l.out = append(l.out, o)
			}
		}()
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	collect(loops, &p)
	return p
}

package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"indiss"
	"indiss/internal/core"
	"indiss/internal/dnssd"
)

// Native DNS-SD churn on the campus's first segment: 50 registrations
// and 50 goodbyes a second, each instance living one second. A much
// shorter life makes some goodbyes overtake their registrations at the
// gateway, a defect the benchmark must not mistake for load.
const (
	churnInterval = 20 * time.Millisecond
	churnLive     = 50
	churnLife     = churnLive * churnInterval
	// churnLimit is how long a registration or goodbye may take to show
	// at gw2 before it counts as failed.
	churnLimit = 2 * time.Second
)

// churnKinds are never queried, so churn shares the gateways with the
// lookups without changing any answer.
var churnKinds = []string{"churn0", "churn1", "churn2", "churn3"}

// churnInst is one registered instance awaiting its goodbye.
type churnInst struct {
	name, service, url string
	at                 time.Time
}

// churner registers and withdraws native DNS-SD instances, each under
// its own port (the gateway keys DNS-SD records by ip:port), and tracks
// when each change shows on the gateways' lossless delta feeds.
type churner struct {
	resp    *dnssd.Responder
	ip      string
	serving *indiss.System
	track   *churnTracker

	live []churnInst
	seq  int
	stop chan struct{}
	done chan struct{}
}

func newChurner(d *deployment, host *indiss.Host, e *env) (*churner, error) {
	resp, err := dnssd.NewResponder(host, dnssd.ResponderConfig{})
	if err != nil {
		return nil, err
	}
	c := &churner{resp: resp, ip: host.IP(), serving: d.serving, track: newChurnTracker()}
	d.onClose(resp.Close)
	d.onClose(follow(d.serving.View(), false, c.track))
	if e.traced {
		d.onClose(follow(d.origin.View(), true, c.track))
	}
	return c, nil
}

// follow feeds a gateway's delta feed into the tracker until the
// returned stop runs.
func follow(view *core.ServiceView, origin bool, t *churnTracker) (stop func()) {
	batches, cancel := view.SubscribeDeltaBatches(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range batches {
			now := time.Now()
			for _, d := range batch {
				if strings.HasPrefix(d.Record.Kind, "churn") {
					t.observe(origin, d.Op, d.Record.URL, now)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// start begins churning; kinds are drawn from the run's seed.
func (c *churner) start(seed int64) {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	rng := rand.New(rand.NewSource(seed))
	go func() {
		defer close(c.done)
		tick := time.NewTicker(churnInterval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
			if len(c.live) == churnLive {
				c.retire()
			}
			c.register(churnKinds[rng.Intn(len(churnKinds))])
		}
	}()
}

func (c *churner) register(kind string) {
	c.seq++
	port := 10000 + c.seq
	inst := churnInst{
		name:    "inst" + strconv.Itoa(c.seq),
		service: dnssd.ServiceType(kind),
		url:     fmt.Sprintf("dnssd://%s:%d", c.ip, port),
		at:      time.Now(),
	}
	c.track.registered(inst.url, inst.at)
	if err := c.resp.Register(dnssd.Registration{Instance: inst.name, Service: inst.service, Port: port}); err != nil {
		return // never seen at gw2, so it counts as failed
	}
	c.live = append(c.live, inst)
}

// retire sends the oldest live instance's goodbye.
func (c *churner) retire() {
	inst := c.live[0]
	c.live = c.live[1:]
	c.track.withdrawn(inst.url, time.Now())
	c.resp.Unregister(inst.name, inst.service)
}

// finish stops registering, withdraws every live instance once it has
// lived its full life, waits for the changes to settle at gw2 and
// returns how many churn records gw2 still holds: each is stale.
func (c *churner) finish() int {
	close(c.stop)
	<-c.done
	for len(c.live) > 0 {
		time.Sleep(time.Until(c.live[0].at.Add(churnLife)))
		c.retire()
	}
	deadline := time.Now().Add(churnLimit)
	for c.track.unsettled() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	// A record gw2 re-added after its goodbye gets the same limit to be
	// repaired by anti-entropy before it counts as stale.
	deadline = time.Now().Add(churnLimit)
	for {
		stale := 0
		for _, kind := range churnKinds {
			stale += len(c.serving.View().Find(kind, time.Now()))
		}
		if stale == 0 || time.Now().After(deadline) {
			return stale
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// churnRec is one instance's life as the tracker saw it.
type churnRec struct {
	regAt, byeAt time.Time
	// absorbAt is when gw1's feed showed the registration (traced runs);
	// putAt and goneAt when gw2's showed the registration and goodbye.
	absorbAt, putAt, goneAt time.Time
	// resurrected marks a record gw2 showed again after its goodbye: a
	// transient the end-of-run stale check would not see.
	resurrected bool
}

// churnTracker matches registrations and goodbyes with their arrival on
// the gateways' delta feeds.
type churnTracker struct {
	mu   sync.Mutex
	recs map[string]*churnRec
}

func newChurnTracker() *churnTracker {
	return &churnTracker{recs: make(map[string]*churnRec)}
}

func (t *churnTracker) registered(url string, at time.Time) {
	t.mu.Lock()
	t.recs[url] = &churnRec{regAt: at}
	t.mu.Unlock()
}

func (t *churnTracker) withdrawn(url string, at time.Time) {
	t.mu.Lock()
	if r := t.recs[url]; r != nil {
		r.byeAt = at
	}
	t.mu.Unlock()
}

// observe records one delta from gw1's feed (origin) or gw2's.
func (t *churnTracker) observe(origin bool, op core.DeltaOp, url string, at time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.recs[url]
	switch {
	case r == nil:
	case origin:
		if op == core.DeltaPut && r.absorbAt.IsZero() {
			r.absorbAt = at
		}
	case op == core.DeltaPut:
		if !r.goneAt.IsZero() {
			r.resurrected = true
		} else if r.putAt.IsZero() {
			r.putAt = at
		}
	case r.goneAt.IsZero():
		r.goneAt = at
	}
}

// unsettled counts changes gw2 has not shown yet.
func (t *churnTracker) unsettled() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, r := range t.recs {
		if r.putAt.IsZero() || (!r.byeAt.IsZero() && r.goneAt.IsZero()) {
			n++
		}
	}
	return n
}

// churnSummary is the churn inside one window of the run.
type churnSummary struct {
	converge, withdraw, absorb, federate []time.Duration
	// attempts counts registrations and goodbyes; fails those gw2 did
	// not show within churnLimit.
	attempts, fails int
	// resurrected counts records gw2 re-added after their goodbye and
	// later withdrew again; reported, not failed, since the record ends
	// where it should.
	resurrected int
	errs        []error
	spans       []span
}

// summarize covers the registrations and goodbyes issued in [from, to).
// Registration spans (register → absorb at gw1 → federate to gw2) are
// built for traced runs, where gw1's feed is followed.
func (t *churnTracker) summarize(from, to, epoch time.Time, base uint64) churnSummary {
	in := func(at time.Time) bool { return !at.IsZero() && !at.Before(from) && at.Before(to) }
	ns := func(at time.Time) int64 { return at.Sub(epoch).Nanoseconds() }
	t.mu.Lock()
	defer t.mu.Unlock()
	var s churnSummary
	for url, r := range t.recs {
		if in(r.regAt) {
			s.attempts++
			seen := !r.putAt.IsZero() && r.putAt.Sub(r.regAt) <= churnLimit
			if !seen {
				s.fails++
				s.errs = append(s.errs, fmt.Errorf("churn %s: registration not at gw2 within %v", url, churnLimit))
			}
			if r.resurrected {
				s.resurrected++
			}
			if seen {
				s.converge = append(s.converge, r.putAt.Sub(r.regAt))
			}
			if seen && !r.absorbAt.IsZero() && !r.absorbAt.After(r.putAt) {
				s.absorb = append(s.absorb, r.absorbAt.Sub(r.regAt))
				s.federate = append(s.federate, r.putAt.Sub(r.absorbAt))
				root := len(s.spans)
				req := base + uint64(root)
				s.spans = append(s.spans,
					span{"register", ns(r.regAt), ns(r.putAt), -1, req},
					span{"absorb", ns(r.regAt), ns(r.absorbAt), root, req},
					span{"federate", ns(r.absorbAt), ns(r.putAt), root, req})
			}
		}
		if in(r.byeAt) {
			s.attempts++
			if r.goneAt.IsZero() || r.goneAt.Sub(r.byeAt) > churnLimit {
				s.fails++
				s.errs = append(s.errs, fmt.Errorf("churn %s: goodbye not at gw2 within %v", url, churnLimit))
			} else {
				s.withdraw = append(s.withdraw, r.goneAt.Sub(r.byeAt))
			}
		}
	}
	return s
}

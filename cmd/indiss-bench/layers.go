package main

import (
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/federation"
	"indiss/internal/query"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
	"indiss/internal/viewstore"
)

// probeEvery spaces the traced run's layer probes: one traced lookup in
// this many is followed by timed calls straight into the serving
// gateway's view, a private answer engine over that view, and the codecs.
const probeEvery = 64

// probe collects one client loop's layer timings by metric name.
type probe struct {
	view  *core.ServiceView
	keep  func(*core.ServiceRecord) bool
	codec codecProbe
	buf   []byte
	ns    map[string][]time.Duration
}

func newProbe(view *core.ServiceView) *probe {
	pred := slp.MustParsePredicate("(slot=3)")
	return &probe{
		view:  view,
		keep:  func(r *core.ServiceRecord) bool { return pred.EvalMap(r.Attrs) },
		codec: newCodecProbe(),
		ns:    make(map[string][]time.Duration),
	}
}

func (p *probe) time(name string, call func()) {
	t0 := time.Now()
	call()
	p.ns[name] = append(p.ns[name], time.Since(t0))
}

// sample times the layers on t's kind. The answer engine is a fresh one
// over the live view, so its first answer is a miss, its second a hit
// unless the view changed in between, and the server's own cache is
// never disturbed.
func (p *probe) sample(t *target) {
	now := time.Now()
	p.time("view.find_foreign_ns", func() { p.view.FindForeign(askingSDP(t.proto), t.kind, now) })
	p.time("view.find_where_ns", func() { p.view.FindWhere(t.kind, now, p.keep) })
	e := query.NewEngine(p.view, "indiss-bench")
	p.time("query.answer_miss_ns", func() { p.buf, _, _ = e.AppendAnswer(p.buf[:0], t.kind, t.pred, now) })
	t0 := time.Now()
	var hit bool
	p.buf, hit, _ = e.AppendAnswer(p.buf[:0], t.kind, t.pred, now)
	d := time.Since(t0)
	if hit {
		p.ns["query.answer_hit_ns"] = append(p.ns["query.answer_hit_ns"], d)
	}
	p.codec.sample(p)
}

// askingSDP is the protocol whose unit would ask the view on the
// lookup's behalf. Query-plane lookups ask as DNS-SD, which filters out
// none of the campus's SLP records.
func askingSDP(p proto) core.SDP {
	switch p {
	case protoSLP:
		return core.SDPSLP
	case protoSSDP:
		return core.SDPUPnP
	case protoJini:
		return core.SDPJini
	default:
		return core.SDPDNSSD
	}
}

// codecProbe holds one canonical bridged exchange per multicast SDP: the
// request a client marshals and the reply it parses. Timing the codecs
// on fixed messages makes their cost comparable across workloads,
// including those whose clients speak only HTTP.
type codecProbe struct {
	slpReq   *slp.SrvRqst
	slpRply  []byte
	ssdpReq  *ssdp.SearchRequest
	ssdpResp []byte
	dnsQuery *dnssd.Message
	dnsResp  []byte
}

func newCodecProbe() codecProbe {
	const endpoint = "soap://10.0.0.12:4004/service/timer/control"
	slpRply, _ := (&slp.SrvRply{
		Hdr:  slp.Header{XID: 7, Lang: slp.DefaultLang},
		URLs: []slp.URLEntry{{Lifetime: 3600, URL: "service:clock:" + endpoint}},
	}).Marshal()
	st := upnp.TypeURN("clock", 1)
	dnsResp := &dnssd.Message{ID: 7, Response: true, Authoritative: true,
		Answers: []dnssd.Record{{Name: "_clock._tcp.local.", Type: dnssd.TypePTR, TTL: 120, Target: "Clock-1a2b._clock._tcp.local."}},
		Additional: []dnssd.Record{
			{Name: "Clock-1a2b._clock._tcp.local.", Type: dnssd.TypeSRV, TTL: 120, Port: 4004, Target: "indiss-1a2b.local."},
			{Name: "Clock-1a2b._clock._tcp.local.", Type: dnssd.TypeTXT, TTL: 120, Text: []string{"origin=UPnP", "url=" + endpoint}},
			{Name: "indiss-1a2b.local.", Type: dnssd.TypeA, TTL: 120, IP: "10.0.0.12"},
		},
	}
	return codecProbe{
		slpReq: &slp.SrvRqst{
			Hdr:         slp.Header{XID: 7, Flags: slp.FlagRequestMcast, Lang: slp.DefaultLang},
			ServiceType: "service:clock", Scopes: []string{slp.DefaultScope},
		},
		slpRply: slpRply,
		ssdpReq: &ssdp.SearchRequest{ST: st, MX: 1},
		ssdpResp: (&ssdp.SearchResponse{ST: st, USN: "uuid:indiss-bridge-clock-1::" + st,
			Location: "http://10.0.0.9:4104/bridge/clock-1/description.xml",
			Server:   "indiss-bridge/1.0 UPnP/1.0", MaxAge: 1800}).Marshal(),
		dnsQuery: &dnssd.Message{ID: 7, Questions: []dnssd.Question{{Name: "_clock._tcp.local.", Type: dnssd.TypePTR}}},
		dnsResp:  dnsResp.Marshal(),
	}
}

func (c *codecProbe) sample(p *probe) {
	p.time("slp.marshal_ns", func() { _, _ = c.slpReq.Marshal() })
	p.time("slp.parse_ns", func() { _, _ = slp.Parse(c.slpRply) })
	p.time("ssdp.marshal_ns", func() { c.ssdpReq.Marshal() })
	p.time("ssdp.parse_ns", func() { _, _ = ssdp.Parse(c.ssdpResp) })
	p.time("dnssd.marshal_ns", func() { c.dnsQuery.Marshal() })
	p.time("dnssd.parse_ns", func() {
		if m, err := dnssd.Parse(c.dnsResp); err == nil {
			dnssd.InstancesFromMessage(m)
		}
	})
}

// counters is a snapshot of the public counters the per-layer metrics
// difference across a window.
type counters struct {
	at       time.Time
	gen      uint64
	query    query.Stats
	fedSent  federation.Stats // the origin gateway's, which sends the deltas
	fedAll   federation.Stats // digest and drop counts summed over gateways
	store    viewstore.Stats  // append counts summed over gateways
	segments int              // the serving gateway's store
	udpTx    uint64
	tcpBytes uint64
}

func snapshot(d *deployment) counters {
	c := counters{at: time.Now(), gen: d.serving.View().Generation()}
	if qs, ok := d.serving.QueryPlane().(*query.Server); ok {
		c.query = qs.Stats()
	}
	for _, gw := range d.gateways() {
		if ep, ok := gw.Federation().(*federation.Endpoint); ok {
			st := ep.Stats()
			if gw == d.origin {
				c.fedSent = st
			}
			c.fedAll.DigestMisses += st.DigestMisses
			c.fedAll.QueueDrops += st.QueueDrops
		}
		if store := gw.ViewStore(); store != nil {
			st := store.Stats()
			c.store.Appends += st.Appends
			c.store.AppendBytes += st.AppendBytes
			if gw == d.serving {
				c.segments = st.Segments
			}
		}
	}
	if d.tap != nil {
		c.udpTx, c.tcpBytes = d.tap.udpTx.Load(), d.tap.tcpBytes.Load()
	}
	return c
}

// addLayerCounters reports the counter deltas between a and b; lookups
// is the number of lookups issued in the window.
func addLayerCounters(r *report, a, b counters, lookups int) {
	secs := b.at.Sub(a.at).Seconds()
	n := float64(lookups)
	dq := func(f func(query.Stats) uint64) float64 { return float64(f(b.query) - f(a.query)) }
	hits, misses := dq(func(s query.Stats) uint64 { return s.CacheHits }), dq(func(s query.Stats) uint64 { return s.CacheMisses })
	queries := dq(func(s query.Stats) uint64 { return s.Queries })
	r.add("view.gen_bumps_per_s", float64(b.gen-a.gen)/secs, "1/s")
	r.add("query.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.add("query.bytes_per_answer", ratio(dq(func(s query.Stats) uint64 { return s.BytesOut }), queries), "B")
	r.add("query.pred_rejected_per_query", ratio(dq(func(s query.Stats) uint64 { return s.PredRejected }), queries), "ratio")
	entries := float64(b.fedSent.BatchEntriesSent - a.fedSent.BatchEntriesSent)
	r.add("fed.batch_entries_per_frame", ratio(entries, float64(b.fedSent.BatchSent-a.fedSent.BatchSent)), "ratio")
	r.add("fed.bytes_per_delta", ratio(float64(b.fedSent.BytesSent-a.fedSent.BytesSent), entries), "B")
	r.add("fed.digest_misses", float64(b.fedAll.DigestMisses-a.fedAll.DigestMisses), "count")
	r.add("fed.queue_drops", float64(b.fedAll.QueueDrops-a.fedAll.QueueDrops), "count")
	r.add("store.disk_bytes_per_op", ratio(float64(b.store.AppendBytes-a.store.AppendBytes), float64(b.store.Appends-a.store.Appends)), "B")
	r.add("store.segments", float64(b.segments), "count")
	r.add("net.gw_udp_tx_per_lookup", ratio(float64(b.udpTx-a.udpTx), n), "ratio")
	r.add("net.gw_tcp_bytes_per_lookup", ratio(float64(b.tcpBytes-a.tcpBytes), n), "B")
}

// busName is the benchmark's tap on the serving gateway's event bus.
const busName = "indiss-bench-tap"

// windowTaps count, over the traced window, the streams crossing the
// serving gateway's bus and the mutations on its view's delta feed.
type windowTaps struct {
	bus                    *events.Bus
	streams, puts, removes atomic.Uint64
	stopFeed               func()
	start                  time.Time
}

func startTaps(d *deployment) *windowTaps {
	w := &windowTaps{bus: d.serving.Bus(), start: time.Now()}
	w.bus.Subscribe(busName, events.ListenerFunc(func(env events.Envelope) {
		w.streams.Add(1)
		env.Release()
	}))
	batches, cancel := d.serving.View().SubscribeDeltaBatches(0)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for batch := range batches {
			for _, dl := range batch {
				if dl.Op == core.DeltaPut {
					w.puts.Add(1)
				} else {
					w.removes.Add(1)
				}
			}
		}
	}()
	w.stopFeed = func() {
		cancel()
		<-done
	}
	if d.tap != nil {
		d.tap.timing.Store(true)
	}
	return w
}

// stop ends the window and reports its counts.
func (w *windowTaps) stop(d *deployment, r *report, lookups int) {
	secs := time.Since(w.start).Seconds()
	w.bus.Unsubscribe(busName)
	w.stopFeed()
	if d.tap != nil {
		d.tap.timing.Store(false)
	}
	r.add("view.puts_per_s", float64(w.puts.Load())/secs, "1/s")
	r.add("view.removes_per_s", float64(w.removes.Load())/secs, "1/s")
	r.add("bus.streams_per_lookup", ratio(float64(w.streams.Load()), float64(lookups)), "ratio")
}

// procUsage is the process's CPU time, allocation and GC pause totals.
type procUsage struct {
	cpu        time.Duration
	allocBytes uint64
	pauseNs    uint64
}

func readProc() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		pauseNs:    ms.PauseTotalNs,
	}
}

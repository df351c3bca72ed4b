// Benchmarks regenerating the paper's evaluation: one benchmark per
// table/figure row (Table 2, Figures 7–9) plus ablations for the design
// choices DESIGN.md calls out. ns/op on the scenario benchmarks is the
// response time the corresponding paper figure reports.
//
//	go test -bench=. -benchmem
package indiss_test

import (
	"strconv"
	"testing"
	"time"

	"indiss"
	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/experiments"
	"indiss/internal/federation"
	"indiss/internal/fsm"
	"indiss/internal/httpx"
	"indiss/internal/netapi"
	"indiss/internal/query"
	"indiss/internal/realnet"
	"indiss/internal/simnet"
	"indiss/internal/sizereport"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
	"indiss/internal/xmlx"
)

// --- Table 2: size requirements ---

// BenchmarkTable2SizeReport regenerates the size table; the INDISS-total
// and native-stack NCSS are exported as benchmark metrics.
func BenchmarkTable2SizeReport(b *testing.B) {
	var report sizereport.Report
	var err error
	for i := 0; i < b.N; i++ {
		report, err = sizereport.Measure(".", sizereport.DefaultGroups())
		if err != nil {
			b.Fatal(err)
		}
	}
	indissTotal := report.Sum("Core framework", "SLP Unit", "UPnP Unit")
	libs := report.Sum("SLP stack (OpenSLP equivalent)", "UPnP stack (CyberLink equivalent)")
	b.ReportMetric(float64(indissTotal.NCSS), "indiss-ncss")
	b.ReportMetric(float64(libs.NCSS), "native-stacks-ncss")
	b.ReportMetric(indissTotal.KB, "indiss-kb")
	b.ReportMetric(libs.KB, "native-stacks-kb")
}

// --- Figures 7–9: the paper's scenarios ---
//
// Each benchmark times one native lookup per iteration on the testbed
// internal/experiments builds for cmd/experiments, so ns/op and the
// experiments' median measure the same path.

// benchScenario sets up s and runs its lookup b.N times.
func benchScenario(b *testing.B, s experiments.Scenario) {
	lookup, teardown, err := s.Setup()
	if err != nil {
		b.Fatal(err)
	}
	defer teardown()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := lookup(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7NativeSLP: native SLP search (paper: 0.7ms).
func BenchmarkFig7NativeSLP(b *testing.B) { benchScenario(b, experiments.NativeSLP) }

// BenchmarkFig7NativeUPnP: native UPnP search answer (paper: 40ms).
func BenchmarkFig7NativeUPnP(b *testing.B) { benchScenario(b, experiments.NativeUPnP) }

// BenchmarkFig8ServiceSideSLPToUPnP (paper: 65ms).
func BenchmarkFig8ServiceSideSLPToUPnP(b *testing.B) {
	benchScenario(b, experiments.ServiceSideSLPToUPnP)
}

// BenchmarkFig9aClientSideSLPToUPnP (paper: 80ms).
func BenchmarkFig9aClientSideSLPToUPnP(b *testing.B) {
	benchScenario(b, experiments.ClientSideSLPToUPnP)
}

// BenchmarkFig8ServiceSideUPnPToSLP (paper: 40ms).
func BenchmarkFig8ServiceSideUPnPToSLP(b *testing.B) {
	benchScenario(b, experiments.ServiceSideUPnPToSLP)
}

// BenchmarkFig9bClientSideUPnPToSLP (paper: 0.12ms, the best case):
// wire-level turnaround with the view warmed by passive SLP adverts.
func BenchmarkFig9bClientSideUPnPToSLP(b *testing.B) {
	benchScenario(b, experiments.ClientSideUPnPToSLP)
}

// --- DNS-SD: the post-paper fourth unit's workload ---

// BenchmarkNativeDNSSD: native mDNS browse, wire path every iteration
// (cache flushed), the DNS-SD analogue of BenchmarkFig7NativeSLP.
func BenchmarkNativeDNSSD(b *testing.B) {
	net := indiss.NewLAN()
	defer net.Close()
	clientHost := net.MustAddHost("client", "10.0.0.1")
	serviceHost := net.MustAddHost("service", "10.0.0.2")
	r, err := dnssd.NewResponder(serviceHost, dnssd.ResponderConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if err := r.Register(dnssd.Registration{
		Instance: "Clock", Service: dnssd.ServiceType("clock"), Port: 9000,
	}); err != nil {
		b.Fatal(err)
	}
	q := dnssd.NewQuerier(clientHost, dnssd.QuerierConfig{})

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Flush()
		if _, err := q.Browse(dnssd.ServiceType("clock"), 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBridgedSLPToDNSSD: an SLP client discovering a DNS-SD-only
// service through a gateway — one of the 12 matrix pairings, timed.
func BenchmarkBridgedSLPToDNSSD(b *testing.B) {
	net := indiss.NewLAN()
	defer net.Close()
	clientHost := net.MustAddHost("client", "10.0.0.1")
	serviceHost := net.MustAddHost("service", "10.0.0.2")
	gatewayHost := net.MustAddHost("gateway", "10.0.0.9")

	r, err := dnssd.NewResponder(serviceHost, dnssd.ResponderConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	if err := r.Register(dnssd.Registration{
		Instance: "Clock", Service: dnssd.ServiceType("clock"), Port: 9000,
	}); err != nil {
		b.Fatal(err)
	}
	sys, err := indiss.Deploy(gatewayHost, indiss.Config{
		Role:    indiss.RoleGateway,
		SDPs:    []indiss.SDP{indiss.SLP, indiss.DNSSD},
		Profile: indiss.CalibratedProfile(),
		NoCache: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()

	ua := slp.NewUserAgent(clientHost, indiss.OpenSLPProfile())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ua.FindFirst("service:clock", "", 3*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDNSSDWireRoundTrip measures marshal+parse of the browse
// query/answer pair — the wire cost of one bridged mDNS exchange,
// guarded by the alloc budget in perf_test.go over the same fixture.
func BenchmarkDNSSDWireRoundTrip(b *testing.B) {
	query, resp := benchDNSSDMessages()
	qbuf := make([]byte, 0, 512)
	rbuf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qbuf = query.AppendTo(qbuf[:0])
		if _, err := dnssd.Parse(qbuf); err != nil {
			b.Fatal(err)
		}
		rbuf = resp.AppendTo(rbuf[:0])
		if _, err := dnssd.Parse(rbuf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationViewCacheOff measures the bridged SLP search with the
// view cache disabled — the cost the cache saves is the difference
// between this and BenchmarkFig9bClientSideUPnPToSLP's path.
func BenchmarkAblationViewCacheOff(b *testing.B) {
	net := indiss.NewLAN()
	defer net.Close()
	clientHost := net.MustAddHost("client", "10.0.0.1")
	serviceHost := net.MustAddHost("service", "10.0.0.2")
	dev, err := upnp.NewRootDevice(serviceHost, upnp.DeviceConfig{Kind: "clock"})
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	sys, err := indiss.Deploy(clientHost, indiss.Config{
		Role: indiss.RoleClientSide, SDPs: []indiss.SDP{indiss.SLP, indiss.UPnP}, NoCache: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ua.FindFirst("service:clock", "", 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationViewCacheOn is the same search answered from the view.
func BenchmarkAblationViewCacheOn(b *testing.B) {
	net := indiss.NewLAN()
	defer net.Close()
	clientHost := net.MustAddHost("client", "10.0.0.1")
	serviceHost := net.MustAddHost("service", "10.0.0.2")
	sys, err := indiss.Deploy(clientHost, indiss.Config{
		Role: indiss.RoleClientSide, SDPs: []indiss.SDP{indiss.SLP, indiss.UPnP},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	// Device boots after INDISS so its NOTIFY warms the view.
	dev, err := upnp.NewRootDevice(serviceHost, upnp.DeviceConfig{Kind: "clock"})
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	deadline := time.Now().Add(3 * time.Second)
	for len(sys.View().Find("clock", time.Now())) == 0 {
		if time.Now().After(deadline) {
			b.Fatal("view never warmed")
		}
		time.Sleep(time.Millisecond)
	}
	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ua.FindFirst("service:clock", "", 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMonitorDetection measures the monitor's per-datagram
// cost: the paper claims detection needs "no computation, data
// interpretation or data transformation" (§2.1).
func BenchmarkAblationMonitorDetection(b *testing.B) {
	net := simnet.New(simnet.Config{})
	defer net.Close()
	a := net.MustAddHost("a", "10.0.0.1")
	m := net.MustAddHost("m", "10.0.0.2")

	detections := make(chan struct{}, 1024)
	mon, err := core.NewMonitor(m, core.MonitorConfig{Handler: func(core.Detection) {
		detections <- struct{}{}
	}})
	if err != nil {
		b.Fatal(err)
	}
	defer mon.Close()
	send, err := a.ListenUDP(0)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 100)
	dst := simnet.Addr{IP: "239.255.255.253", Port: 427}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.WriteTo(payload, dst); err != nil {
			b.Fatal(err)
		}
		<-detections
	}
}

// BenchmarkAblationSLPParse measures SLP wire decoding throughput.
func BenchmarkAblationSLPParse(b *testing.B) {
	msg := &slp.SrvRqst{
		Hdr:         slp.Header{XID: 42, Flags: slp.FlagRequestMcast},
		ServiceType: "service:clock",
		Scopes:      []string{"DEFAULT"},
		Predicate:   "(location=hall)",
	}
	data, err := msg.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := slp.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSLPMarshal measures SLP wire encoding throughput.
func BenchmarkAblationSLPMarshal(b *testing.B) {
	msg := &slp.SrvRply{
		Hdr:   slp.Header{XID: 42},
		URLs:  []slp.URLEntry{{Lifetime: 1800, URL: "service:clock:soap://10.0.0.2:4004/service/timer/control"}},
		Error: slp.ErrNone,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msg.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSSDPParse measures SSDP (HTTPU) decoding throughput.
func BenchmarkAblationSSDPParse(b *testing.B) {
	data := (&ssdp.SearchResponse{
		ST:       "urn:schemas-upnp-org:device:clock:1",
		USN:      "uuid:clock::urn:schemas-upnp-org:device:clock:1",
		Location: "http://10.0.0.2:4004/description.xml",
		Server:   "simnet/1.0 UPnP/1.0 indiss/1.0",
		MaxAge:   1800,
	}).Marshal()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssdp.Parse(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationXMLScan measures the event-based XML scanner over a
// realistic description document.
func BenchmarkAblationXMLScan(b *testing.B) {
	desc := upnp.MarshalDescription(&upnp.DeviceDesc{
		DeviceType:       upnp.TypeURN("clock", 1),
		FriendlyName:     "Clock",
		ModelDescription: indiss.DescriptionPadding(),
		UDN:              "uuid:clock",
		Services: []upnp.ServiceDesc{{
			ServiceType: upnp.ServiceURN("timer", 1),
			ControlURL:  "/service/timer/control",
		}},
	})
	b.SetBytes(int64(len(desc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := xmlx.NewScanner(desc)
		for {
			tok, err := sc.Next()
			if err != nil {
				b.Fatal(err)
			}
			if tok.Kind == xmlx.KindEOF {
				break
			}
		}
	}
}

// BenchmarkAblationFSMTransition measures one DFA transition, the unit
// coordination primitive of §2.3.
func BenchmarkAblationFSMTransition(b *testing.B) {
	m := fsm.New("bench", "a").
		AddTuple("a", events.ServiceType, "", "b").
		AddTuple("b", events.ServiceType, "", "a").
		MustBuild()
	inst := m.NewInstance()
	ev := events.E(events.ServiceType, "clock")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Feed(ev); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationEventBus measures stream publication through the bus
// with three subscribed units.
func BenchmarkAblationEventBus(b *testing.B) {
	bus := events.NewBus()
	defer bus.Close()
	sink := make(chan struct{}, 1024)
	for _, name := range []string{"slp", "upnp", "jini"} {
		captured := name
		bus.Subscribe(captured, events.ListenerFunc(func(events.Envelope) {
			if captured == "jini" {
				sink <- struct{}{}
			}
		}))
	}
	stream := events.NewStream(
		events.E(events.NetType, "SLP"),
		events.E(events.ServiceRequest, ""),
		events.E(events.ServiceType, "clock"),
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish("source", stream)
		<-sink
	}
}

// --- Translation hot path: allocation/throughput benchmarks ---
//
// These three benchmarks (plus their Parallel variants) guard the
// per-message cost of the parser→bus→composer pipeline. PERF.md records
// the pre-refactor baseline; the alloc-budget assertions in perf_test.go
// turn regressions into tier-1 failures.

// benchStream is a representative request stream (the Figure 4 step ①
// shape).
func benchStream() events.Stream {
	return events.NewStream(
		events.E(events.NetType, "SLP"),
		events.E(events.NetMulticast, ""),
		events.E(events.NetSourceAddr, "10.0.0.1:427"),
		events.E(events.ReqID, "slp-10.0.0.1:427-42"),
		events.E(events.ServiceRequest, ""),
		events.E(events.ServiceType, "clock"),
	)
}

// BenchmarkBusPublishFanout measures one Publish delivered to four
// subscribed units (none of them the source).
func BenchmarkBusPublishFanout(b *testing.B) {
	bus := events.NewBus()
	defer bus.Close()
	for _, name := range []string{"slp-unit", "upnp-unit", "jini-unit", "bt-unit"} {
		bus.Subscribe(name, events.ListenerFunc(func(events.Envelope) {}))
	}
	stream := benchStream()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Publish("monitor", stream)
	}
}

// BenchmarkBusPublishFanoutParallel is the same fan-out under concurrent
// publishers — the thousands-of-exchanges gateway scenario.
func BenchmarkBusPublishFanoutParallel(b *testing.B) {
	bus := events.NewBus()
	defer bus.Close()
	for _, name := range []string{"slp-unit", "upnp-unit", "jini-unit", "bt-unit"} {
		bus.Subscribe(name, events.ListenerFunc(func(events.Envelope) {}))
	}
	stream := benchStream()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			bus.Publish("monitor", stream)
		}
	})
}

// benchView builds a view with many kinds so Find cost is dominated by
// lookup strategy, not record volume of the asked kind.
func benchView(kinds, perKind int) (*core.ServiceView, time.Time) {
	view := core.NewServiceView()
	now := time.Now()
	exp := now.Add(time.Hour)
	for k := 0; k < kinds; k++ {
		for i := 0; i < perKind; i++ {
			view.Put(core.ServiceRecord{
				Origin:  core.SDPUPnP,
				Kind:    "kind-" + strconv.Itoa(k),
				URL:     "soap://10.0.0.2:" + strconv.Itoa(4000+k) + "/" + strconv.Itoa(i),
				Attrs:   map[string]string{"friendlyName": "Svc"},
				Expires: exp,
			})
		}
	}
	return view, now
}

// BenchmarkViewFindHot measures the cached-answer lookup of Figure 9b: one
// live record of the asked kind among 1024 records of other kinds.
func BenchmarkViewFindHot(b *testing.B) {
	view, now := benchView(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(view.Find("kind-512", now)) != 1 {
			b.Fatal("lookup missed")
		}
	}
}

// BenchmarkViewFindHotParallel runs the hot lookup from concurrent
// requesters asking for different kinds.
func BenchmarkViewFindHotParallel(b *testing.B) {
	view, now := benchView(1024, 1)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			kind := "kind-" + strconv.Itoa(i%1024)
			i++
			if len(view.Find(kind, now)) != 1 {
				// Fatal must not run off the benchmark goroutine.
				b.Error("lookup missed")
				return
			}
		}
	})
}

// --- query plane (PR 8): serving, answer cache, predicate pushdown ---

// benchQueryView fills a view with nRecs records of one kind; every
// 64th record carries the attribute the selective predicate matches.
func benchQueryView(nRecs int) (*core.ServiceView, time.Time) {
	view := core.NewServiceView()
	now := time.Now()
	exp := now.Add(time.Hour)
	for i := 0; i < nRecs; i++ {
		color := "no"
		if i%64 == 0 {
			color = "yes"
		}
		view.Put(core.ServiceRecord{
			Origin:  core.SDPSLP,
			Kind:    "printer",
			URL:     "service:printer://10.0.0.1/" + strconv.Itoa(i),
			Attrs:   map[string]string{"color": color, "ppm": strconv.Itoa(i % 40)},
			Expires: exp,
		})
	}
	return view, now
}

// BenchmarkQueryServe is the query plane end-to-end: a keep-alive HTTP
// client on the simulated LAN issuing cached find-by-kind requests.
// ns/op is the full request latency a campus dashboard sees.
func BenchmarkQueryServe(b *testing.B) {
	net := indiss.NewLAN()
	defer net.Close()
	gw := net.MustAddHost("gw", "10.0.0.9")
	view, _ := benchQueryView(256)
	srv, err := query.New(gw, view, query.Config{ListenPort: -1, GatewayID: "gw"})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	client := net.MustAddHost("client", "10.0.0.10")
	st, err := client.DialTCP(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	st.SetReadTimeout(10 * time.Second)
	req := []byte("GET /v1/services?kind=printer&pred=(color%3Dyes) HTTP/1.1\r\nHost: gw\r\n\r\n")
	buf := make([]byte, 64<<10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Write(req); err != nil {
			b.Fatal(err)
		}
		if err := benchReadResponse(st, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// benchReadResponse consumes one Content-Length-framed response.
func benchReadResponse(st netapi.Stream, buf []byte) error {
	total := 0
	for {
		n, err := st.Read(buf[total:])
		if err != nil {
			return err
		}
		total += n
		head := buf[:total]
		i := indexCRLFCRLF(head)
		if i < 0 {
			continue
		}
		if total >= i+4+benchContentLength(head[:i]) {
			return nil
		}
	}
}

func indexCRLFCRLF(b []byte) int {
	for i := 0; i+3 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' && b[i+2] == '\r' && b[i+3] == '\n' {
			return i
		}
	}
	return -1
}

func benchContentLength(head []byte) int {
	const key = "Content-Length: "
	s := string(head)
	i := 0
	for {
		j := i
		for j < len(s) && s[j] != '\r' {
			j++
		}
		line := s[i:j]
		if len(line) > len(key) && line[:len(key)] == key {
			n, _ := strconv.Atoi(line[len(key):])
			return n
		}
		if j+2 >= len(s) {
			return 0
		}
		i = j + 2
	}
}

// BenchmarkQueryCachedAnswer is the engine alone: one cached
// find-by-kind answer appended to a reused buffer — the wire-image
// fast path under the end-to-end number above.
func BenchmarkQueryCachedAnswer(b *testing.B) {
	view, now := benchQueryView(256)
	e := query.NewEngine(view, "gw")
	buf := make([]byte, 0, 64<<10)
	var err error
	if buf, _, err = e.AppendAnswer(buf[:0], "printer", "(color=yes)", now); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, err = e.AppendAnswer(buf[:0], "printer", "(color=yes)", now)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAnswerUnderChurn is BenchmarkQueryCachedAnswer with a
// view that never stands still: before every lookup a record of an
// unrelated kind is Put. hits/op reports the share of lookups the cache
// still served; churn on one kind must not flush another kind's answer.
func BenchmarkQueryAnswerUnderChurn(b *testing.B) {
	view, now := benchQueryView(256)
	e := query.NewEngine(view, "gw")
	buf := make([]byte, 0, 64<<10)
	churn := core.ServiceRecord{Origin: core.SDPDNSSD, Kind: "churn0", Expires: now.Add(time.Hour)}
	urls := make([]string, 64)
	for i := range urls {
		urls[i] = "dnssd://10.0.1.20:" + strconv.Itoa(10000+i)
	}
	var err error
	if buf, _, err = e.AppendAnswer(buf[:0], "printer", "(color=yes)", now); err != nil {
		b.Fatal(err)
	}
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn.URL = urls[i%len(urls)]
		view.Put(churn)
		var hit bool
		buf, hit, err = e.AppendAnswer(buf[:0], "printer", "(color=yes)", now)
		if err != nil {
			b.Fatal(err)
		}
		if hit {
			hits++
		}
	}
	b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
}

// BenchmarkQueryPredicatePushdown evaluates a selective predicate
// inside the shard scan: rejected records are never copied. Compare
// with BenchmarkQueryPredicateCopyFilter, the same query phrased the
// pre-PR-8 way — PERF.md tabulates the pair.
func BenchmarkQueryPredicatePushdown(b *testing.B) {
	view, now := benchQueryView(4096)
	pred := slp.MustParsePredicate("(color=yes)")
	keep := func(r *core.ServiceRecord) bool { return pred.EvalMap(r.Attrs) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(view.FindWhere("printer", now, keep)) != 4096/64 {
			b.Fatal("pushdown miscounted")
		}
	}
}

// BenchmarkQueryPredicateCopyFilter is the baseline the pushdown
// replaces: copy every record of the kind out of the view, then filter.
func BenchmarkQueryPredicateCopyFilter(b *testing.B) {
	view, now := benchQueryView(4096)
	pred := slp.MustParsePredicate("(color=yes)")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all := view.Find("printer", now)
		kept := all[:0]
		for j := range all {
			if pred.EvalMap(all[j].Attrs) {
				kept = append(kept, all[j])
			}
		}
		if len(kept) != 4096/64 {
			b.Fatal("filter miscounted")
		}
	}
}

// benchHTTPXMessages returns the M-SEARCH request / 200 OK response pair
// of an SSDP exchange, the dominant httpx workload.
func benchHTTPXMessages() (*httpx.Request, *httpx.Response) {
	req := &httpx.Request{
		Method: "M-SEARCH",
		Target: "*",
		Header: httpx.NewHeader(
			"HOST", "239.255.255.250:1900",
			"MAN", `"ssdp:discover"`,
			"MX", "0",
			"ST", "urn:schemas-upnp-org:device:clock:1",
		),
	}
	resp := &httpx.Response{
		StatusCode: 200,
		Header: httpx.NewHeader(
			"CACHE-CONTROL", "max-age=1800",
			"ST", "urn:schemas-upnp-org:device:clock:1",
			"USN", "uuid:clock::urn:schemas-upnp-org:device:clock:1",
			"LOCATION", "http://10.0.0.2:4004/description.xml",
			"SERVER", "simnet/1.0 UPnP/1.0 indiss/1.0",
		),
	}
	return req, resp
}

// BenchmarkHTTPXRoundTrip measures marshal+parse of the request/response
// pair — the wire cost of one bridged SSDP exchange.
func BenchmarkHTTPXRoundTrip(b *testing.B) {
	req, resp := benchHTTPXMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := httpx.ParseRequest(req.Marshal()); err != nil {
			b.Fatal(err)
		}
		if _, err := httpx.ParseResponse(resp.Marshal()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPXRoundTripParallel is the same codec work under concurrent
// exchanges.
func BenchmarkHTTPXRoundTripParallel(b *testing.B) {
	req, resp := benchHTTPXMessages()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := httpx.ParseRequest(req.Marshal()); err != nil {
				// Fatal must not run off the benchmark goroutine.
				b.Error(err)
				return
			}
			if _, err := httpx.ParseResponse(resp.Marshal()); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- Federation: the multi-segment scale-out ---

// benchCampusChain builds an n-segment campus with one federation
// endpoint (view only, no full INDISS stack) per segment, chain-peered,
// and returns the views origin-first.
func benchCampusChain(b *testing.B, n int) []*core.ServiceView {
	views, _ := benchCampusChainSync(b, n, time.Second)
	return views
}

func benchCampusChainSync(b *testing.B, n int, sync time.Duration) ([]*core.ServiceView, []*federation.Endpoint) {
	b.Helper()
	net := indiss.NewCampus(n)
	b.Cleanup(net.Close)
	views := make([]*core.ServiceView, n)
	endpoints := make([]*federation.Endpoint, n)
	for i := 0; i < n; i++ {
		views[i] = core.NewServiceView()
		cfg := federation.Config{
			GatewayID:           "gw" + strconv.Itoa(i+1),
			AntiEntropyInterval: sync,
			// A chain of n gateways is n-1 federation hops end to end;
			// the default cap (8) would truncate the longer fleets.
			MaxHops: n,
		}
		if i > 0 {
			cfg.Peers = []simnet.Addr{{IP: benchGWIP(i), Port: federation.DefaultPort}}
		}
		ep, err := federation.New(
			net.MustAddHostOn("gw"+strconv.Itoa(i+1), benchGWIP(i+1), indiss.CampusSegment(i+1)),
			views[i], cfg)
		if err != nil {
			b.Fatal(err)
		}
		endpoints[i] = ep
	}
	b.Cleanup(func() {
		for _, ep := range endpoints {
			ep.Close()
		}
	})

	// Warm the fabric before any timer starts: push one canary through
	// the whole chain and withdraw it again. This forces every session
	// to dial, handshake, and finish its sync-on-connect exchange, so
	// the benchmarks measure steady-state propagation, not the cold
	// start — at -benchtime=200x an unwarmed chain's setup amortizes
	// into a visible per-op tax on the µs-scale metrics.
	canary := core.ServiceRecord{
		Origin:  core.SDPUPnP,
		Kind:    "bench-warm",
		URL:     "bench://warm",
		Attrs:   map[string]string{},
		Expires: time.Now().Add(time.Hour),
	}
	views[0].Put(canary)
	warmWait(b, func() bool { return views[n-1].Len() == 1 })
	views[0].Remove(canary.Origin, canary.URL)
	warmWait(b, func() bool { return views[n-1].Len() == 0 })
	return views, endpoints
}

func warmWait(b *testing.B, done func() bool) {
	b.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !done() {
		if time.Now().After(deadline) {
			b.Fatal("federation chain never warmed up")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func benchGWIP(i int) string { return "10.0." + strconv.Itoa(i) + ".9" }

// BenchmarkFederationConvergence measures how long one new record takes
// to cross a chain of federated gateways — per-record propagation
// latency vs. gateway count (ns/op ≈ end-to-end convergence time).
func BenchmarkFederationConvergence(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b.Run("gateways="+strconv.Itoa(n), func(b *testing.B) {
			views := benchCampusChain(b, n)
			last := views[n-1]
			batches, cancel := last.SubscribeDeltaBatches(4096)
			b.Cleanup(cancel)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				url := "bench://rec-" + strconv.Itoa(i)
				views[0].Put(core.ServiceRecord{
					Origin:  core.SDPUPnP,
					Kind:    "bench",
					URL:     url,
					Attrs:   map[string]string{},
					Expires: time.Now().Add(time.Hour),
				})
			wait:
				for batch := range batches {
					for _, d := range batch {
						if d.Op == core.DeltaPut && d.Record.URL == url {
							break wait
						}
					}
				}
			}
		})
	}
}

// BenchmarkFederationDeltaThroughput pushes b.N records through the
// federation as fast as the origin can produce them and waits for the
// far gateway to hold them all — pipeline throughput vs. gateway count.
func BenchmarkFederationDeltaThroughput(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		b.Run("gateways="+strconv.Itoa(n), func(b *testing.B) {
			views := benchCampusChain(b, n)
			last := views[n-1]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				views[0].Put(core.ServiceRecord{
					Origin:  core.SDPUPnP,
					Kind:    "bench",
					URL:     "bench://rec-" + strconv.Itoa(i),
					Attrs:   map[string]string{},
					Expires: time.Now().Add(time.Hour),
				})
			}
			deadline := time.Now().Add(time.Minute)
			for last.Len() < b.N {
				if time.Now().After(deadline) {
					b.Fatalf("far gateway converged to %d/%d records", last.Len(), b.N)
				}
				time.Sleep(100 * time.Microsecond)
			}
		})
	}
}

// BenchmarkFederationBackgroundBytes measures the steady-state cost of
// keeping a converged federation converged: total wire bytes per
// anti-entropy round across the whole fleet, with 100 records fully
// propagated and nothing changing. Under digest anti-entropy this is a
// per-link constant (one digest each way), independent of view size,
// where re-sending the view every round would scale linearly in records.
func BenchmarkFederationBackgroundBytes(b *testing.B) {
	const records = 100
	for _, n := range []int{2, 8, 32} {
		b.Run("gateways="+strconv.Itoa(n), func(b *testing.B) {
			const sync = 50 * time.Millisecond
			views, endpoints := benchCampusChainSync(b, n, sync)
			for i := 0; i < records; i++ {
				views[0].Put(core.ServiceRecord{
					Origin:  core.SDPUPnP,
					Kind:    "bench",
					URL:     "bench://rec-" + strconv.Itoa(i),
					Attrs:   map[string]string{},
					Expires: time.Now().Add(time.Hour),
				})
			}
			deadline := time.Now().Add(30 * time.Second)
			for views[n-1].Len() < records {
				if time.Now().After(deadline) {
					b.Fatalf("fleet converged to %d/%d records", views[n-1].Len(), records)
				}
				time.Sleep(time.Millisecond)
			}
			// Let the digest memos settle before metering.
			time.Sleep(4 * sync)
			total := func() (sum uint64) {
				for _, ep := range endpoints {
					sum += ep.Stats().BytesSent
				}
				return
			}
			start := total()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				time.Sleep(sync) // one anti-entropy round elapses fleet-wide
			}
			b.StopTimer()
			b.ReportMetric(float64(total()-start)/float64(b.N), "bytes/round")
			b.ReportMetric(float64(total()-start)/float64(b.N)/float64(n), "bytes/round/gw")
		})
	}
}

// BenchmarkFederationCrossSegmentDiscovery is the headline number: an
// unmodified SLP client on segment 1 discovering a UPnP clock device on
// segment 3 through the full federated stack (three gateways, chain
// peering, warm views — the Figure 9b best case, now across two routed
// hops).
func BenchmarkFederationCrossSegmentDiscovery(b *testing.B) {
	net := indiss.NewCampus(3)
	defer net.Close()
	clientHost := net.MustAddHostOn("client", "10.0.1.1", indiss.CampusSegment(1))
	clockHost := net.MustAddHostOn("clock", "10.0.3.2", indiss.CampusSegment(3))
	var systems []*indiss.System
	defer func() {
		for _, s := range systems {
			s.Close()
		}
	}()
	for i := 1; i <= 3; i++ {
		cfg := indiss.Config{
			Role:           indiss.RoleGateway,
			GatewayID:      "gw" + strconv.Itoa(i),
			SDPs:           []indiss.SDP{indiss.SLP, indiss.UPnP},
			FederationPort: indiss.FederationDefaultPort,
		}
		if i < 3 {
			cfg.Peers = []string{benchGWIP(i+1) + ":" + strconv.Itoa(indiss.FederationDefaultPort)}
		}
		sys, err := indiss.Deploy(
			net.MustAddHostOn("gw"+strconv.Itoa(i), benchGWIP(i), indiss.CampusSegment(i)), cfg)
		if err != nil {
			b.Fatal(err)
		}
		systems = append(systems, sys)
	}
	dev, err := upnp.NewRootDevice(clockHost, upnp.DeviceConfig{
		Kind:     "clock",
		Services: []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer dev.Close()
	deadline := time.Now().Add(10 * time.Second)
	for len(systems[0].View().Find("clock", time.Now())) == 0 {
		if time.Now().After(deadline) {
			b.Fatal("federation never converged")
		}
		time.Sleep(10 * time.Millisecond)
	}

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ua.FindFirst("service:clock", "", 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// --- transport backends: simulated vs real loopback ---

// benchUDPEcho measures one request/response round trip between two UDP
// conns of the given stack — the raw transport floor under every
// discovery exchange. The same body runs on both fabrics, so the pair of
// benchmarks is a direct simnet-vs-realnet comparison (PERF.md records
// the medians as the live-deployment baseline).
func benchUDPEcho(b *testing.B, stack netapi.Stack) {
	a, err := stack.ListenUDP(0)
	if err != nil {
		b.Skipf("bind: %v", err)
	}
	defer a.Close()
	c, err := stack.ListenUDP(0)
	if err != nil {
		b.Skipf("bind: %v", err)
	}
	defer c.Close()
	go func() {
		for {
			dg, err := c.Recv(0)
			if err != nil {
				return
			}
			if err := c.WriteTo(dg.Payload, dg.Src); err != nil {
				return
			}
		}
	}()
	payload := []byte("indiss-loopback-rtt-probe")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.WriteTo(payload, c.LocalAddr()); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Recv(5 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetLoopbackUDPRoundTrip is the echo floor on the simulated
// fabric with the paper-testbed loopback latency model.
func BenchmarkSimnetLoopbackUDPRoundTrip(b *testing.B) {
	net := indiss.NewLAN()
	defer net.Close()
	benchUDPEcho(b, net.MustAddHost("bench", "10.0.0.1"))
}

// BenchmarkRealnetLoopbackUDPRoundTrip is the echo floor on real kernel
// sockets over 127.0.0.1.
func BenchmarkRealnetLoopbackUDPRoundTrip(b *testing.B) {
	stack, err := realnet.Loopback("bench")
	if err != nil {
		b.Skipf("no loopback interface: %v", err)
	}
	benchUDPEcho(b, stack)
}

// benchTCPEcho measures one request/response round trip over an
// established stream of the given stack.
func benchTCPEcho(b *testing.B, stack netapi.Stack) {
	l, err := stack.ListenTCP(0)
	if err != nil {
		b.Skipf("listen: %v", err)
	}
	defer l.Close()
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 256)
		for {
			n, err := s.Read(buf)
			if err != nil {
				return
			}
			if _, err := s.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	s, err := stack.DialTCP(l.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.SetReadTimeout(5 * time.Second)
	payload := []byte("indiss-loopback-rtt-probe")
	buf := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Write(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Read(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimnetLoopbackTCPRoundTrip is the stream echo floor on the
// simulated fabric.
func BenchmarkSimnetLoopbackTCPRoundTrip(b *testing.B) {
	net := indiss.NewLAN()
	defer net.Close()
	benchTCPEcho(b, net.MustAddHost("bench", "10.0.0.1"))
}

// BenchmarkRealnetLoopbackTCPRoundTrip is the stream echo floor on real
// kernel sockets over 127.0.0.1.
func BenchmarkRealnetLoopbackTCPRoundTrip(b *testing.B) {
	stack, err := realnet.Loopback("bench")
	if err != nil {
		b.Skipf("no loopback interface: %v", err)
	}
	benchTCPEcho(b, stack)
}

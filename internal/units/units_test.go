package units

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/events"
	"indiss/internal/jini"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// registry builds the production unit registry used by tests.
func registry() *core.Registry {
	r := core.NewRegistry()
	r.Register(core.SDPSLP, func() core.Unit { return NewSLPUnit(SLPUnitConfig{}) })
	r.Register(core.SDPUPnP, func() core.Unit { return NewUPnPUnit(UPnPUnitConfig{}) })
	r.Register(core.SDPJini, func() core.Unit { return NewJiniUnit(JiniUnitConfig{}) })
	r.Register(core.SDPDNSSD, func() core.Unit { return NewDNSSDUnit() })
	return r
}

func newNet(t *testing.T) *simnet.Network {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	return n
}

// clockDevice starts the paper's UPnP clock device (§2.4) on host.
func clockDevice(t *testing.T, host *simnet.Host) *upnp.RootDevice {
	t.Helper()
	dev, err := upnp.NewRootDevice(host, upnp.DeviceConfig{
		Kind:         "clock",
		FriendlyName: "CyberGarage Clock Device",
		Manufacturer: "CyberGarage",
		ModelName:    "Clock",
		Services:     []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		t.Fatalf("clock device: %v", err)
	}
	t.Cleanup(dev.Close)
	return dev
}

func indissOn(t *testing.T, host *simnet.Host, role core.Role, sdps ...core.SDP) *core.System {
	t.Helper()
	sys, err := core.NewSystem(host, registry(), core.Config{Role: role, Units: sdps})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

// TestFigure4SLPClientFindsUPnPService reproduces the paper's running
// example end to end: an SLP client discovers a UPnP clock service
// through INDISS deployed on the service host, receiving the
// "service:clock:soap://…/control" reply of Figure 4.
func TestFigure4SLPClientFindsUPnPService(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	clockDevice(t, serviceHost)
	indissOn(t, serviceHost, core.RoleServiceSide, core.SDPSLP, core.SDPUPnP)

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", 10*time.Second)
	if err != nil {
		t.Fatalf("FindFirst: %v", err)
	}
	if len(urls) == 0 {
		t.Fatal("no URLs")
	}
	want := "service:clock:soap://10.0.0.2:4004/service/timer/control"
	if urls[0].URL != want {
		t.Errorf("URL = %q, want %q", urls[0].URL, want)
	}
}

// TestFigure4EventSequence taps the bus and asserts the SLP request
// translates to the event stream of Figure 4 step ①.
func TestFigure4EventSequence(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	clockDevice(t, serviceHost)
	// NoCache: once the device's alive has reached the view, the SLP
	// unit would answer from it and publish no request stream at all.
	sys, err := core.NewSystem(serviceHost, registry(), core.Config{
		Role: core.RoleServiceSide, Units: []core.SDP{core.SDPSLP, core.SDPUPnP}, NoCache: true,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	var mu sync.Mutex
	var captured []events.Stream
	sys.Bus().Subscribe("test-tap", events.ListenerFunc(func(env events.Envelope) {
		if env.Source == "slp-unit" {
			mu.Lock()
			captured = append(captured, env.Stream.Clone())
			mu.Unlock()
		}
	}))

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	if _, err := ua.FindFirst("service:clock", "", 10*time.Second); err != nil {
		t.Fatalf("FindFirst: %v", err)
	}

	// The tap runs on its own bus worker, so the reply can reach the
	// client before the tap has the request stream.
	deadline := time.Now().Add(5 * time.Second)
	mu.Lock()
	defer mu.Unlock()
	for len(captured) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no stream captured from slp-unit")
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
	}
	s := captured[0]
	if err := s.Validate(); err != nil {
		t.Fatalf("stream invalid: %v", err)
	}
	// "The event stream always starts with a SDP_C_START event and ends
	// with a SDP_C_STOP event" (§2.4).
	for _, typ := range []events.Type{
		events.NetMulticast, events.NetSourceAddr, events.ServiceRequest,
		events.ReqVersion, events.ReqScope, events.ReqID, events.ServiceType,
	} {
		if !s.Has(typ) {
			t.Errorf("stream missing %s: %s", typ, s)
		}
	}
	if got := s.FirstData(events.ServiceType); got != "clock" {
		t.Errorf("service type = %q", got)
	}
}

// TestUPnPClientFindsSLPService is the reverse direction (Figure 8
// right): a UPnP control point discovers an SLP service, dereferencing a
// description document the bridge synthesizes.
func TestUPnPClientFindsSLPService(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	sa, err := slp.NewServiceAgent(serviceHost, slp.AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sa.Close)
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005",
		time.Hour, slp.AttrList{{Name: "friendlyName", Values: []string{"SLP Clock"}}}); err != nil {
		t.Fatal(err)
	}

	indissOn(t, serviceHost, core.RoleServiceSide, core.SDPSLP, core.SDPUPnP)

	cp := upnp.NewControlPoint(clientHost, upnp.ControlPointConfig{})
	dev, err := cp.Discover(upnp.TypeURN("clock", 1), 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if dev.Desc.ModelURL != "service:clock://10.0.0.2:4005" {
		t.Errorf("ModelURL = %q (should carry the SLP endpoint)", dev.Desc.ModelURL)
	}
	if !strings.Contains(dev.Response.Server, "indiss") {
		t.Errorf("Server = %q (bridge should identify itself)", dev.Response.Server)
	}
	if len(dev.Desc.Services) != 1 || dev.Desc.Services[0].ControlURL != "service:clock://10.0.0.2:4005" {
		t.Errorf("services = %+v", dev.Desc.Services)
	}
}

// TestGatewayPlacement runs INDISS on a third host: "INDISS may be
// deployed on a dedicated networked node" (§4.2).
func TestGatewayPlacement(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")
	gatewayHost := n.MustAddHost("gateway", "10.0.0.9")

	clockDevice(t, serviceHost)
	indissOn(t, gatewayHost, core.RoleGateway, core.SDPSLP, core.SDPUPnP)

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", 10*time.Second)
	if err != nil {
		t.Fatalf("FindFirst via gateway: %v", err)
	}
	if !strings.HasPrefix(urls[0].URL, "service:clock:soap://10.0.0.2:4004") {
		t.Errorf("URL = %q", urls[0].URL)
	}
}

// TestClientSidePlacement deploys INDISS with the client (Figure 9a).
func TestClientSidePlacement(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	clockDevice(t, serviceHost)
	indissOn(t, clientHost, core.RoleClientSide, core.SDPSLP, core.SDPUPnP)

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", 10*time.Second)
	if err != nil {
		t.Fatalf("FindFirst client-side: %v", err)
	}
	if !strings.HasPrefix(urls[0].URL, "service:clock:soap://") {
		t.Errorf("URL = %q", urls[0].URL)
	}
}

// TestViewCacheAnswersFromKnowledge pre-warms the view via passive
// advertisements, then checks a search is answered without fresh UPnP
// traffic — the paper's Figure 9b best case.
func TestViewCacheAnswersFromKnowledge(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	sys := indissOn(t, clientHost, core.RoleClientSide, core.SDPSLP, core.SDPUPnP)
	// Device boots after INDISS: its alive NOTIFYs warm the view.
	clockDevice(t, serviceHost)

	deadline := time.Now().Add(3 * time.Second)
	for len(sys.View().Find("clock", time.Now())) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("view never warmed from NOTIFYs")
		}
		time.Sleep(2 * time.Millisecond)
	}

	before := n.Metrics().Port(ssdp.Port).Packets
	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", 2*time.Second)
	if err != nil {
		t.Fatalf("FindFirst: %v", err)
	}
	if !strings.HasPrefix(urls[0].URL, "service:clock:soap://") {
		t.Errorf("URL = %q", urls[0].URL)
	}
	after := n.Metrics().Port(ssdp.Port).Packets
	if after != before {
		t.Errorf("cache hit generated %d fresh SSDP packets", after-before)
	}
}

// TestDiscardSemantics feeds the UPnP composer two streams — one with and
// one without SLP-specific events — and verifies the composed M-SEARCH is
// identical: "specific UPnP events … are simply discarded from the SLP
// composer, as they are unknown" (§2.2), and symmetrically here.
func TestDiscardSemantics(t *testing.T) {
	n := newNet(t)
	host := n.MustAddHost("indiss", "10.0.0.9")
	watcher := n.MustAddHost("watcher", "10.0.0.3")

	// Raw observer of composed M-SEARCHes.
	wconn, err := watcher.ListenUDP(ssdp.Port)
	if err != nil {
		t.Fatal(err)
	}
	if err := wconn.JoinGroup(ssdp.MulticastGroup); err != nil {
		t.Fatal(err)
	}

	sys := indissOn(t, host, core.RoleGateway, core.SDPSLP, core.SDPUPnP)
	u, ok := sys.Unit(core.SDPUPnP)
	if !ok {
		t.Fatal("no UPnP unit")
	}

	src := simnet.Addr{IP: "10.0.0.1", Port: 40000}
	plain := requestStream(core.SDPSLP, "req-1", src, true, "clock")
	enriched := requestStream(core.SDPSLP, "req-2", src, true, "clock",
		events.E(events.ReqVersion, "2"),
		events.E(events.ReqScope, "DEFAULT"),
		events.E(events.ReqPredicate, "(location=hall)"),
		events.E(events.SLPSPI, "spi"),
	)

	capture := func(s events.Stream) []byte {
		t.Helper()
		u.OnEvents(events.Envelope{Source: "slp-unit", Stream: s})
		dg, err := wconn.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("no M-SEARCH composed: %v", err)
		}
		return dg.Payload
	}

	first := capture(plain.S)
	second := capture(enriched.S)
	if string(first) != string(second) {
		t.Errorf("SLP-specific events changed the composed message:\n%q\nvs\n%q", first, second)
	}
	req, err := ssdp.Parse(first)
	if err != nil {
		t.Fatal(err)
	}
	search, ok := req.(*ssdp.SearchRequest)
	if !ok || search.ST != upnp.TypeURN("clock", 1) {
		t.Errorf("composed = %+v", req)
	}
}

// TestJiniClientFindsSLPService: the bridge registrar serves foreign
// services to native Jini clients.
func TestJiniClientFindsSLPService(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")
	gatewayHost := n.MustAddHost("gateway", "10.0.0.9")

	sa, err := slp.NewServiceAgent(serviceHost, slp.AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sa.Close)
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	indissOn(t, gatewayHost, core.RoleGateway, core.SDPSLP, core.SDPJini)

	c := jini.NewClient(clientHost, jini.ClientConfig{})
	loc, err := c.DiscoverLookup(2 * time.Second)
	if err != nil {
		t.Fatalf("DiscoverLookup: %v", err)
	}
	// The browse published at discovery time populates the view the
	// registrar serves asynchronously; poll the lookup.
	deadline := time.Now().Add(3 * time.Second)
	for {
		items, err := c.Lookup(loc, jini.ServiceTemplate{Type: "org.indiss.clock.Service"}, time.Second)
		if err == nil && len(items) == 1 {
			if items[0].Endpoint != "service:clock://10.0.0.2:4005" {
				t.Errorf("endpoint = %q", items[0].Endpoint)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("lookup never found the bridged service (err=%v items=%v)", err, items)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSLPClientFindsJiniService: the reverse — a native Jini service
// reached from SLP through the gateway.
func TestSLPClientFindsJiniService(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")
	lookupHost := n.MustAddHost("lookup", "10.0.0.5")
	gatewayHost := n.MustAddHost("gateway", "10.0.0.9")

	ls, err := jini.NewLookupService(lookupHost, jini.LookupConfig{AnnounceInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	svcClient := jini.NewClient(serviceHost, jini.ClientConfig{})
	if _, err := svcClient.Register(ls.Locator(), jini.ServiceItem{
		Type:     "net.jini.clock.Clock",
		Endpoint: "10.0.0.2:9000",
		Attrs:    []jini.Entry{{Name: "friendlyName", Value: "Jini Clock"}},
	}, time.Second); err != nil {
		t.Fatal(err)
	}

	indissOn(t, gatewayHost, core.RoleGateway, core.SDPSLP, core.SDPJini)

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", 10*time.Second)
	if err != nil {
		t.Fatalf("FindFirst: %v", err)
	}
	if urls[0].URL != "service:clock:10.0.0.2:9000" {
		t.Errorf("URL = %q", urls[0].URL)
	}
}

// TestReadvertisementUnderThreshold reproduces Figure 6 bottom: on a
// quiet network, service-side INDISS actively re-advertises local
// services in the other SDP, reaching a passively listening client.
func TestReadvertisementUnderThreshold(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	// Passive SLP listener: joins the group and waits (the client of
	// Figure 6's passive model; it never transmits).
	listener, err := clientHost.ListenUDP(slp.Port)
	if err != nil {
		t.Fatal(err)
	}
	if err := listener.JoinGroup(slp.MulticastGroup); err != nil {
		t.Fatal(err)
	}

	// INDISS first, so the device's boot announcement warms the view.
	sys, err := core.NewSystem(serviceHost, registry(), core.Config{
		Role:           core.RoleServiceSide,
		Units:          []core.SDP{core.SDPSLP, core.SDPUPnP},
		ThresholdBps:   5_000,
		PolicyInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	clockDevice(t, serviceHost)

	deadline := time.Now().Add(5 * time.Second)
	for {
		dg, err := listener.Recv(time.Until(deadline))
		if err != nil {
			t.Fatalf("passive client never heard a translated advert: %v", err)
		}
		msg, err := slp.Parse(dg.Payload)
		if err != nil {
			continue
		}
		adv, ok := msg.(*slp.SAAdvert)
		if !ok {
			continue
		}
		if strings.Contains(adv.Attrs, "service:clock") {
			return // translated advertisement reached the passive client
		}
	}
}

// TestNoTranslationLoop fires a request for a nonexistent service and
// confirms the bridge does not feed back on its own traffic.
func TestNoTranslationLoop(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	gatewayHost := n.MustAddHost("gateway", "10.0.0.9")

	indissOn(t, gatewayHost, core.RoleGateway, core.SDPSLP, core.SDPUPnP)

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	_, _ = ua.FindFirst("service:nosuch", "", 300*time.Millisecond)

	// One SLP request should translate to at most a couple of SSDP
	// packets, and crucially the counts must stabilize (no storm).
	time.Sleep(300 * time.Millisecond)
	mid := n.Metrics().Port(ssdp.Port).Packets
	time.Sleep(500 * time.Millisecond)
	final := n.Metrics().Port(ssdp.Port).Packets
	if final != mid {
		t.Errorf("SSDP packet count still growing after quiesce: %d → %d", mid, final)
	}
	if final > 4 {
		t.Errorf("translation generated %d SSDP packets for one request", final)
	}
}

func TestNamingMappings(t *testing.T) {
	tests := []struct {
		fn   func(string) string
		in   string
		want string
	}{
		{kindFromSLPType, "service:clock", "clock"},
		{kindFromSLPType, "SERVICE:PRINTER:LPR", "printer:lpr"},
		{kindFromSLPType, "noprefix", "noprefix"},
		{slpTypeFromKind, "clock", "service:clock"},
		{slpTypeFromKind, "", ""},
		{kindFromUPnPTarget, "urn:schemas-upnp-org:device:clock:1", "clock"},
		{kindFromUPnPTarget, "upnp:clock", "clock"},
		{kindFromUPnPTarget, "ssdp:all", ""},
		{kindFromUPnPTarget, "upnp:rootdevice", ""},
		{kindFromUPnPTarget, "uuid:x", ""},
		{upnpTargetFromKind, "clock", "urn:schemas-upnp-org:device:clock:1"},
		{upnpTargetFromKind, "printer:lpr", "urn:schemas-upnp-org:device:printer:1"},
		{upnpTargetFromKind, "", "upnp:rootdevice"},
		{kindFromJiniType, "net.jini.clock.Clock", "clock"},
		{kindFromJiniType, "org.indiss.clock.Service", "clock"},
		{kindFromJiniType, "Plain", "plain"},
		{jiniTypeFromKind, "clock", "org.indiss.clock.Service"},
		{jiniTypeFromKind, "printer:lpr", "org.indiss.printer.Service"},
		{jiniTypeFromKind, "", ""},
		{kindFromDNSSDType, "_clock._tcp.local.", "clock"},
		{kindFromDNSSDType, "Clock._clock._tcp.local.", ""},
		{kindFromDNSSDType, "_services._dns-sd._udp.local.", ""},
		{dnssdTypeFromKind, "clock", "_clock._tcp.local."},
		{dnssdTypeFromKind, "printer:lpr", "_printer._tcp.local."},
		{dnssdTypeFromKind, "", ""},
	}
	for _, tt := range tests {
		if got := tt.fn(tt.in); got != tt.want {
			t.Errorf("map(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestKindRoundTrips(t *testing.T) {
	for _, kind := range []string{"clock", "printer", "mediaserver"} {
		if got := kindFromSLPType(slpTypeFromKind(kind)); got != kind {
			t.Errorf("SLP round trip %q → %q", kind, got)
		}
		if got := kindFromUPnPTarget(upnpTargetFromKind(kind)); got != kind {
			t.Errorf("UPnP round trip %q → %q", kind, got)
		}
		if got := kindFromJiniType(jiniTypeFromKind(kind)); got != kind {
			t.Errorf("Jini round trip %q → %q", kind, got)
		}
		if got := kindFromDNSSDType(dnssdTypeFromKind(kind)); got != kind {
			t.Errorf("DNS-SD round trip %q → %q", kind, got)
		}
	}
}

func TestUPnPQueryFSMStructure(t *testing.T) {
	m := buildUPnPQueryFSM()
	states := m.States()
	if len(states) < 5 {
		t.Errorf("states = %v", states)
	}
	// The §2.4 path: await → located → need-desc → parsing-xml → complete.
	inst := m.NewInstance()
	steps := events.Stream{
		events.E(events.ServiceType, "clock"),
		events.E(events.DeviceURLDesc, "http://10.0.0.2:4004/description.xml"),
		events.E(events.CStop, ""),
		events.E(events.CParserSwitch, "xml"),
		events.E(events.ResServURL, "soap://10.0.0.2:4004/service/timer/control"),
		events.E(events.CStop, ""),
	}
	for _, ev := range steps {
		if _, err := inst.Feed(ev); err != nil {
			t.Fatalf("Feed(%s): %v", ev, err)
		}
	}
	if !inst.Accepting() {
		t.Errorf("final state = %s, want accepting", inst.Current())
	}
	if inst.Var("location") != "http://10.0.0.2:4004/description.xml" {
		t.Errorf("location var = %q", inst.Var("location"))
	}
	if inst.Var("url") != "soap://10.0.0.2:4004/service/timer/control" {
		t.Errorf("url var = %q", inst.Var("url"))
	}
}

func TestStreamHelpers(t *testing.T) {
	src := simnet.Addr{IP: "10.0.0.1", Port: 40000}
	req := requestStream(core.SDPSLP, "id-1", src, true, "clock").S
	if err := req.Validate(); err != nil {
		t.Fatalf("request stream invalid: %v", err)
	}
	if !req.Has(events.NetMulticast) || req.FirstData(events.ReqID) != "id-1" {
		t.Errorf("request stream = %s", req)
	}

	rec := core.ServiceRecord{
		Origin:   core.SDPUPnP,
		Kind:     "clock",
		URL:      "soap://x/control",
		Location: "http://x/d.xml",
		Attrs:    map[string]string{"b": "2", "a": "1"},
		Expires:  time.Now().Add(time.Minute),
	}
	resp := responseStream(core.SDPUPnP, "id-1", rec).S
	if err := resp.Validate(); err != nil {
		t.Fatalf("response stream invalid: %v", err)
	}
	attrs := resp.All(events.ResAttr)
	if len(attrs) != 2 || attrs[0].Data != "a=1" || attrs[1].Data != "b=2" {
		t.Errorf("attrs not deterministic: %v", attrs)
	}

	back := recordFromStream(core.SDPUPnP, resp)
	if back.URL != rec.URL || back.Kind != rec.Kind || back.Location != rec.Location {
		t.Errorf("recordFromStream = %+v", back)
	}
	if back.Attrs["a"] != "1" || back.Attrs["b"] != "2" {
		t.Errorf("attrs = %+v", back.Attrs)
	}

	alive := aliveStream(core.SDPSLP, rec).S
	if err := alive.Validate(); err != nil {
		t.Fatalf("alive stream invalid: %v", err)
	}
	if !alive.Has(events.ServiceAlive) || !alive.Has(events.AdvLocation) {
		t.Errorf("alive stream = %s", alive)
	}

	bye := byeStream(core.SDPSLP, "clock", "u").S
	if err := bye.Validate(); err != nil || !bye.Has(events.ServiceByeBye) {
		t.Errorf("bye stream = %s err=%v", bye, err)
	}
}

func TestPendingFirstResponseWins(t *testing.T) {
	b := newBase("test", core.SDPSLP)
	b.addPending(pending{reqID: "r1", kind: "clock"})
	if _, ok := b.takePending("r1"); !ok {
		t.Fatal("first take failed")
	}
	if _, ok := b.takePending("r1"); ok {
		t.Fatal("second take should fail (first response wins)")
	}
	if _, ok := b.takePending("never"); ok {
		t.Fatal("unknown id taken")
	}
}

// TestPendingTableCapped: a flood of requests nobody answers fills a
// unit's pending table to maxPendings and no further; each request
// beyond it is refused and counted.
func TestPendingTableCapped(t *testing.T) {
	b := newBase("test", core.SDPSLP)
	for i := 0; i <= maxPendings; i++ {
		ok := b.addPending(pending{reqID: "r" + strconv.Itoa(i), kind: "clock"})
		if ok != (i < maxPendings) {
			t.Fatalf("add %d reported %v at %d entries", i, ok, len(b.pendings))
		}
	}
	if got := len(b.pendings); got > maxPendings {
		t.Errorf("pending table holds %d entries, want at most %d", got, maxPendings)
	}
	if b.refused != 1 {
		t.Errorf("refused = %d, want 1", b.refused)
	}
	// A live entry still answers, and a repeat of a pending request
	// replaces its entry rather than being refused.
	if !b.addPending(pending{reqID: "r7", kind: "clock"}) {
		t.Error("re-adding a pending request was refused")
	}
	if _, ok := b.takePending("r7"); !ok {
		t.Error("a pending request of a full table cannot be taken")
	}
}

// BenchmarkAddPendingUnanswered adds and takes one request while 10k
// unanswered ones wait: the cost every bridged request pays during a
// flood of requests no unit can answer.
func BenchmarkAddPendingUnanswered(b *testing.B) {
	u := newBase("bench", core.SDPSLP)
	for i := 0; i < 10000; i++ {
		u.addPending(pending{reqID: "flood-" + strconv.Itoa(i), kind: "clock"})
	}
	ids := make([]string, 1024)
	for i := range ids {
		ids[i] = "req-" + strconv.Itoa(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		u.addPending(pending{reqID: id, kind: "clock"})
		u.takePending(id)
	}
}

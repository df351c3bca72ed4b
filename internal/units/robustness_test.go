package units

import (
	"errors"
	"strings"
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

// TestBridgedDiscoverySurvivesPacketLoss runs the §2.4 scenario under 20%
// loss: the SLP client's convergence retransmissions must eventually get
// a bridged answer.
func TestBridgedDiscoverySurvivesPacketLoss(t *testing.T) {
	n := simnet.New(simnet.Config{LossRate: 0.2, Seed: 7})
	t.Cleanup(n.Close)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	clockDevice(t, serviceHost)
	indissOn(t, serviceHost, core.RoleServiceSide, core.SDPSLP, core.SDPUPnP)

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	deadline := time.Now().Add(10 * time.Second)
	for {
		urls, err := ua.FindServices("service:clock", "")
		if err == nil && len(urls) > 0 {
			if !strings.HasPrefix(urls[0].URL, "service:clock:soap://") {
				t.Errorf("URL = %q", urls[0].URL)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("discovery never succeeded under loss: %v", err)
		}
	}
}

// TestUnitsIgnoreGarbage floods every monitored port with garbage; the
// system must neither crash nor emit any stream.
func TestUnitsIgnoreGarbage(t *testing.T) {
	n := newNet(t)
	noise := n.MustAddHost("noise", "10.0.0.7")
	gw := n.MustAddHost("gateway", "10.0.0.9")

	sys := indissOn(t, gw, core.RoleGateway, core.SDPSLP, core.SDPUPnP, core.SDPJini)
	streams := make(chan events.Envelope, 64)
	sys.Bus().Subscribe("tap", events.ListenerFunc(func(env events.Envelope) {
		streams <- env
	}))

	conn, err := noise.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	payloads := [][]byte{
		nil,
		{0x00},
		{0xff, 0xff, 0xff, 0xff},
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		[]byte("M-SEARCH * HTTP/1.1\r\n\r\n"), // missing MAN/ST
		[]byte{2, 99, 0, 0, 14, 0, 0, 0, 0, 0, 0, 1, 0, 0}, // SLP bad function
		[]byte(strings.Repeat("A", 2000)),
	}
	targets := []simnet.Addr{
		{IP: "239.255.255.253", Port: slp.Port},
		{IP: "239.255.255.250", Port: ssdp.Port},
		{IP: "224.0.1.85", Port: jini.Port},
	}
	for _, dst := range targets {
		for _, p := range payloads {
			if err := conn.WriteTo(p, dst); err != nil {
				t.Fatal(err)
			}
		}
	}
	select {
	case env := <-streams:
		t.Fatalf("garbage produced a stream from %s: %s", env.Source, env.Stream)
	case <-time.After(300 * time.Millisecond):
	}
}

// TestTruncatedDescriptionHandled: the UPnP unit must survive a service
// whose description server returns garbage.
func TestTruncatedDescriptionHandled(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	// A fake "device": answers M-SEARCH with a LOCATION whose server
	// returns truncated XML.
	l, err := serviceHost.ListenTCP(4004)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			s, err := l.Accept()
			if err != nil {
				return
			}
			_, _ = s.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 20\r\n\r\n<root><device><frien"))
			s.Close()
		}
	}()
	srv, err := ssdp.NewServer(serviceHost, ssdp.ServerConfig{}, []ssdp.Advertisement{{
		NT:       upnp.TypeURN("clock", 1),
		USN:      "uuid:bad::" + upnp.TypeURN("clock", 1),
		Location: "http://10.0.0.2:4004/description.xml",
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	indissOn(t, clientHost, core.RoleClientSide, core.SDPSLP, core.SDPUPnP)

	// The bridge cannot complete the translation (no usable service
	// URL), so the client sees silence — not a crash or a junk reply.
	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	if _, err := ua.FindFirst("service:clock", "", 500*time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("err = %v, want clean timeout", err)
	}
}

// TestUPnPReadvertisesForeignService: a passive UPnP listener hears
// NOTIFY alive for an SLP service when the adaptation policy enables
// active mode — the UPnP side of Figure 6's bottom case.
func TestUPnPReadvertisesForeignService(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	sa, err := slp.NewServiceAgent(serviceHost, slp.AgentConfig{
		AnnounceInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sa.Close)
	if err := sa.Register("service:printer", "service:printer://10.0.0.2:515", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	sys, err := core.NewSystem(serviceHost, registry(), core.Config{
		Role:           core.RoleServiceSide,
		Units:          []core.SDP{core.SDPSLP, core.SDPUPnP},
		ThresholdBps:   50_000, // always below threshold → active
		PolicyInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	notifies := make(chan *ssdp.Notify, 16)
	listener, err := ssdp.Listen(clientHost, func(m *ssdp.Notify) {
		notifies <- m
	})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()

	deadline := time.After(5 * time.Second)
	for {
		select {
		case m := <-notifies:
			if m.NTS == ssdp.NTSAlive && strings.Contains(m.NT, "printer") {
				if m.Location == "" {
					t.Error("re-advertised NOTIFY lacks a LOCATION")
				}
				return
			}
		case <-deadline:
			t.Fatal("UPnP listener never heard the translated NOTIFY")
		}
	}
}

// TestUPnPClientFindsJiniService completes the cross matrix: UPnP control
// point to a native Jini service via the gateway.
func TestUPnPClientFindsJiniService(t *testing.T) {
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
		Type:     "net.jini.thermometer.Thermometer",
		Endpoint: "10.0.0.2:7700",
	}, time.Second); err != nil {
		t.Fatal(err)
	}

	indissOn(t, gatewayHost, core.RoleGateway, core.SDPUPnP, core.SDPJini)

	cp := upnp.NewControlPoint(clientHost, upnp.ControlPointConfig{Timeout: 5 * time.Second})
	dev, err := cp.Discover(upnp.TypeURN("thermometer", 1), 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if dev.Desc.ModelURL != "10.0.0.2:7700" {
		t.Errorf("ModelURL = %q", dev.Desc.ModelURL)
	}
}

// TestByeByeWithdrawsBridgedService: a UPnP byebye must remove the
// service from the view so later SLP searches miss.
func TestByeByeWithdrawsBridgedService(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	sys := indissOn(t, clientHost, core.RoleClientSide, core.SDPSLP, core.SDPUPnP)
	dev := clockDevice(t, serviceHost)

	deadline := time.Now().Add(5 * time.Second)
	for len(sys.View().Find("clock", time.Now())) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("view never warmed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	dev.Close() // multicasts ssdp:byebye for every advertisement
	deadline = time.Now().Add(5 * time.Second)
	for len(sys.View().Find("clock", time.Now())) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("byebye did not withdraw the service from the view")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	if _, err := ua.FindFirst("service:clock", "", 300*time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("withdrawn service still discoverable: %v", err)
	}
}

// TestConcurrentBridgedSearches exercises the pending table and the
// units' reply routing under concurrency.
func TestConcurrentBridgedSearches(t *testing.T) {
	n := newNet(t)
	serviceHost := n.MustAddHost("service", "10.0.0.2")
	clockDevice(t, serviceHost)
	indissOn(t, serviceHost, core.RoleServiceSide, core.SDPSLP, core.SDPUPnP)

	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		host := n.MustAddHost("client"+string(rune('a'+i)), "10.0.1."+string(rune('1'+i)))
		go func(h *simnet.Host) {
			ua := slp.NewUserAgent(h, slp.AgentConfig{})
			_, err := ua.FindFirst("service:clock", "", 10*time.Second)
			errs <- err
		}(host)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Errorf("client %d: %v", i, err)
		}
	}
}

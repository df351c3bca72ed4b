package units

import (
	"strings"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/jini"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// This file is the interoperability matrix the paper's architecture
// promises: with one unit per SDP composed around the bus, every client
// of one protocol discovers a "clock" service advertised only in another
// — N×(N−1) directed pairings, 12 with the four units (SLP, UPnP, Jini,
// DNS-SD), each mediated by a gateway-deployed INDISS running all four.

// matrixService deploys a native clock service of one SDP on host and
// returns the substring of the service's endpoint that every foreign
// client's answer must carry.
type matrixService struct {
	name  string
	sdp   core.SDP
	start func(t *testing.T, n *simnet.Network, host *simnet.Host) (endpoint string)
}

// matrixClient performs a native clock discovery from host and returns
// the endpoint-ish string the client obtained.
type matrixClient struct {
	name string
	sdp  core.SDP
	find func(t *testing.T, host *simnet.Host) string
}

func matrixServices() []matrixService {
	return []matrixService{
		{
			name: "SLPService",
			sdp:  core.SDPSLP,
			start: func(t *testing.T, _ *simnet.Network, host *simnet.Host) string {
				sa, err := slp.NewServiceAgent(host, slp.AgentConfig{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sa.Close)
				if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005",
					time.Hour, slp.AttrList{{Name: "friendlyName", Values: []string{"SLP Clock"}}}); err != nil {
					t.Fatal(err)
				}
				return "service:clock://10.0.0.2:4005"
			},
		},
		{
			name: "UPnPService",
			sdp:  core.SDPUPnP,
			start: func(t *testing.T, _ *simnet.Network, host *simnet.Host) string {
				clockDevice(t, host)
				return "soap://10.0.0.2:4004"
			},
		},
		{
			name: "JiniService",
			sdp:  core.SDPJini,
			start: func(t *testing.T, n *simnet.Network, host *simnet.Host) string {
				lookupHost := n.MustAddHost("lookup", "10.0.0.5")
				ls, err := jini.NewLookupService(lookupHost, jini.LookupConfig{
					AnnounceInterval: 50 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ls.Close)
				svcClient := jini.NewClient(host, jini.ClientConfig{})
				if _, err := svcClient.Register(ls.Locator(), jini.ServiceItem{
					Type:     "net.jini.clock.Clock",
					Endpoint: "10.0.0.2:9000",
					Attrs:    []jini.Entry{{Name: "friendlyName", Value: "Jini Clock"}},
				}, time.Second); err != nil {
					t.Fatal(err)
				}
				return "10.0.0.2:9000"
			},
		},
		{
			name: "DNSSDService",
			sdp:  core.SDPDNSSD,
			start: func(t *testing.T, _ *simnet.Network, host *simnet.Host) string {
				r, err := dnssd.NewResponder(host, dnssd.ResponderConfig{})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(r.Close)
				if err := r.Register(dnssd.Registration{
					Instance: "Clock",
					Service:  dnssd.ServiceType("clock"),
					Port:     9000,
					Text:     map[string]string{"friendlyName": "DNS-SD Clock"},
				}); err != nil {
					t.Fatal(err)
				}
				return "dnssd://10.0.0.2:9000"
			},
		},
	}
}

func matrixClients() []matrixClient {
	return []matrixClient{
		{
			name: "SLPClient",
			sdp:  core.SDPSLP,
			find: func(t *testing.T, host *simnet.Host) string {
				ua := slp.NewUserAgent(host, slp.AgentConfig{})
				urls, err := ua.FindFirst("service:clock", "", 10*time.Second)
				if err != nil {
					t.Fatalf("SLP FindFirst: %v", err)
				}
				return urls[0].URL
			},
		},
		{
			name: "UPnPClient",
			sdp:  core.SDPUPnP,
			find: func(t *testing.T, host *simnet.Host) string {
				cp := upnp.NewControlPoint(host, upnp.ControlPointConfig{
					SSDP: ssdp.ClientConfig{},
				})
				dev, err := cp.Discover(upnp.TypeURN("clock", 1), 0)
				if err != nil {
					t.Fatalf("UPnP Discover: %v", err)
				}
				if !strings.Contains(dev.Response.Server, "indiss") {
					t.Errorf("Server = %q (bridge should identify itself)", dev.Response.Server)
				}
				return dev.Desc.ModelURL
			},
		},
		{
			name: "JiniClient",
			sdp:  core.SDPJini,
			find: func(t *testing.T, host *simnet.Host) string {
				c := jini.NewClient(host, jini.ClientConfig{})
				loc, err := c.DiscoverLookup(5 * time.Second)
				if err != nil {
					t.Fatalf("Jini DiscoverLookup: %v", err)
				}
				// The browse published at discovery time populates the
				// bridge registrar asynchronously; poll the lookup.
				deadline := time.Now().Add(8 * time.Second)
				for {
					items, err := c.Lookup(loc, jini.ServiceTemplate{
						Type: "org.indiss.clock.Service",
					}, time.Second)
					if err == nil && len(items) > 0 {
						return items[0].Endpoint
					}
					if time.Now().After(deadline) {
						t.Fatalf("Jini lookup never found the bridged clock (err=%v)", err)
					}
					time.Sleep(20 * time.Millisecond)
				}
			},
		},
		{
			name: "DNSSDClient",
			sdp:  core.SDPDNSSD,
			find: func(t *testing.T, host *simnet.Host) string {
				q := dnssd.NewQuerier(host)
				insts, err := q.Browse(dnssd.ServiceType("clock"), 8*time.Second)
				if err != nil {
					t.Fatalf("DNS-SD Browse: %v", err)
				}
				inst := insts[0]
				if inst.Text["origin"] == string(core.SDPDNSSD) {
					t.Errorf("bridged instance claims DNSSD origin: %+v", inst)
				}
				return inst.Text["url"]
			},
		},
	}
}

// TestDNSSDReadvertisement is Figure 6 bottom with the fourth unit: on a
// quiet network, service-side INDISS actively re-advertises a local UPnP
// service as unsolicited mDNS announcements, reaching a passive DNS-SD
// listener that never transmits.
func TestDNSSDReadvertisement(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	// Passive mDNS listener: joins the group and waits.
	listener, err := clientHost.ListenMulticastUDP(dnssd.Port)
	if err != nil {
		t.Fatal(err)
	}
	if err := listener.JoinGroup(dnssd.MulticastGroup); err != nil {
		t.Fatal(err)
	}

	sys, err := core.NewSystem(serviceHost, registry(), core.Config{
		Role:           core.RoleServiceSide,
		Units:          []core.SDP{core.SDPUPnP, core.SDPDNSSD},
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
			t.Fatalf("passive DNS-SD client never heard a translated advert: %v", err)
		}
		msg, err := dnssd.Parse(dg.Payload)
		if err != nil || !msg.Response {
			continue
		}
		for _, inst := range dnssd.InstancesFromMessage(msg) {
			if strings.EqualFold(inst.Service, dnssd.ServiceType("clock")) &&
				inst.Text["origin"] == string(core.SDPUPnP) {
				return // translated advertisement reached the passive client
			}
		}
	}
}

// TestBridgeKnownAnswerSuppression: a repeated browse that lists the
// bridged instance as a known answer must not be re-answered (RFC 6762
// §7.1) — the bridge behaves like a conformant responder, and the
// client's cache is the answer.
func TestBridgeKnownAnswerSuppression(t *testing.T) {
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
	indissOn(t, gatewayHost, core.RoleGateway, core.SDPSLP, core.SDPDNSSD)

	q := dnssd.NewQuerier(clientHost)
	if _, err := q.Browse(dnssd.ServiceType("clock"), 5*time.Second); err != nil {
		t.Fatalf("first Browse: %v", err)
	}

	before := n.Metrics().Port(dnssd.Port).Packets
	insts, err := q.Browse(dnssd.ServiceType("clock"), 2*time.Second)
	if err != nil || len(insts) != 1 {
		t.Fatalf("second Browse: %v %+v", err, insts)
	}
	time.Sleep(100 * time.Millisecond)
	after := n.Metrics().Port(dnssd.Port).Packets
	if after-before > 1 {
		t.Errorf("suppressed browse generated %d packets on %d, want 1 (query only)",
			after-before, dnssd.Port)
	}
}

// TestBridgedInstancesKeepDistinctHosts: two foreign services in one
// answer must resolve to their own addresses — a shared bridge hostname
// would let the cache-flush A records alias each other (last A wins).
func TestBridgedInstancesKeepDistinctHosts(t *testing.T) {
	n := newNet(t)
	host := n.MustAddHost("gw", "10.0.0.9")
	sys := indissOn(t, host, core.RoleGateway, core.SDPDNSSD)
	u, ok := sys.Unit(core.SDPDNSSD)
	if !ok {
		t.Fatal("no DNS-SD unit")
	}
	du := u.(*DNSSDUnit)

	exp := time.Now().Add(time.Hour)
	msg := &dnssd.Message{Response: true, Authoritative: true}
	du.appendBridgedInstance(msg, "_clock._tcp.local.",
		core.ServiceRecord{Origin: core.SDPSLP, Kind: "clock", URL: "service:clock://10.0.0.2:4005", Expires: exp})
	du.appendBridgedInstance(msg, "_clock._tcp.local.",
		core.ServiceRecord{Origin: core.SDPSLP, Kind: "clock", URL: "service:clock://10.0.0.3:4005", Expires: exp})

	parsed, err := dnssd.Parse(msg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	insts := dnssd.InstancesFromMessage(parsed)
	if len(insts) != 2 {
		t.Fatalf("instances = %+v", insts)
	}
	ips := map[string]bool{insts[0].IP: true, insts[1].IP: true}
	if !ips["10.0.0.2"] || !ips["10.0.0.3"] {
		t.Errorf("instances alias addresses: %+v / %+v", insts[0], insts[1])
	}
	if insts[0].Host == insts[1].Host {
		t.Errorf("instances share host name %q", insts[0].Host)
	}
}

// TestBrowseUDPServiceType: a "_kind._udp.local." browse — which the
// parser accepts — must be answered under the question's own name, or
// conformant clients discard the mismatched PTRs.
func TestBrowseUDPServiceType(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	gatewayHost := n.MustAddHost("gateway", "10.0.0.9")

	sys := indissOn(t, gatewayHost, core.RoleGateway, core.SDPSLP, core.SDPDNSSD)
	sys.View().Put(core.ServiceRecord{
		Origin:  core.SDPSLP,
		Kind:    "clock",
		URL:     "service:clock://10.0.0.2:4005",
		Attrs:   map[string]string{},
		Expires: time.Now().Add(time.Hour),
	})

	conn, err := clientHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	query := &dnssd.Message{
		Questions: []dnssd.Question{{Name: "_clock._udp.local.", Type: dnssd.TypePTR}},
	}
	if err := conn.WriteTo(query.Marshal(), simnet.Addr{IP: dnssd.MulticastGroup, Port: dnssd.Port}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		dg, err := conn.Recv(time.Until(deadline))
		if err != nil {
			t.Fatalf("no answer to the _udp browse: %v", err)
		}
		msg, err := dnssd.Parse(dg.Payload)
		if err != nil || !msg.Response {
			continue
		}
		insts := dnssd.InstancesFromMessage(msg)
		if len(insts) == 0 {
			continue
		}
		if !strings.EqualFold(insts[0].Service, "_clock._udp.local.") {
			t.Fatalf("answer names service %q, want the question's _udp form", insts[0].Service)
		}
		if insts[0].Text["url"] != "service:clock://10.0.0.2:4005" {
			t.Errorf("instance url = %q", insts[0].Text["url"])
		}
		return
	}
}

// TestBrowseComposesEveryResponse: with a cold view (NoCache), a DNS-SD
// browse bridged over two foreign SDPs must surface both services —
// mDNS permits one response message per answer, so the unit composes
// every response stream instead of first-wins.
func TestBrowseComposesEveryResponse(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	slpHost := n.MustAddHost("slp-svc", "10.0.0.2")
	upnpHost := n.MustAddHost("upnp-svc", "10.0.0.3")
	gatewayHost := n.MustAddHost("gateway", "10.0.0.9")

	sa, err := slp.NewServiceAgent(slpHost, slp.AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sa.Close)
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	dev, err := upnp.NewRootDevice(upnpHost, upnp.DeviceConfig{Kind: "clock"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)

	sys, err := core.NewSystem(gatewayHost, registry(), core.Config{
		Role:    core.RoleGateway,
		Units:   []core.SDP{core.SDPSLP, core.SDPUPnP, core.SDPDNSSD},
		NoCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = sys.Close() })

	q := dnssd.NewQuerier(clientHost)
	urls := map[string]bool{}
	deadline := time.Now().Add(8 * time.Second)
	for len(urls) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("browse surfaced only %v, want both bridged services", urls)
		}
		insts, err := q.Browse(dnssd.ServiceType("clock"), 2*time.Second)
		if err != nil {
			continue
		}
		for _, inst := range insts {
			if u := inst.Text["url"]; u != "" {
				urls[u] = true
			}
		}
	}
	if !urls["service:clock://10.0.0.2:4005"] {
		t.Errorf("missing the SLP service: %v", urls)
	}
}

// TestInteropMatrix runs all 12 directed client↔service pairings through
// a gateway running every unit. Each pairing uses a fresh network so no
// view-cache knowledge leaks between cases.
func TestInteropMatrix(t *testing.T) {
	for _, svc := range matrixServices() {
		for _, cli := range matrixClients() {
			if svc.sdp == cli.sdp {
				continue // native pairs need no INDISS
			}
			svc, cli := svc, cli
			t.Run(cli.name+"_finds_"+svc.name, func(t *testing.T) {
				t.Parallel()
				n := newNet(t)
				clientHost := n.MustAddHost("client", "10.0.0.1")
				serviceHost := n.MustAddHost("service", "10.0.0.2")
				gatewayHost := n.MustAddHost("gateway", "10.0.0.9")

				indissOn(t, gatewayHost, core.RoleGateway,
					core.SDPSLP, core.SDPUPnP, core.SDPJini, core.SDPDNSSD)
				endpoint := svc.start(t, n, serviceHost)

				got := cli.find(t, clientHost)
				if !strings.Contains(got, endpoint) {
					t.Errorf("%s discovered %q, want the %s endpoint %q in it",
						cli.name, got, svc.name, endpoint)
				}
			})
		}
	}
}

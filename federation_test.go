package indiss_test

import (
	"strings"
	"testing"
	"time"

	"indiss"
	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/jini"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// This file is the multi-segment acceptance of the federation plane: a
// campus of three routed segments — client on seg1, transit on seg2,
// services on seg3 — with one full INDISS gateway per segment, peered in
// a *cycle* (gwA→gwB, gwB→gwC, gwC→gwA). A client of each SDP on seg1
// discovers a service of every other SDP on seg3: the paper's
// no-application-change claim, now across routed hops, for all 12
// directed pairings. Every pairing also asserts the mesh stayed
// duplicate-free: exactly one record per service kind in every gateway's
// view, still under its true native origin.

const (
	fedClientIP  = "10.0.1.1"
	fedGWAIP     = "10.0.1.9"
	fedGWBIP     = "10.0.2.9"
	fedGWCIP     = "10.0.3.9"
	fedServiceIP = "10.0.3.2"
	fedLookupIP  = "10.0.3.5"
)

type fedFixture struct {
	net         *simnet.Network
	clientHost  *simnet.Host
	serviceHost *simnet.Host
	gws         [3]*indiss.System
}

// newFedFixture builds the campus and its cyclically peered gateways.
func newFedFixture(t *testing.T) *fedFixture {
	t.Helper()
	n := indiss.NewCampus(3)
	t.Cleanup(n.Close)
	f := &fedFixture{
		net:         n,
		clientHost:  n.MustAddHostOn("client", fedClientIP, indiss.CampusSegment(1)),
		serviceHost: n.MustAddHostOn("service", fedServiceIP, indiss.CampusSegment(3)),
	}
	gwHosts := [3]*simnet.Host{
		n.MustAddHostOn("gwA", fedGWAIP, indiss.CampusSegment(1)),
		n.MustAddHostOn("gwB", fedGWBIP, indiss.CampusSegment(2)),
		n.MustAddHostOn("gwC", fedGWCIP, indiss.CampusSegment(3)),
	}
	// The peering cycle: each gateway dials exactly its successor, so
	// the graph is a ring — cyclic, and knowledge may arrive on either
	// side of it.
	dial := [3]string{fedGWBIP, fedGWCIP, fedGWAIP}
	for i, host := range gwHosts {
		sys, err := indiss.Deploy(host, indiss.Config{
			Role:      indiss.RoleGateway,
			GatewayID: "gw-" + host.Name(),
			Peers:     []string{dial[i] + ":" + itoa(indiss.FederationDefaultPort)},
		})
		if err != nil {
			t.Fatalf("deploy gateway %d: %v", i, err)
		}
		t.Cleanup(func() { _ = sys.Close() })
		f.gws[i] = sys
	}
	return f
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var b [12]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

// waitConverged blocks until every gateway's view holds the service of
// the given kind with its true origin.
func (f *fedFixture) waitConverged(t *testing.T, kind string, origin core.SDP) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		converged := true
		for _, sys := range f.gws {
			found := false
			for _, rec := range sys.View().Find(kind, time.Now()) {
				if rec.Origin == origin {
					found = true
				}
			}
			if !found {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for i, sys := range f.gws {
				t.Logf("gw%d view: %+v", i, sys.View().Find("", time.Now()))
			}
			t.Fatalf("federation never converged on kind %q (origin %s)", kind, origin)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// assertNoDuplicates checks the zero-duplicate acceptance: exactly one
// record of the kind, with the native origin, in every gateway's view.
func (f *fedFixture) assertNoDuplicates(t *testing.T, kind string, origin core.SDP) {
	t.Helper()
	for i, sys := range f.gws {
		recs := sys.View().Find(kind, time.Now())
		if len(recs) != 1 {
			t.Errorf("gw%d holds %d records for kind %q, want exactly 1: %+v", i, len(recs), kind, recs)
			continue
		}
		if recs[0].Origin != origin {
			t.Errorf("gw%d record for kind %q has origin %s, want %s (a double bridge?)",
				i, kind, recs[0].Origin, origin)
		}
	}
}

// fedService deploys a native clock service of one SDP on the service
// segment and returns the endpoint substring every client answer must
// carry.
type fedService struct {
	name  string
	sdp   core.SDP
	start func(t *testing.T, f *fedFixture) string
}

func fedServices() []fedService {
	return []fedService{
		{
			name: "SLPService",
			sdp:  core.SDPSLP,
			start: func(t *testing.T, f *fedFixture) string {
				sa, err := slp.NewServiceAgent(f.serviceHost, slp.AgentConfig{
					// Passive announcements are what cross the
					// federation: request-driven translation cannot
					// span segments.
					AnnounceInterval: 100 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(sa.Close)
				if err := sa.Register("service:clock", "service:clock://"+fedServiceIP+":4005",
					time.Hour, slp.AttrList{{Name: "friendlyName", Values: []string{"SLP Clock"}}}); err != nil {
					t.Fatal(err)
				}
				return "service:clock://" + fedServiceIP + ":4005"
			},
		},
		{
			name: "UPnPService",
			sdp:  core.SDPUPnP,
			start: func(t *testing.T, f *fedFixture) string {
				dev, err := upnp.NewRootDevice(f.serviceHost, upnp.DeviceConfig{
					Kind:         "clock",
					FriendlyName: "CyberGarage Clock Device",
					Services:     []upnp.ServiceConfig{{Kind: "timer"}},
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(dev.Close)
				return "soap://" + fedServiceIP + ":4004"
			},
		},
		{
			name: "JiniService",
			sdp:  core.SDPJini,
			start: func(t *testing.T, f *fedFixture) string {
				lookupHost := f.net.MustAddHostOn("lookup", fedLookupIP, indiss.CampusSegment(3))
				ls, err := jini.NewLookupService(lookupHost, jini.LookupConfig{
					AnnounceInterval: 50 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(ls.Close)
				svcClient := jini.NewClient(f.serviceHost, jini.ClientConfig{})
				if _, err := svcClient.Register(ls.Locator(), jini.ServiceItem{
					Type:     "net.jini.clock.Clock",
					Endpoint: fedServiceIP + ":9000",
					Attrs:    []jini.Entry{{Name: "friendlyName", Value: "Jini Clock"}},
				}, time.Second); err != nil {
					t.Fatal(err)
				}
				return fedServiceIP + ":9000"
			},
		},
		{
			name: "DNSSDService",
			sdp:  core.SDPDNSSD,
			start: func(t *testing.T, f *fedFixture) string {
				r, err := dnssd.NewResponder(f.serviceHost, dnssd.ResponderConfig{})
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
				return "dnssd://" + fedServiceIP + ":9000"
			},
		},
	}
}

// fedClient performs a native clock discovery from the client segment.
type fedClient struct {
	name string
	sdp  core.SDP
	find func(t *testing.T, host *simnet.Host) string
}

func fedClients() []fedClient {
	return []fedClient{
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
				// The registrar serves the gateway's view, which the
				// federation fills asynchronously; poll until the remote
				// record arrives.
				deadline := time.Now().Add(10 * time.Second)
				for {
					items, err := c.Lookup(loc, jini.ServiceTemplate{
						Type: "org.indiss.clock.Service",
					}, time.Second)
					if err == nil && len(items) > 0 {
						return items[0].Endpoint
					}
					if time.Now().After(deadline) {
						t.Fatalf("Jini lookup never found the federated clock (err=%v)", err)
					}
					time.Sleep(20 * time.Millisecond)
				}
			},
		},
		{
			name: "DNSSDClient",
			sdp:  core.SDPDNSSD,
			find: func(t *testing.T, host *simnet.Host) string {
				q := dnssd.NewQuerier(host, dnssd.QuerierConfig{})
				insts, err := q.Browse(dnssd.ServiceType("clock"), 8*time.Second)
				if err != nil {
					t.Fatalf("DNS-SD Browse: %v", err)
				}
				return insts[0].Text["url"]
			},
		},
	}
}

// TestFederatedInteropMatrix: each of the 12 directed cross-SDP pairings
// on its own fresh three-segment campus with cyclically peered gateways.
func TestFederatedInteropMatrix(t *testing.T) {
	for _, svc := range fedServices() {
		for _, cli := range fedClients() {
			if svc.sdp == cli.sdp {
				continue // native pairs need no INDISS
			}
			svc, cli := svc, cli
			t.Run(cli.name+"_finds_"+svc.name, func(t *testing.T) {
				t.Parallel()
				f := newFedFixture(t)
				endpoint := svc.start(t, f)

				// The record must cross two federation hops before a
				// client on seg1 can be answered locally.
				f.waitConverged(t, "clock", svc.sdp)

				got := cli.find(t, f.clientHost)
				if !strings.Contains(got, endpoint) {
					t.Errorf("%s discovered %q, want the %s endpoint %q in it",
						cli.name, got, svc.name, endpoint)
				}

				// Meshed (cyclic) peering must not have duplicated the
				// record anywhere, under any origin.
				f.assertNoDuplicates(t, "clock", svc.sdp)
			})
		}
	}
}

// TestFederatedRecordExpiresEverywhere: when the service departs, the
// withdrawal crosses the federation and the record vanishes from every
// gateway.
func TestFederatedByeByeCrossesSegments(t *testing.T) {
	f := newFedFixture(t)
	r, err := dnssd.NewResponder(f.serviceHost, dnssd.ResponderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if err := r.Register(dnssd.Registration{
		Instance: "Clock", Service: dnssd.ServiceType("clock"), Port: 9000,
	}); err != nil {
		t.Fatal(err)
	}
	f.waitConverged(t, "clock", core.SDPDNSSD)

	// The goodbye (TTL 0) retracts natively on seg3; the withdraw must
	// ripple across the ring.
	r.Unregister("Clock", dnssd.ServiceType("clock"))
	deadline := time.Now().Add(10 * time.Second)
	for {
		gone := true
		for _, sys := range f.gws {
			if len(sys.View().Find("clock", time.Now())) != 0 {
				gone = false
			}
		}
		if gone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("withdrawal never crossed the federation")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

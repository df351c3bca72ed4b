package units

import (
	"strings"
	"sync"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/jini"
	"indiss/internal/netapi"
	"indiss/internal/slp"
)

// awaitView polls the gateway's view until it holds want records of kind
// from origin, failing the test after 5 s.
func awaitView(t *testing.T, sys *core.System, origin core.SDP, kind string, want int) []core.ServiceRecord {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var recs []core.ServiceRecord
		for _, rec := range sys.View().Find(kind, time.Now()) {
			if rec.Origin == origin {
				recs = append(recs, rec)
			}
		}
		if len(recs) == want {
			return recs
		}
		if time.Now().After(deadline) {
			t.Fatalf("view holds %d %s records of kind %q, want %d: %+v", len(recs), origin, kind, want, recs)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDNSSDFollowUpPublishesEveryResponder: two native responders offer
// one kind, and one follow-up query reaches both. Each answer is
// published as it lands, so both services reach the view, not only the
// first to answer.
func TestDNSSDFollowUpPublishesEveryResponder(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	// The responders announce before the gateway is up, so only the
	// follow-up can put them in the view.
	lampResponder(t, n.MustAddHost("lamp-1", "10.0.0.4"))
	lampResponder(t, n.MustAddHost("lamp-2", "10.0.0.5"))
	sys := coldGateway(t, n.MustAddHost("gateway", "10.0.0.9"))
	if recs := sys.View().Find("lamp", time.Now()); len(recs) != 0 {
		t.Fatalf("view holds %+v before any lookup", recs)
	}

	// One SrvRqst, never retransmitted: one follow-up.
	if _, err := askSLP(clientHost, 1, "service:lamp", 5*time.Second); err != nil {
		t.Fatal(err)
	}
	recs := awaitView(t, sys, core.SDPDNSSD, "lamp", 2)
	urls := recs[0].URL + " " + recs[1].URL
	if !strings.Contains(urls, "dnssd://10.0.0.4:9000") || !strings.Contains(urls, "dnssd://10.0.0.5:9000") {
		t.Errorf("view holds %s, want both responders' lamps", urls)
	}
}

// TestBrowseAllReachesDNSSDByMetaQuery: a Jini client's discovery request
// becomes a browse-all request (kind ""), and the DNS-SD unit follows it
// with the RFC 6763 §9 meta-query and then a query for the types the
// answers list, which puts services only DNS-SD offers in the view. Both
// responders list the lamp type; the unit asks for it once.
func TestBrowseAllReachesDNSSDByMetaQuery(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	watch, err := n.MustAddHost("watcher", "10.0.0.3").ListenUDP(dnssd.Port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(watch.Close)
	if err := watch.JoinGroup(dnssd.MulticastGroup); err != nil {
		t.Fatal(err)
	}
	lampResponder(t, n.MustAddHost("lamp-1", "10.0.0.4"))
	lampResponder(t, n.MustAddHost("lamp-2", "10.0.0.5"))
	sys := indissOn(t, n.MustAddHost("gateway", "10.0.0.9"), core.RoleGateway, core.SDPJini, core.SDPDNSSD)
	if recs := sys.View().Find("lamp", time.Now()); len(recs) != 0 {
		t.Fatalf("view holds %+v before any request", recs)
	}

	if _, err := jini.NewClient(clientHost, jini.ClientConfig{}).DiscoverLookup(2 * time.Second); err != nil {
		t.Fatalf("DiscoverLookup: %v", err)
	}
	awaitView(t, sys, core.SDPDNSSD, "lamp", 2)
	asked := 0
	for {
		dg, err := watch.Recv(time.Millisecond)
		if err != nil {
			break
		}
		m, err := dnssd.Parse(dg.Payload)
		if err != nil || m.Response || dg.Src.IP != "10.0.0.9" {
			continue
		}
		for _, q := range m.Questions {
			if strings.EqualFold(q.Name, dnssd.ServiceType("lamp")) {
				asked++
			}
		}
	}
	if asked != 1 {
		t.Errorf("the gateway asked for the lamp type %d times, want 1", asked)
	}
}

// TestBrowseAllOnlyForServedGroups: a Jini discovery request becomes a
// browse-all request only when the bridge registrar serves a group it
// names. One naming only "lab" puts no request stream on the bus; one
// naming "public", and one naming no group (any group), put one each.
func TestBrowseAllOnlyForServedGroups(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	sys := indissOn(t, n.MustAddHost("gateway", "10.0.0.9"), core.RoleGateway, core.SDPJini)

	var mu sync.Mutex
	streams := map[string]int{} // request id → request streams
	sys.Bus().Subscribe("test-tap", events.ListenerFunc(func(env events.Envelope) {
		if s := env.Stream; s.Has(events.ServiceRequest) {
			mu.Lock()
			streams[s.FirstData(events.ReqID)]++
			mu.Unlock()
		}
		env.Release()
	}))
	count := func(reqID string) int {
		mu.Lock()
		defer mu.Unlock()
		return streams[reqID]
	}
	// Each request leaves from its own socket, so the unit gives each
	// its own request id.
	request := func(groups []string) string {
		conn, err := clientHost.ListenUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conn.Close)
		port := conn.LocalAddr().Port
		req, err := jini.RequestPacket(groups, port)
		if err != nil {
			t.Fatal(err)
		}
		sendRaw(t, conn, req, netapi.Addr{IP: jini.RequestGroup, Port: jini.Port})
		return "jini-" + netapi.Addr{IP: clientHost.IP(), Port: port}.String()
	}

	lab := request([]string{"lab"})
	public := request([]string{"public"})
	anyGroup := request(nil)
	deadline := time.Now().Add(2 * time.Second)
	for count(public) == 0 || count(anyGroup) == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("request streams: public %d, any group %d; want 1 each", count(public), count(anyGroup))
		}
		time.Sleep(time.Millisecond)
	}
	// The lab request went first; give a stream it started time to land.
	time.Sleep(50 * time.Millisecond)
	if got := count(lab); got != 0 {
		t.Errorf("a request naming only lab put %d request streams on the bus, want 0", got)
	}
	if count(public) != 1 || count(anyGroup) != 1 {
		t.Errorf("request streams: public %d, any group %d; want 1 each", count(public), count(anyGroup))
	}
}

// TestJiniRegistrarFoundByStartRequest: a native registrar that booted
// before the gateway and announces only at boot, as the benchmark's
// does, is known to the gateway only through the discovery request the
// Jini unit sends in Start, and a bridged lookup reaches it.
func TestJiniRegistrarFoundByStartRequest(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	ls, err := jini.NewLookupService(n.MustAddHost("lookup", "10.0.0.5"), jini.LookupConfig{AnnounceInterval: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ls.Close)
	if _, err := jini.NewClient(n.MustAddHost("service", "10.0.0.2"), jini.ClientConfig{}).Register(ls.Locator(), jini.ServiceItem{
		Type: "net.jini.clock.Clock", Endpoint: "10.0.0.2:9000",
	}, time.Second); err != nil {
		t.Fatal(err)
	}
	coldGateway(t, n.MustAddHost("gateway", "10.0.0.9"))

	urls, err := slp.NewUserAgent(clientHost, slp.AgentConfig{}).FindFirst("service:clock", "", 5*time.Second)
	if err != nil {
		t.Fatalf("FindFirst: %v", err)
	}
	if urls[0].URL != "service:clock:10.0.0.2:9000" {
		t.Errorf("URL = %q, want the native Jini clock", urls[0].URL)
	}
}

package units

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/events"
	"indiss/internal/httpx"
	"indiss/internal/jini"
	"indiss/internal/simnet"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// TestJiniRegistrarServesTheView: the bridge registrar lists the view as
// it stands at lookup time. A federated record is served at once, under
// one ServiceID, and no longer once the view withdraws it or its TTL
// lapses; local Jini and kind-less records are never served.
func TestJiniRegistrarServesTheView(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	sys := indissOn(t, n.MustAddHost("gateway", "10.0.0.9"), core.RoleGateway, core.SDPJini)
	unit, ok := sys.Unit(core.SDPJini)
	if !ok {
		t.Fatal("no Jini unit")
	}
	registrar := unit.(*JiniUnit).Registrar()
	c := jini.NewClient(clientHost, jini.ClientConfig{})
	lookup := func(tmpl jini.ServiceTemplate) []jini.ServiceItem {
		t.Helper()
		items, err := c.Lookup(registrar, tmpl, time.Second)
		if err != nil {
			t.Fatalf("Lookup: %v", err)
		}
		return items
	}
	clocks := jini.ServiceTemplate{Type: "org.indiss.clock.Service"}

	remote := core.ServiceRecord{
		Origin:   core.SDPUPnP,
		Kind:     "clock",
		URL:      "soap://10.0.3.2:4004/control",
		Attrs:    map[string]string{"friendlyName": "Remote Clock"},
		Expires:  time.Now().Add(time.Hour),
		OriginGW: "gw-c",
		Hops:     1,
		Remote:   true,
	}
	sys.View().Put(remote)
	sys.View().Put(core.ServiceRecord{Origin: core.SDPJini, Kind: "clock", URL: "10.0.0.2:9000", Expires: time.Now().Add(time.Hour)})
	sys.View().Put(core.ServiceRecord{Origin: core.SDPSLP, URL: "service:x://10.0.0.3", Expires: time.Now().Add(time.Hour)})

	first := lookup(jini.ServiceTemplate{})
	if len(first) != 1 || first[0].Endpoint != remote.URL || first[0].Type != "org.indiss.clock.Service" {
		t.Fatalf("registrar serves %+v, want only the remote clock", first)
	}
	for i := 0; i < 3; i++ {
		if again := lookup(clocks); len(again) != 1 || again[0].ID != first[0].ID {
			t.Fatalf("lookup %d = %+v, want the clock under ID %v", i, again, first[0].ID)
		}
	}

	sys.View().Remove(remote.Origin, remote.URL)
	if items := lookup(clocks); len(items) != 0 {
		t.Fatalf("withdrawn record still served: %+v", items)
	}

	remote.URL = "soap://10.0.3.3:4004/control"
	remote.Expires = time.Now().Add(200 * time.Millisecond)
	sys.View().Put(remote)
	if items := lookup(clocks); len(items) != 1 {
		t.Fatalf("short-lived record not served: %+v", items)
	}
	time.Sleep(time.Until(remote.Expires) + 20*time.Millisecond)
	if items := lookup(clocks); len(items) != 0 {
		t.Fatalf("expired record still served: %+v", items)
	}
}

// TestRegistrarItemsRejectWithoutAllocating: records the registrar does
// not serve are filtered inside the view scan, so a view full of them
// costs a lookup no more allocations than a view with one.
func TestRegistrarItemsRejectWithoutAllocating(t *testing.T) {
	v := core.NewServiceView()
	tmpl := jini.ServiceTemplate{Type: "org.indiss.clock.Service"}
	put := func(i int) {
		v.Put(core.ServiceRecord{Origin: core.SDPJini, Kind: "clock", URL: fmt.Sprintf("10.0.0.2:%d", 9000+i), Expires: time.Now().Add(time.Hour)})
	}
	put(0)
	one := testing.AllocsPerRun(50, func() { registrarItems(v, tmpl) })
	for i := 1; i < 200; i++ {
		put(i)
	}
	if many := testing.AllocsPerRun(50, func() { registrarItems(v, tmpl) }); many != one {
		t.Errorf("allocs with 200 rejected records = %v, with 1 = %v", many, one)
	}
}

func TestBridgeTypeMatches(t *testing.T) {
	for _, kind := range []string{"clock", "printer:lpr", "a.b", ":x"} {
		for _, want := range []string{
			"", "org", "org.indiss", "org.indiss.", "org.indiss.clock", "org.indiss.clock.Service",
			"org.indiss.printer.Service", "org.indiss.a", "org.indiss.a.b", "org.indiss.a.b.Service",
			"org.indiss.clock.Serv", "org.indiss.clock.Service.x", "net.jini.clock", "or",
		} {
			if got, exact := bridgeTypeMatches(want, kind), (jini.ServiceTemplate{Type: want}).Matches(jini.ServiceItem{Type: jiniTypeFromKind(kind)}); got != exact {
				t.Errorf("bridgeTypeMatches(%q, %q) = %v, template matching says %v", want, kind, got, exact)
			}
		}
	}
}

// TestUPnPBridgedDeviceIdentityIsStable: a bridged record keeps one
// LOCATION and USN however many other records get described, its alive
// and byebye NOTIFYs carry that USN, and its description is gone once the
// view drops the record.
func TestUPnPBridgedDeviceIdentityIsStable(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	sys := indissOn(t, n.MustAddHost("gateway", "10.0.0.9"), core.RoleGateway, core.SDPUPnP)
	conn, err := clientHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	search := func(kind string) *ssdp.SearchResponse {
		t.Helper()
		req := &ssdp.SearchRequest{ST: upnp.TypeURN(kind, 1)}
		if err := conn.WriteTo(req.Marshal(), simnet.Addr{IP: ssdp.MulticastGroup, Port: ssdp.Port}); err != nil {
			t.Fatal(err)
		}
		for {
			dg, err := conn.Recv(2 * time.Second)
			if err != nil {
				t.Fatalf("no answer for %s: %v", kind, err)
			}
			msg, err := ssdp.Parse(dg.Payload)
			if err != nil {
				t.Fatalf("SSDP parse: %v", err)
			}
			if resp, ok := msg.(*ssdp.SearchResponse); ok && resp.ST == req.ST {
				return resp
			}
		}
	}
	put := func(kind string) core.ServiceRecord {
		rec := core.ServiceRecord{
			Origin:  core.SDPSLP,
			Kind:    kind,
			URL:     "service:" + kind + "://10.0.0.2:4005",
			Attrs:   map[string]string{},
			Expires: time.Now().Add(time.Hour),
		}
		sys.View().Put(rec)
		return rec
	}
	get := func(location string) *httpx.Response {
		t.Helper()
		addr, path, err := upnp.ParseHTTPURL(location)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.Get(clientHost, addr, path, time.Second)
		if err != nil {
			t.Fatalf("GET %s: %v", location, err)
		}
		return resp
	}

	clock := put("clock")
	first := search("clock")
	for _, kind := range []string{"printer", "scanner", "lamp"} {
		put(kind)
		search(kind)
	}
	if again := search("clock"); again.Location != first.Location || again.USN != first.USN {
		t.Errorf("identity drifted: LOCATION %q → %q, USN %q → %q", first.Location, again.Location, first.USN, again.USN)
	}
	resp := get(first.Location)
	if resp.StatusCode != 200 {
		t.Fatalf("description status %d", resp.StatusCode)
	}
	desc, err := upnp.ParseDescription(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if desc.ModelURL != clock.URL || !strings.HasPrefix(first.USN, desc.UDN+"::") {
		t.Errorf("description = %+v for USN %q", desc, first.USN)
	}

	notifies := make(chan *ssdp.Notify, 64)
	listener, err := ssdp.Listen(clientHost, func(m *ssdp.Notify) {
		select {
		case notifies <- m:
		default:
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer listener.Close()
	unit, ok := sys.Unit(core.SDPUPnP)
	if !ok {
		t.Fatal("no UPnP unit")
	}
	unit.SetReadvertise(true)
	unit.OnEvents(events.Envelope{Source: "slp-unit", Stream: aliveStream(core.SDPSLP, clock).S})
	unit.OnEvents(events.Envelope{Source: "slp-unit", Stream: byeStream(core.SDPSLP, clock.Kind, clock.URL).S})
	seen := map[string]bool{}
	deadline := time.After(3 * time.Second)
	for !seen[ssdp.NTSAlive] || !seen[ssdp.NTSByeBye] {
		select {
		case m := <-notifies:
			if m.NT != upnp.TypeURN("clock", 1) {
				continue
			}
			if m.USN != first.USN {
				t.Fatalf("%s NOTIFY USN = %q, want %q", m.NTS, m.USN, first.USN)
			}
			seen[m.NTS] = true
		case <-deadline:
			t.Fatalf("NOTIFYs heard for the clock: %v", seen)
		}
	}

	sys.View().Remove(clock.Origin, clock.URL)
	if resp := get(first.Location); resp.StatusCode != 404 {
		t.Errorf("description of a dropped record: status %d, want 404", resp.StatusCode)
	}
	native := core.ServiceRecord{Origin: core.SDPUPnP, Kind: "clock", URL: "soap://10.0.0.4:4004/control", Expires: time.Now().Add(time.Hour)}
	sys.View().Put(native)
	addr, _, _ := upnp.ParseHTTPURL(first.Location)
	if resp := get(upnp.HTTPURL(addr, descPath(native.Origin, native.URL))); resp.StatusCode != 404 {
		t.Errorf("description of a native UPnP record: status %d, want 404", resp.StatusCode)
	}
}

package units

import (
	"fmt"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/jini"
	"indiss/internal/netapi"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// TestRepliesRouter walks the router's rules: answers on a key go to its
// waiters oldest first, a waiter gets at most one answer, a waiter done
// without an answer leaves the queue, and an answer nobody waits for is
// dropped. A step is "await <waiter> <key>", "deliver <key> <answer>"
// (a waiter takes it), "deliver <key> <answer> -" (dropped) or
// "done <waiter>".
func TestRepliesRouter(t *testing.T) {
	cases := []struct {
		name  string
		steps []string
		// want is the answer each waiter not yet done holds, "" for none.
		want map[string]string
	}{
		{"FIFO on one key",
			[]string{"await a 1", "await b 1", "deliver 1 x", "deliver 1 y", "deliver 1 z -"},
			map[string]string{"a": "x", "b": "y"}},
		{"one answer per waiter",
			[]string{"await a 1", "deliver 1 x", "deliver 1 y -"},
			map[string]string{"a": "x"}},
		{"keys are independent",
			[]string{"await a 1", "await b 2", "deliver 2 y", "deliver 3 z -"},
			map[string]string{"a": "", "b": "y"}},
		{"done without an answer",
			[]string{"await a 1", "await b 1", "await c 1", "done b", "deliver 1 x", "deliver 1 y"},
			map[string]string{"a": "x", "c": "y"}},
		{"last waiter done",
			[]string{"await a 1", "done a", "deliver 1 x -"},
			map[string]string{}},
		{"done discards an unread answer",
			[]string{"await a 1", "deliver 1 x", "done a", "await b 1", "deliver 1 y"},
			map[string]string{"b": "y"}},
		{"stray answer",
			[]string{"deliver 1 x -", "await a 1"},
			map[string]string{"a": ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r replies[int, string]
			open := make(map[string]*waiter[string])
			keys := make(map[string]int)
			for _, step := range tc.steps {
				f := strings.Fields(step)
				switch f[0] {
				case "await":
					k, _ := strconv.Atoi(f[2])
					open[f[1]], keys[f[1]] = r.await(k), k
				case "deliver":
					k, _ := strconv.Atoi(f[1])
					if got, want := r.deliver(k, f[2]), len(f) == 3; got != want {
						t.Fatalf("%q: deliver reported %v, want %v", step, got, want)
					}
				case "done":
					r.done(keys[f[1]], open[f[1]])
					delete(open, f[1])
				}
			}
			if len(open) != len(tc.want) {
				t.Fatalf("%d waiters open, want %d", len(open), len(tc.want))
			}
			for name, w := range open {
				got := ""
				select {
				case got = <-w.c:
				default:
				}
				if got != tc.want[name] {
					t.Errorf("waiter %s holds %q, want %q", name, got, tc.want[name])
				}
				r.done(keys[name], w)
			}
			if len(r.waiting) != 0 {
				t.Errorf("%d keys still queued after every waiter was done", len(r.waiting))
			}
		})
	}

	t.Run("wait ends when the unit stops", func(t *testing.T) {
		var r replies[int, string]
		w := r.await(1)
		defer r.done(1, w)
		stop := make(chan struct{})
		close(stop)
		start := time.Now()
		if m, ok := w.wait(stop); ok {
			t.Errorf("wait returned answer %q with nothing delivered", m)
		}
		if d := time.Since(start); d > queryTimeout/2 {
			t.Errorf("wait took %v after stop", d)
		}
	})
}

// coldGateway deploys a NoCache gateway running all four units on stack,
// so that every foreign request becomes a native follow-up query in each
// of the other three.
func coldGateway(t *testing.T, stack netapi.Stack) *core.System {
	t.Helper()
	sys, err := core.NewSystem(stack, registry(), core.Config{
		Role:    core.RoleGateway,
		NoCache: true,
	})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(func() { _ = sys.Close() })
	return sys
}

// thermometerURL is the native SLP service the cold-gateway tests bridge
// to UPnP clients; the UPnP clock of clockDevice goes the other way, and
// the DNS-SD lamp of lampResponder to SLP clients.
const (
	thermometerURL = "service:thermometer://10.0.0.3:4005"
	lampURL        = "service:lamp:dnssd://10.0.0.4:9000"
)

func thermometerAgent(t *testing.T, host *simnet.Host) {
	t.Helper()
	sa, err := slp.NewServiceAgent(host, slp.AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sa.Close)
	if err := sa.Register("service:thermometer", thermometerURL, time.Hour, nil); err != nil {
		t.Fatal(err)
	}
}

// lampResponder starts a native DNS-SD responder on host offering one
// "lamp" instance on port 9000.
func lampResponder(t *testing.T, host *simnet.Host) {
	t.Helper()
	r, err := dnssd.NewResponder(host, dnssd.ResponderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if err := r.Register(dnssd.Registration{
		Instance: "Lamp-" + host.IP(), Service: dnssd.ServiceType("lamp"), Port: 9000,
	}); err != nil {
		t.Fatal(err)
	}
}

// askSLP sends one SrvRqst from a fresh socket on host and waits for the
// SrvRply. It never retransmits, so an answer the gateway loses stays
// lost instead of being made up for by a retry.
func askSLP(host *simnet.Host, xid uint16, serviceType string, timeout time.Duration) (*slp.SrvRply, error) {
	conn, err := host.ListenUDP(0)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	req := &slp.SrvRqst{
		Hdr:         slp.Header{XID: xid, Flags: slp.FlagRequestMcast, Lang: slp.DefaultLang},
		ServiceType: serviceType,
		Scopes:      []string{slp.DefaultScope},
	}
	data, err := req.Marshal()
	if err != nil {
		return nil, err
	}
	if err := conn.WriteTo(data, netapi.Addr{IP: slp.MulticastGroup, Port: slp.Port}); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, fmt.Errorf("no SrvRply for %s (XID %d)", serviceType, xid)
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return nil, fmt.Errorf("no SrvRply for %s (XID %d): %w", serviceType, xid, err)
		}
		msg, err := slp.Parse(dg.Payload)
		if err != nil {
			continue
		}
		if rply, ok := msg.(*slp.SrvRply); ok && rply.Hdr.XID == xid && len(rply.URLs) > 0 {
			return rply, nil
		}
	}
}

// TestRepliesConcurrentColdLookups sends concurrent lookups of one kind
// each way through a NoCache gateway: the UPnP unit's M-SEARCHes all
// wait on one search target, the SLP unit's SrvRqsts on distinct XIDs.
// Neither client retransmits, so one answer routed to the wrong query
// fails a lookup.
func TestRepliesConcurrentColdLookups(t *testing.T) {
	const perSide = 16
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	clockDevice(t, n.MustAddHost("service", "10.0.0.2"))
	thermometerAgent(t, n.MustAddHost("slp-service", "10.0.0.3"))
	coldGateway(t, n.MustAddHost("gateway", "10.0.0.9"))

	var wg sync.WaitGroup
	errs := make(chan error, 2*perSide)
	for i := 0; i < perSide; i++ {
		wg.Add(2)
		go func(xid uint16) {
			defer wg.Done()
			rply, err := askSLP(clientHost, xid, "service:clock", 5*time.Second)
			if err == nil && !strings.HasPrefix(rply.URLs[0].URL, "service:clock:soap://10.0.0.2:") {
				err = fmt.Errorf("SLP client got %q, not the UPnP clock", rply.URLs[0].URL)
			}
			errs <- err
		}(uint16(i + 1))
		go func() {
			defer wg.Done()
			c := ssdp.NewClient(clientHost, ssdp.ClientConfig{})
			resp, err := c.SearchFirst(upnp.TypeURN("thermometer", 1), 0, 5*time.Second)
			if err == nil && !isBridgeProduct(resp.Server) {
				err = fmt.Errorf("UPnP client answered by %q, not the bridge", resp.Server)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// unitsOf returns the gateway's SLP, UPnP and DNS-SD units.
func unitsOf(t *testing.T, sys *core.System) (*SLPUnit, *UPnPUnit, *DNSSDUnit) {
	t.Helper()
	s, ok1 := sys.Unit(core.SDPSLP)
	u, ok2 := sys.Unit(core.SDPUPnP)
	d, ok3 := sys.Unit(core.SDPDNSSD)
	if !ok1 || !ok2 || !ok3 {
		t.Fatal("gateway lacks its SLP, UPnP or DNS-SD unit")
	}
	return s.(*SLPUnit), u.(*UPnPUnit), d.(*DNSSDUnit)
}

// sendRaw writes payload from conn to dst, failing the test on error.
func sendRaw(t *testing.T, conn netapi.PacketConn, payload []byte, dst netapi.Addr) {
	t.Helper()
	if err := conn.WriteTo(payload, dst); err != nil {
		t.Fatal(err)
	}
}

// TestRepliesDropStrays sends the SLP, UPnP and DNS-SD units each a
// forged answer for the very key its next query will wait on, before that
// query asks. The readers must drop all three, so the queries that follow
// take the native services' answers, not the forgeries.
func TestRepliesDropStrays(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	clockDevice(t, n.MustAddHost("service", "10.0.0.2"))
	thermometerAgent(t, n.MustAddHost("slp-service", "10.0.0.3"))
	lampResponder(t, n.MustAddHost("dnssd-service", "10.0.0.4"))
	sys := coldGateway(t, n.MustAddHost("gateway", "10.0.0.9"))
	slpUnit, upnpUnit, dnssdUnit := unitsOf(t, sys)
	rogue, err := n.MustAddHost("rogue", "10.0.0.66").ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rogue.Close)

	// The forgeries, then a sentinel of the same size on a key the test
	// itself awaits: once the sentinel is delivered, the reader, which
	// takes its socket's datagrams in order, has handled the forgery.
	srvRply := func(xid uint16) []byte {
		data, err := (&slp.SrvRply{
			Hdr:  slp.Header{XID: xid, Lang: slp.DefaultLang},
			URLs: []slp.URLEntry{{Lifetime: 60, URL: "service:thermometer://10.6.6.6:1"}},
		}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	nextXID := uint16(slpUnit.xid.Load() + 1)
	const sentinelXID = 0xbeef
	sentinel := slpUnit.replies.await(sentinelXID)
	sendRaw(t, rogue, srvRply(nextXID), slpUnit.conn.LocalAddr())
	sendRaw(t, rogue, srvRply(sentinelXID), slpUnit.conn.LocalAddr())
	if _, ok := sentinel.wait(nil); !ok {
		t.Fatal("the SLP unit's reader never delivered the sentinel")
	}
	slpUnit.replies.done(sentinelXID, sentinel)

	searchResponse := func(st string) []byte {
		return (&ssdp.SearchResponse{
			ST: st, USN: "uuid:forged::" + st, Location: "http://10.6.6.6:1/description.xml",
			Server: "forged/1.0 UPnP/1.0", MaxAge: 1800,
		}).Marshal()
	}
	clockST := upnp.TypeURN("clock", 1)
	sentinelST := strings.TrimSuffix(clockST, "1") + "9"
	ssdpSentinel := upnpUnit.replies.await(sentinelST)
	sendRaw(t, rogue, searchResponse(clockST), upnpUnit.conn.LocalAddr())
	sendRaw(t, rogue, searchResponse(sentinelST), upnpUnit.conn.LocalAddr())
	if _, ok := ssdpSentinel.wait(nil); !ok {
		t.Fatal("the UPnP unit's reader never delivered the sentinel")
	}
	upnpUnit.replies.done(sentinelST, ssdpSentinel)

	// The DNS-SD reader publishes what answers a live follow-up, and puts
	// it in the view first: the sentinel is a follow-up the test opens
	// itself, and its answer is in the view once the forgery before it
	// was handled.
	mdnsAnswer := func(id uint16, kind, ip string) []byte {
		instance := dnssd.InstanceName("Forged", dnssd.ServiceType(kind))
		return (&dnssd.Message{ID: id, Response: true, Authoritative: true,
			Answers: []dnssd.Record{{Name: dnssd.ServiceType(kind), Type: dnssd.TypePTR, TTL: 120, Target: instance}},
			Additional: []dnssd.Record{
				{Name: instance, Type: dnssd.TypeSRV, TTL: 120, Port: 1, Target: "forged.local."},
				{Name: "forged.local.", Type: dnssd.TypeA, TTL: 120, IP: ip},
			},
		}).Marshal()
	}
	nextID := uint16(dnssdUnit.id.Load() + 1)
	const sentinelID = 0xbeef
	dnssdUnit.mu.Lock()
	dnssdUnit.followUps[sentinelID] = followUp{reqID: "sentinel", expires: time.Now().Add(time.Hour)}
	dnssdUnit.mu.Unlock()
	sendRaw(t, rogue, mdnsAnswer(nextID, "lamp", "10.6.6.6"), dnssdUnit.conn.LocalAddr())
	sendRaw(t, rogue, mdnsAnswer(sentinelID, "sentinel", "10.6.6.7"), dnssdUnit.conn.LocalAddr())
	deadline := time.Now().Add(5 * time.Second)
	for len(sys.View().Find("sentinel", time.Now())) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the DNS-SD unit's reader never published the sentinel")
		}
		time.Sleep(time.Millisecond)
	}

	// The DNS-SD unit's next query asks with nextID: this is the first
	// lookup that crosses into DNS-SD.
	rply, err := askSLP(clientHost, 2, "service:lamp", 5*time.Second)
	if err != nil {
		t.Fatalf("SLP client, DNS-SD lamp: %v", err)
	}
	if got := rply.URLs[0].URL; got != lampURL {
		t.Errorf("SLP client got %q, want the native responder's %q", got, lampURL)
	}

	// The SLP unit's next query asks with nextXID.
	cp := upnp.NewControlPoint(clientHost, upnp.ControlPointConfig{Timeout: 5 * time.Second})
	dev, err := cp.Discover(upnp.TypeURN("thermometer", 1), 0)
	if err != nil {
		t.Fatalf("UPnP client: %v", err)
	}
	if dev.Desc.ModelURL != thermometerURL {
		t.Errorf("UPnP client got %q, want the native SA's %q", dev.Desc.ModelURL, thermometerURL)
	}
	// The UPnP unit's next query asks for clockST.
	rply, err = askSLP(clientHost, 1, "service:clock", 5*time.Second)
	if err != nil {
		t.Fatalf("SLP client: %v", err)
	}
	if got := rply.URLs[0].URL; !strings.HasPrefix(got, "service:clock:soap://10.0.0.2:") {
		t.Errorf("SLP client got %q, want the native clock's endpoint", got)
	}
	for _, kind := range []string{"lamp", "clock", "thermometer"} {
		for _, rec := range sys.View().Find(kind, time.Now()) {
			if strings.Contains(rec.URL, "10.6.6.") {
				t.Errorf("a forged answer reached the view: %+v", rec)
			}
		}
	}
}

// countingStack counts the UDP sockets bound through it.
type countingStack struct {
	netapi.Stack
	udpBinds atomic.Int64
}

func (s *countingStack) ListenUDP(port int) (netapi.PacketConn, error) {
	s.udpBinds.Add(1)
	return s.Stack.ListenUDP(port)
}

// TestRepliesBindNoSocketPerQuery: once started, the units send their
// native queries from the sockets they own, so lookups through a NoCache
// gateway bind no UDP socket at all, though every lookup starts a
// follow-up in each of the three other units.
func TestRepliesBindNoSocketPerQuery(t *testing.T) {
	const lookups = 8
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	clockDevice(t, n.MustAddHost("service", "10.0.0.2"))
	thermometerAgent(t, n.MustAddHost("slp-service", "10.0.0.3"))
	lampResponder(t, n.MustAddHost("dnssd-service", "10.0.0.4"))
	stack := &countingStack{Stack: n.MustAddHost("gateway", "10.0.0.9")}
	coldGateway(t, stack)

	before := stack.udpBinds.Load()
	c := ssdp.NewClient(clientHost, ssdp.ClientConfig{})
	for i := 0; i < lookups; i++ {
		if _, err := askSLP(clientHost, uint16(2*i+1), "service:clock", 5*time.Second); err != nil {
			t.Fatalf("SLP lookup %d: %v", i, err)
		}
		if _, err := c.SearchFirst(upnp.TypeURN("thermometer", 1), 0, 5*time.Second); err != nil {
			t.Fatalf("UPnP lookup %d: %v", i, err)
		}
		rply, err := askSLP(clientHost, uint16(2*i+2), "service:lamp", 5*time.Second)
		if err != nil {
			t.Fatalf("SLP lookup %d into DNS-SD: %v", i, err)
		}
		if got := rply.URLs[0].URL; got != lampURL {
			t.Fatalf("SLP lookup %d into DNS-SD got %q, want %q", i, got, lampURL)
		}
	}
	if got := stack.udpBinds.Load() - before; got != 0 {
		t.Errorf("%d bridged lookups bound %d UDP sockets on the gateway, want 0", 3*lookups, got)
	}
}

// replyReaders matches the frame of a running unit reply reader in a
// goroutine dump.
var replyReaders = regexp.MustCompile(`units\.\(\*(SLP|UPnP|DNSSD|Jini)Unit\)\.readReplies\(`)

func countReplyReaders() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return len(replyReaders.FindAll(buf[:n], -1))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestRepliesReadersStopOnClose: each unit runs one reader, and Close
// leaves none running.
func TestRepliesReadersStopOnClose(t *testing.T) {
	n := newNet(t)
	before := countReplyReaders()
	sys := coldGateway(t, n.MustAddHost("gateway", "10.0.0.9"))
	deadline := time.Now().Add(5 * time.Second)
	for countReplyReaders() != before+4 {
		if time.Now().After(deadline) {
			t.Fatalf("%d reply readers running beside the %d before Start, want 4", countReplyReaders()-before, before)
		}
		time.Sleep(time.Millisecond)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if got := countReplyReaders(); got != before {
		t.Errorf("%d reply readers still running after Close", got-before)
	}
}

// TestRepliesStopWithQueryInFlight closes a NoCache gateway, with no
// native Jini registrar present, while its units wait on native queries
// nobody will answer. Close must not wait the queries out.
func TestRepliesStopWithQueryInFlight(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	watcher := n.MustAddHost("watcher", "10.0.0.3")
	sys := coldGateway(t, n.MustAddHost("gateway", "10.0.0.9"))

	watch := func(port int, group string) netapi.PacketConn {
		conn, err := watcher.ListenUDP(port)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(conn.Close)
		if err := conn.JoinGroup(group); err != nil {
			t.Fatal(err)
		}
		return conn
	}
	slpWatch := watch(slp.Port, slp.MulticastGroup)
	ssdpWatch := watch(ssdp.Port, ssdp.MulticastGroup)
	mdnsWatch := watch(dnssd.Port, dnssd.MulticastGroup)

	client, err := clientHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	rqst, err := (&slp.SrvRqst{
		Hdr:         slp.Header{XID: 7, Flags: slp.FlagRequestMcast, Lang: slp.DefaultLang},
		ServiceType: "service:nothing",
		Scopes:      []string{slp.DefaultScope},
	}).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	sendRaw(t, client, rqst, netapi.Addr{IP: slp.MulticastGroup, Port: slp.Port})
	search := &ssdp.SearchRequest{ST: upnp.TypeURN("nothing", 1)}
	sendRaw(t, client, search.Marshal(), netapi.Addr{IP: ssdp.MulticastGroup, Port: ssdp.Port})

	// Each unit's query is in flight once the watcher hears it.
	awaitBridgeQuery := func(conn netapi.PacketConn, isBridgeQuery func([]byte) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				t.Fatal("the gateway never sent its native query")
			}
			dg, err := conn.Recv(remaining)
			if err != nil {
				t.Fatalf("the gateway never sent its native query: %v", err)
			}
			if isBridgeQuery(dg.Payload) {
				return
			}
		}
	}
	awaitBridgeQuery(ssdpWatch, func(b []byte) bool {
		m, err := ssdp.Parse(b)
		s, ok := m.(*ssdp.SearchRequest)
		return err == nil && ok && isBridgeProduct(s.UserAgent)
	})
	awaitBridgeQuery(slpWatch, func(b []byte) bool {
		m, err := slp.Parse(b)
		r, ok := m.(*slp.SrvRqst)
		return err == nil && ok && strings.Contains(strings.Join(r.Scopes, ","), slpBridgeScope)
	})
	awaitBridgeQuery(mdnsWatch, func(b []byte) bool {
		m, err := dnssd.Parse(b)
		return err == nil && !m.Response && len(m.Questions) > 0 &&
			strings.EqualFold(m.Questions[0].Name, dnssd.ServiceType("nothing"))
	})

	start := time.Now()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("Close took %v with bridged queries in flight, want under 100ms", d)
	}
}

// TestRepliesNoDiscoveryStorm makes one SLP lookup for a kind nobody
// offers through a default gateway running every unit, with no native
// Jini registrar on the segment. The lookup starts a follow-up in each
// other unit; the Jini unit's must not go looking for a registrar. The
// gateway multicasts one Jini discovery request, from Start, and no bus
// request names the gateway's own address, as one would if its monitor
// re-detected a discovery request the gateway sent.
func TestRepliesNoDiscoveryStorm(t *testing.T) {
	n := newNet(t)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	watch, err := n.MustAddHost("watcher", "10.0.0.3").ListenUDP(jini.Port)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(watch.Close)
	if err := watch.JoinGroup(jini.RequestGroup); err != nil {
		t.Fatal(err)
	}
	gatewayHost := n.MustAddHost("gateway", "10.0.0.9")
	sys := indissOn(t, gatewayHost, core.RoleGateway)

	var selfRequests atomic.Int64
	sys.Bus().Subscribe("test-tap", events.ListenerFunc(func(env events.Envelope) {
		s := env.Stream
		if s.Has(events.ServiceRequest) && strings.Contains(s.FirstData(events.ReqID), gatewayHost.IP()+":") {
			selfRequests.Add(1)
		}
		env.Release()
	}))

	if _, err := askSLP(clientHost, 1, "service:nothing", 200*time.Millisecond); err == nil {
		t.Fatal("a lookup for a kind nobody offers was answered")
	}
	// A follow-up that went looking would keep at it for up to
	// queryTimeout; a tenth of it shows whether one started.
	time.Sleep(queryTimeout / 10)

	requests := 0
	for {
		dg, err := watch.Recv(time.Millisecond)
		if err != nil {
			break
		}
		if kind, _, err := jini.OpenPacket(dg.Payload); err == nil && kind == jini.KindRequestPacket && dg.Src.IP == gatewayHost.IP() {
			requests++
		}
	}
	if requests != 1 {
		t.Errorf("the gateway multicast %d Jini discovery requests, want the 1 from Start", requests)
	}
	if got := selfRequests.Load(); got != 0 {
		t.Errorf("%d request streams on the bus name the gateway's own address, want 0", got)
	}
}

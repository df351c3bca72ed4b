package slp

import (
	"errors"
	"strings"
	"testing"
	"time"

	"indiss/internal/simnet"
)

// testbed wires a two-host network: a client host and a service host.
func testbed(t *testing.T, cfg simnet.Config) (*simnet.Network, *simnet.Host, *simnet.Host) {
	t.Helper()
	n := simnet.New(cfg)
	t.Cleanup(n.Close)
	client := n.MustAddHost("client", "10.0.0.1")
	service := n.MustAddHost("service", "10.0.0.2")
	return n, client, service
}

func TestActiveDiscoveryRepositoryLess(t *testing.T) {
	// Paper §2: "with a repository-less active discovery model ...
	// clients perform periodically multicast requests to discover
	// needed services and the latter are listening to these requests."
	_, clientHost, serviceHost := testbed(t, simnet.Config{})

	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatalf("NewServiceAgent: %v", err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005",
		time.Hour, AttrList{{Name: "location", Values: []string{"hall"}}}); err != nil {
		t.Fatalf("Register: %v", err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", time.Second)
	if err != nil {
		t.Fatalf("FindFirst: %v", err)
	}
	if len(urls) != 1 || urls[0].URL != "service:clock://10.0.0.2:4005" {
		t.Errorf("urls = %+v", urls)
	}
}

func TestFindFirstNoMatchTimesOut(t *testing.T) {
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	_, err = ua.FindFirst("service:fax", "", 50*time.Millisecond)
	if !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("err = %v, want timeout (multicast misses are silent)", err)
	}
}

func TestPredicateFiltersAtAgent(t *testing.T) {
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005",
		time.Hour, AttrList{{Name: "location", Values: []string{"hall"}}}); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	if _, err := ua.FindFirst("service:clock", "(location=hall)", time.Second); err != nil {
		t.Errorf("matching predicate failed: %v", err)
	}
	if _, err := ua.FindFirst("service:clock", "(location=kitchen)", 50*time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("non-matching predicate: err = %v, want timeout", err)
	}
}

func TestFindServicesConvergenceAcrossAgents(t *testing.T) {
	// Multiple SAs answer one convergence round; the PRList silences
	// them on retransmission and all URLs are collected.
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	clientHost := n.MustAddHost("client", "10.0.0.1")

	for i, ip := range []string{"10.0.0.2", "10.0.0.3", "10.0.0.4"} {
		h := n.MustAddHost("svc"+string(rune('a'+i)), ip)
		sa, err := NewServiceAgent(h, AgentConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer sa.Close()
		if err := sa.Register("service:clock", "service:clock://"+ip+":4005", time.Hour, nil); err != nil {
			t.Fatal(err)
		}
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	urls, err := ua.FindServices("service:clock", "")
	if err != nil {
		t.Fatalf("FindServices: %v", err)
	}
	if len(urls) != 3 {
		t.Errorf("found %d services, want 3: %+v", len(urls), urls)
	}
}

func TestConvergenceSurvivesPacketLoss(t *testing.T) {
	// With 30% loss, retransmission within the convergence window must
	// still find the service.
	n := simnet.New(simnet.Config{LossRate: 0.3, Seed: 11})
	t.Cleanup(n.Close)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	urls, err := ua.FindServices("service:clock", "")
	if err != nil {
		t.Fatalf("FindServices under loss: %v", err)
	}
	if len(urls) != 1 {
		t.Errorf("urls = %+v", urls)
	}
}

// TestServiceAgentIgnoresDAAdvert: a DAAdvert, here forged and sent
// unicast by a stranger, draws no SrvReg from a service agent: neither for
// the registrations it holds nor for the next one.
func TestServiceAgentIgnoresDAAdvert(t *testing.T) {
	_, strangerHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	for _, url := range []string{"service:clock://10.0.0.2:4005", "service:clock://10.0.0.2:4006"} {
		if err := sa.Register("service:clock", url, time.Hour, nil); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := strangerHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	saAddr := simnet.Addr{IP: "10.0.0.2", Port: Port}
	send := func(m Message) {
		t.Helper()
		data, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.WriteTo(data, saAddr); err != nil {
			t.Fatal(err)
		}
	}
	// The agent serves one datagram at a time, so once it answers a
	// unicast SrvRqst sent after the advert, it has handled the advert.
	srvRegs := 0
	barrier := func(xid uint16) {
		t.Helper()
		send(&SrvRqst{Hdr: Header{XID: xid}, ServiceType: "service:clock", Scopes: []string{DefaultScope}})
		for {
			dg, err := conn.Recv(time.Second)
			if err != nil {
				t.Fatalf("no SrvRply to request %d: %v", xid, err)
			}
			msg, _ := Parse(dg.Payload)
			switch m := msg.(type) {
			case *SrvReg:
				srvRegs++
			case *SrvRply:
				if m.Hdr.XID == xid {
					return
				}
			}
		}
	}

	send(&DAAdvert{
		Hdr:           Header{XID: 1},
		BootTimestamp: uint32(time.Now().Unix()),
		URL:           "service:directory-agent://10.0.0.1",
		Scopes:        []string{DefaultScope},
	})
	barrier(2)
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4007", time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	barrier(3)
	if srvRegs != 0 {
		t.Errorf("service agent sent %d SrvRegs to the advert's sender, want 0", srvRegs)
	}
}

func TestPassiveDiscoveryViaSAAdvert(t *testing.T) {
	// Paper §2: "a passive discovery model means that the client is
	// listening on a multicast group address ... services periodically
	// send out multicast announcement of their existence."
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	sa, err := NewServiceAgent(serviceHost, AgentConfig{AnnounceInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	// Passive client: joins the group and just listens.
	conn, err := clientHost.ListenUDP(Port)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.JoinGroup(MulticastGroup); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		dg, err := conn.Recv(time.Until(deadline))
		if err != nil {
			t.Fatalf("no SAAdvert heard: %v", err)
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		adv, ok := msg.(*SAAdvert)
		if !ok {
			continue
		}
		if !strings.Contains(adv.Attrs, "service:clock") {
			t.Errorf("advert attrs = %q", adv.Attrs)
		}
		return
	}
}

func TestAttrRqstAgainstSA(t *testing.T) {
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	attrs := AttrList{
		{Name: "location", Values: []string{"hall"}},
		{Name: "model", Values: []string{"X"}},
	}
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, attrs); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	got, err := ua.FindAttrs("service:clock://10.0.0.2:4005", time.Second)
	if err != nil {
		t.Fatalf("FindAttrs: %v", err)
	}
	if got.First("location") != "hall" || got.First("model") != "X" {
		t.Errorf("attrs = %+v", got)
	}

	// By type rather than URL.
	got, err = ua.FindAttrs("service:clock", time.Second)
	if err != nil {
		t.Fatalf("FindAttrs by type: %v", err)
	}
	if got.First("location") != "hall" {
		t.Errorf("attrs by type = %+v", got)
	}
}

func TestSrvTypeRqstAgainstSA(t *testing.T) {
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	if err := sa.Register("service:printer:lpr", "service:printer:lpr://10.0.0.2:515", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	types, err := ua.FindTypes(200 * time.Millisecond)
	if err != nil {
		t.Fatalf("FindTypes: %v", err)
	}
	if len(types) != 2 {
		t.Errorf("types = %v", types)
	}
}

func TestScopeMismatchIgnoredOnMulticast(t *testing.T) {
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{Scopes: []string{"LAB"}})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{Scopes: []string{"HOME"}})
	if _, err := ua.FindFirst("service:clock", "", 50*time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("err = %v, want silence on scope mismatch", err)
	}
}

func TestServiceAgentAnswersSAAdvertRequest(t *testing.T) {
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()

	conn, err := clientHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := &SrvRqst{
		Hdr:         Header{XID: 77, Flags: FlagRequestMcast},
		ServiceType: "service:service-agent",
	}
	data, err := req.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.WriteTo(data, groupAddr()); err != nil {
		t.Fatal(err)
	}
	dg, err := conn.Recv(time.Second)
	if err != nil {
		t.Fatalf("no SAAdvert reply: %v", err)
	}
	msg, err := Parse(dg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	adv, ok := msg.(*SAAdvert)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	if adv.URL != "service:service-agent://10.0.0.2" || adv.Hdr.XID != 77 {
		t.Errorf("advert = %+v", adv)
	}
}

func TestDeregisterStopsAnswers(t *testing.T) {
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}
	if err := sa.Deregister("service:clock://10.0.0.2:4005"); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{})
	if _, err := ua.FindFirst("service:clock", "", 50*time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("err = %v, want timeout after deregister", err)
	}
}

func TestProcessingDelaySlowsExchange(t *testing.T) {
	const delay = 10 * time.Millisecond
	_, clientHost, serviceHost := testbed(t, simnet.Config{})
	sa, err := NewServiceAgent(serviceHost, AgentConfig{ProcessingDelay: delay})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	ua := NewUserAgent(clientHost, AgentConfig{ProcessingDelay: delay})
	start := time.Now()
	if _, err := ua.FindFirst("service:clock", "", time.Second); err != nil {
		t.Fatal(err)
	}
	// UA delays on send + on reply, SA on request: >= 3 delays total.
	if elapsed := time.Since(start); elapsed < 3*delay {
		t.Errorf("exchange took %v, want >= %v", elapsed, 3*delay)
	}
}

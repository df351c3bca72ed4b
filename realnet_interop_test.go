package indiss_test

import (
	"strings"
	"testing"
	"time"

	"indiss"
	"indiss/internal/jini"
	"indiss/internal/realnet"
	"indiss/internal/slp"
	"indiss/internal/upnp"
)

// realLoopbackStack opens a loopback realnet stack or skips the test
// when the environment has no usable loopback interface.
func realLoopbackStack(t *testing.T, name string) *realnet.Stack {
	t.Helper()
	s, err := realnet.Loopback(name)
	if err != nil {
		t.Skipf("no loopback interface: %v", err)
	}
	return s
}

// requireRealMulticast skips multicast-dependent tests with the probe's
// reason when the environment forbids joining groups (some containers
// and locked-down hosts reject IP_ADD_MEMBERSHIP).
func requireRealMulticast(t *testing.T, s *realnet.Stack) {
	t.Helper()
	if err := s.ProbeMulticast(2 * time.Second); err != nil {
		t.Skipf("environment forbids multicast: %v", err)
	}
}

// TestRealLoopbackInterop is the live-socket analogue of the simulated
// interop tests: a client-side and a service-side INDISS instance deploy
// over realnet loopback (both on 127.0.0.1, sharing the SDP ports via
// SO_REUSEADDR), a native UPnP clock device answers on real sockets, and
// a native SLP user agent discovers it across the protocol boundary.
func TestRealLoopbackInterop(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short: binds live loopback sockets and joins real multicast groups")
	}
	clientStack := realLoopbackStack(t, "real-client")
	serviceStack := realLoopbackStack(t, "real-service")
	requireRealMulticast(t, clientStack)

	serviceSide, err := indiss.Deploy(serviceStack, indiss.Config{
		Role: indiss.RoleServiceSide,
		SDPs: []indiss.SDP{indiss.SLP, indiss.UPnP},
	})
	if err != nil {
		t.Fatalf("Deploy service-side: %v", err)
	}
	defer serviceSide.Close()
	clientSide, err := indiss.Deploy(clientStack, indiss.Config{
		Role: indiss.RoleClientSide,
		SDPs: []indiss.SDP{indiss.SLP, indiss.UPnP},
	})
	if err != nil {
		t.Fatalf("Deploy client-side: %v", err)
	}
	defer clientSide.Close()

	dev, err := upnp.NewRootDevice(serviceStack, upnp.DeviceConfig{
		Kind:         "clock",
		FriendlyName: "Real Loopback Clock",
		Services:     []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		t.Fatalf("NewRootDevice: %v", err)
	}
	defer dev.Close()

	ua := slp.NewUserAgent(clientStack, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", 8*time.Second)
	if err != nil {
		t.Fatalf("SLP client found no clock through the live bridge: %v", err)
	}
	if len(urls) == 0 {
		t.Fatal("FindFirst returned no URLs")
	}
	t.Logf("SLP client discovered the UPnP clock at %s over real sockets", urls[0].URL)
}

// TestRealLoopbackInteropNoCache drives the cold bridged path over live
// sockets: a NoCache SLP+UPnP gateway on a realnet loopback stack answers
// every SLP lookup with a fresh M-SEARCH from its UPnP unit's socket, the
// native clock's answer routed back by search target, and a description
// fetch, so each of the 50 lookups crosses the bridge.
func TestRealLoopbackInteropNoCache(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short: binds live loopback sockets and joins real multicast groups")
	}
	gatewayStack := realLoopbackStack(t, "real-gateway")
	deviceStack := realLoopbackStack(t, "real-device")
	clientStack := realLoopbackStack(t, "real-client")
	requireRealMulticast(t, gatewayStack)

	gateway, err := indiss.Deploy(gatewayStack, indiss.Config{
		Role:    indiss.RoleGateway,
		SDPs:    []indiss.SDP{indiss.SLP, indiss.UPnP},
		NoCache: true,
	})
	if err != nil {
		t.Fatalf("Deploy gateway: %v", err)
	}
	defer gateway.Close()
	dev, err := upnp.NewRootDevice(deviceStack, upnp.DeviceConfig{
		Kind:         "clock",
		FriendlyName: "Real Loopback Clock",
		Services:     []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		t.Fatalf("NewRootDevice: %v", err)
	}
	defer dev.Close()

	ua := slp.NewUserAgent(clientStack, slp.AgentConfig{})
	const lookups = 50
	start := time.Now()
	for i := 0; i < lookups; i++ {
		urls, err := ua.FindFirst("service:clock", "", 8*time.Second)
		if err != nil {
			t.Fatalf("lookup %d: SLP client found no clock through the live bridge: %v", i, err)
		}
		if len(urls) == 0 || !strings.HasPrefix(urls[0].URL, "service:clock:soap://") {
			t.Fatalf("lookup %d: got %v, want the clock's SOAP endpoint", i, urls)
		}
	}
	t.Logf("%d cold bridged lookups over real sockets took %v", lookups, time.Since(start))
}

// TestRealLoopbackInteropJiniOnGatewayHost runs a native Jini lookup
// service on the gateway's own address, booted after the gateway: its
// announcements leave from 127.0.0.1:4160, the address the bridge
// registrar announces from too. The gateway must still adopt it, so an
// SLP lookup through the NoCache gateway reaches its item.
func TestRealLoopbackInteropJiniOnGatewayHost(t *testing.T) {
	if testing.Short() {
		t.Skip("skipped in -short: binds live loopback sockets and joins real multicast groups")
	}
	gatewayStack := realLoopbackStack(t, "real-gateway")
	lookupStack := realLoopbackStack(t, "real-lookup")
	clientStack := realLoopbackStack(t, "real-client")
	requireRealMulticast(t, gatewayStack)

	gateway, err := indiss.Deploy(gatewayStack, indiss.Config{
		Role:    indiss.RoleGateway,
		SDPs:    []indiss.SDP{indiss.SLP, indiss.Jini},
		NoCache: true,
	})
	if err != nil {
		t.Fatalf("Deploy gateway: %v", err)
	}
	defer gateway.Close()
	ls, err := jini.NewLookupService(lookupStack, jini.LookupConfig{AnnounceInterval: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("NewLookupService: %v", err)
	}
	defer ls.Close()
	if _, err := jini.NewClient(lookupStack, jini.ClientConfig{}).Register(ls.Locator(), jini.ServiceItem{
		Type: "net.jini.meter.Meter", Endpoint: "127.0.0.1:9100",
	}, time.Second); err != nil {
		t.Fatalf("Register: %v", err)
	}

	urls, err := slp.NewUserAgent(clientStack, slp.AgentConfig{}).FindFirst("service:meter", "", 8*time.Second)
	if err != nil {
		t.Fatalf("SLP client found no Jini meter through the live bridge: %v", err)
	}
	if urls[0].URL != "service:meter:127.0.0.1:9100" {
		t.Errorf("URL = %q, want the native Jini meter", urls[0].URL)
	}
}

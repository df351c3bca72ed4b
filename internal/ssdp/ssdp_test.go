package ssdp

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"indiss/internal/simnet"
)

func TestSearchRequestRoundTrip(t *testing.T) {
	m := &SearchRequest{ST: "urn:schemas-upnp-org:device:clock:1", MX: 3}
	msg, err := Parse(m.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	back, ok := msg.(*SearchRequest)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	if back.ST != m.ST || back.MX != 3 {
		t.Errorf("round trip: %+v", back)
	}
	if back.Host != "239.255.255.250:1900" {
		t.Errorf("default host = %q", back.Host)
	}
}

func TestSearchResponseRoundTrip(t *testing.T) {
	m := &SearchResponse{
		ST:       "upnp:rootdevice",
		USN:      "uuid:clock-10-0-0-2::upnp:rootdevice",
		Location: "http://10.0.0.2:4004/description.xml",
		Server:   "simnet/1.0 UPnP/1.0 indiss/1.0",
		MaxAge:   1800,
	}
	msg, err := Parse(m.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	back, ok := msg.(*SearchResponse)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	if *back != *m {
		t.Errorf("round trip:\n got %+v\nwant %+v", back, m)
	}
}

func TestNotifyRoundTrip(t *testing.T) {
	alive := &Notify{
		NT:       "urn:schemas-upnp-org:device:clock:1",
		NTS:      NTSAlive,
		USN:      "uuid:x::urn:schemas-upnp-org:device:clock:1",
		Location: "http://10.0.0.2:4004/description.xml",
		Server:   "test/1.0",
		MaxAge:   900,
	}
	msg, err := Parse(alive.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	back, ok := msg.(*Notify)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	if back.NTS != NTSAlive || back.Location != alive.Location || back.MaxAge != 900 {
		t.Errorf("round trip: %+v", back)
	}

	bye := &Notify{NT: alive.NT, NTS: NTSByeBye, USN: alive.USN}
	msg, err = Parse(bye.Marshal())
	if err != nil {
		t.Fatalf("Parse byebye: %v", err)
	}
	backBye, ok := msg.(*Notify)
	if !ok {
		t.Fatalf("got %T", msg)
	}
	if backBye.NTS != NTSByeBye || backBye.Location != "" {
		t.Errorf("byebye: %+v", backBye)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("not http"),
		[]byte("GET / HTTP/1.1\r\n\r\n"), // wrong method
		[]byte("M-SEARCH * HTTP/1.1\r\nMAN: \"ssdp:discover\"\r\n\r\n"),              // no ST
		[]byte("M-SEARCH * HTTP/1.1\r\nST: x\r\n\r\n"),                               // no MAN
		[]byte("M-SEARCH /path HTTP/1.1\r\nMAN: \"ssdp:discover\"\r\nST: x\r\n\r\n"), // bad target
		[]byte("NOTIFY * HTTP/1.1\r\nNT: x\r\nUSN: u\r\nNTS: bogus\r\n\r\n"),
		[]byte("NOTIFY * HTTP/1.1\r\nNTS: ssdp:alive\r\n\r\n"),
		[]byte("HTTP/1.1 404 Not Found\r\n\r\n"),
		[]byte("HTTP/1.1 200 OK\r\n\r\n"), // missing ST/USN
	}
	for _, data := range bad {
		if _, err := Parse(data); !errors.Is(err, ErrNotSSDP) {
			t.Errorf("Parse(%q) err = %v, want ErrNotSSDP", data, err)
		}
	}
}

func TestParseMaxAge(t *testing.T) {
	tests := []struct {
		cc   string
		want int
	}{
		{"max-age=1800", 1800},
		{"max-age = 60", 60},
		{"no-cache, max-age=5", 5},
		{"", 0},
		{"max-age=bogus", 0},
		{"max-age=-3", 0},
	}
	for _, tt := range tests {
		if got := parseMaxAge(tt.cc); got != tt.want {
			t.Errorf("parseMaxAge(%q) = %d, want %d", tt.cc, got, tt.want)
		}
	}
}

func TestTargetMatches(t *testing.T) {
	tests := []struct {
		st, nt string
		want   bool
	}{
		{TargetAll, "anything", true},
		{TargetRootDevice, TargetRootDevice, true},
		{"uuid:x", "uuid:x", true},
		{"uuid:x", "uuid:y", false},
		{"URN:schemas-upnp-org:device:clock:1", "urn:schemas-upnp-org:device:clock:1", true},
		{"urn:schemas-upnp-org:device:clock:1", "urn:schemas-upnp-org:device:light:1", false},
	}
	for _, tt := range tests {
		if got := TargetMatches(tt.st, tt.nt); got != tt.want {
			t.Errorf("TargetMatches(%q, %q) = %v, want %v", tt.st, tt.nt, got, tt.want)
		}
	}
}

func newNet(t *testing.T) (*simnet.Network, *simnet.Host, *simnet.Host) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	return n, n.MustAddHost("client", "10.0.0.1"), n.MustAddHost("device", "10.0.0.2")
}

func testAds() []Advertisement {
	loc := "http://10.0.0.2:4004/description.xml"
	return []Advertisement{
		{NT: TargetRootDevice, USN: "uuid:clock::upnp:rootdevice", Location: loc},
		{NT: "uuid:clock", USN: "uuid:clock", Location: loc},
		{NT: "urn:schemas-upnp-org:device:clock:1", USN: "uuid:clock::urn:schemas-upnp-org:device:clock:1", Location: loc},
	}
}

func TestServerAnswersMatchingSearch(t *testing.T) {
	_, clientHost, deviceHost := newNet(t)
	srv, err := NewServer(deviceHost, ServerConfig{}, testAds())
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()

	c := NewClient(clientHost, ClientConfig{})
	resp, err := c.SearchFirst("urn:schemas-upnp-org:device:clock:1", 0, time.Second)
	if err != nil {
		t.Fatalf("SearchFirst: %v", err)
	}
	if resp.ST != "urn:schemas-upnp-org:device:clock:1" {
		t.Errorf("ST = %q", resp.ST)
	}
	if resp.Location != "http://10.0.0.2:4004/description.xml" {
		t.Errorf("Location = %q", resp.Location)
	}
	if resp.MaxAge != 1800 {
		t.Errorf("MaxAge = %d", resp.MaxAge)
	}
}

func TestServerSilentOnMismatch(t *testing.T) {
	_, clientHost, deviceHost := newNet(t)
	srv, err := NewServer(deviceHost, ServerConfig{}, testAds())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(clientHost, ClientConfig{})
	if _, err := c.SearchFirst("urn:schemas-upnp-org:device:light:1", 0, 50*time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
}

func TestServerSsdpAllReturnsEverything(t *testing.T) {
	_, clientHost, deviceHost := newNet(t)
	srv, err := NewServer(deviceHost, ServerConfig{}, testAds())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(clientHost, ClientConfig{})
	resps, err := c.Search(TargetAll, 0, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(resps) != 3 {
		t.Errorf("got %d responses, want 3", len(resps))
	}
	for _, r := range resps {
		if r.ST == TargetAll {
			t.Errorf("ST should echo the advertisement NT, got ssdp:all")
		}
	}
}

func TestNotificationsAliveAndByeBye(t *testing.T) {
	_, clientHost, deviceHost := newNet(t)

	var mu sync.Mutex
	var notifies []Notify
	l, err := Listen(clientHost, func(n *Notify) {
		mu.Lock()
		notifies = append(notifies, *n)
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer l.Close()

	srv, err := NewServer(deviceHost, ServerConfig{}, testAds())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the three boot alives.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(notifies) >= 3
	}, "boot alive notifications")

	srv.Close() // three byebyes
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		byes := 0
		for _, n := range notifies {
			if n.NTS == NTSByeBye {
				byes++
			}
		}
		return byes >= 3
	}, "byebye notifications")
}

func TestPeriodicNotify(t *testing.T) {
	_, clientHost, deviceHost := newNet(t)
	var mu sync.Mutex
	count := 0
	l, err := Listen(clientHost, func(n *Notify) {
		if n.NTS == NTSAlive {
			mu.Lock()
			count++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	srv, err := NewServer(deviceHost, ServerConfig{NotifyInterval: 20 * time.Millisecond}, testAds()[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return count >= 3 // boot + at least two periodic rounds
	}, "periodic alive notifications")
}

func TestMXJitterDelaysResponse(t *testing.T) {
	_, clientHost, deviceHost := newNet(t)
	srv, err := NewServer(deviceHost, ServerConfig{Seed: 99}, testAds()[:1])
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c := NewClient(clientHost, ClientConfig{})
	// MX=1: response is delayed by up to 1s; just assert it arrives and
	// is valid rather than racing on the exact delay.
	resp, err := c.SearchFirst(TargetRootDevice, 1, 3*time.Second)
	if err != nil {
		t.Fatalf("SearchFirst with MX: %v", err)
	}
	if !strings.Contains(resp.USN, "uuid:clock") {
		t.Errorf("USN = %q", resp.USN)
	}
}

func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

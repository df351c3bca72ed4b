package jini

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"indiss/internal/simnet"
)

func newNet(t *testing.T) (*simnet.Host, *simnet.Host, *simnet.Host) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	return n.MustAddHost("client", "10.0.0.1"),
		n.MustAddHost("service", "10.0.0.2"),
		n.MustAddHost("lookup", "10.0.0.5")
}

func TestRequestAnnouncementRoundTrip(t *testing.T) {
	data, err := marshalRequest(request{Groups: []string{"public", "lab"}, ResponsePort: 40000})
	if err != nil {
		t.Fatal(err)
	}
	kind, r, err := openPacket(data)
	if err != nil || kind != kindRequest {
		t.Fatalf("openPacket: %v %v", kind, err)
	}
	back, err := parseRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Groups) != 2 || back.Groups[1] != "lab" || back.ResponsePort != 40000 {
		t.Errorf("round trip: %+v", back)
	}

	annData, err := marshalAnnouncement(announcement{
		Locator: Locator{Host: "10.0.0.5", Port: 4160},
		Groups:  []string{"public"},
	})
	if err != nil {
		t.Fatal(err)
	}
	kind, r, err = openPacket(annData)
	if err != nil || kind != kindAnnounce {
		t.Fatalf("openPacket: %v %v", kind, err)
	}
	ann, err := parseAnnouncement(r)
	if err != nil {
		t.Fatal(err)
	}
	if ann.Locator.String() != "jini://10.0.0.5:4160" {
		t.Errorf("locator = %v", ann.Locator)
	}
}

func TestOpenPacketErrors(t *testing.T) {
	if _, _, err := openPacket(nil); !errors.Is(err, ErrShort) {
		t.Errorf("nil: %v", err)
	}
	if _, _, err := openPacket([]byte{9, 1}); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version: %v", err)
	}
	if _, _, err := openPacket([]byte{1, 99}); !errors.Is(err, ErrBadPacket) {
		t.Errorf("kind: %v", err)
	}
}

func TestItemTemplateRoundTripProperty(t *testing.T) {
	f := func(idBytes [16]byte, typ, endpoint, an, av string) bool {
		item := ServiceItem{
			ID:       ServiceID(idBytes),
			Type:     typ,
			Endpoint: endpoint,
		}
		if an != "" {
			item.Attrs = []Entry{{Name: an, Value: av}}
		}
		w := newPacket(kindRegister)
		marshalItem(w, item)
		if w.err != nil {
			return len(typ) > 0xFFFF || len(endpoint) > 0xFFFF || len(an) > 0xFFFF || len(av) > 0xFFFF
		}
		_, r, err := openPacket(w.buf)
		if err != nil {
			return false
		}
		back := parseItem(r)
		if r.err != nil {
			return false
		}
		if back.ID != item.ID || back.Type != typ || back.Endpoint != endpoint {
			return false
		}
		if an != "" && (len(back.Attrs) != 1 || back.Attrs[0] != item.Attrs[0]) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTemplateMatching(t *testing.T) {
	id := ServiceID{1, 2, 3}
	item := ServiceItem{
		ID:       id,
		Type:     "net.jini.clock.Clock",
		Endpoint: "10.0.0.2:9000",
		Attrs:    []Entry{{Name: "location", Value: "hall"}},
	}
	tests := []struct {
		tmpl ServiceTemplate
		want bool
	}{
		{ServiceTemplate{}, true},
		{ServiceTemplate{ID: id}, true},
		{ServiceTemplate{ID: ServiceID{9}}, false},
		{ServiceTemplate{Type: "net.jini.clock.Clock"}, true},
		{ServiceTemplate{Type: "net.jini.clock"}, true}, // package prefix
		{ServiceTemplate{Type: "net.jini.clo"}, false},  // not at boundary
		{ServiceTemplate{Type: "net.jini.printer"}, false},
		{ServiceTemplate{Attrs: []Entry{{Name: "location", Value: "hall"}}}, true},
		{ServiceTemplate{Attrs: []Entry{{Name: "location", Value: ""}}}, true}, // presence
		{ServiceTemplate{Attrs: []Entry{{Name: "location", Value: "kitchen"}}}, false},
		{ServiceTemplate{Attrs: []Entry{{Name: "missing", Value: ""}}}, false},
	}
	for i, tt := range tests {
		if got := tt.tmpl.Matches(item); got != tt.want {
			t.Errorf("case %d: Matches = %v, want %v (%+v)", i, got, tt.want, tt.tmpl)
		}
	}
}

func TestActiveDiscoveryAndLookup(t *testing.T) {
	clientHost, serviceHost, lookupHost := newNet(t)

	ls, err := NewLookupService(lookupHost, LookupConfig{})
	if err != nil {
		t.Fatalf("NewLookupService: %v", err)
	}
	defer ls.Close()

	// The service registers via the discovery chain.
	svcClient := NewClient(serviceHost, ClientConfig{})
	loc, err := svcClient.DiscoverLookup(time.Second)
	if err != nil {
		t.Fatalf("DiscoverLookup: %v", err)
	}
	if loc.Host != "10.0.0.5" {
		t.Errorf("locator = %v", loc)
	}
	id, err := svcClient.Register(loc, ServiceItem{
		Type:     "net.jini.clock.Clock",
		Endpoint: "10.0.0.2:9000",
		Attrs:    []Entry{{Name: "location", Value: "hall"}},
	}, time.Second)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if id.IsZero() {
		t.Error("registrar did not assign an ID")
	}
	if ls.Count() != 1 {
		t.Errorf("Count = %d", ls.Count())
	}

	// The client runs the full chain.
	c := NewClient(clientHost, ClientConfig{})
	items, err := c.Find(ServiceTemplate{Type: "net.jini.clock.Clock"}, time.Second)
	if err != nil {
		t.Fatalf("Find: %v", err)
	}
	if len(items) != 1 || items[0].Endpoint != "10.0.0.2:9000" {
		t.Errorf("items = %+v", items)
	}
	if items[0].Attrs[0].Value != "hall" {
		t.Errorf("attrs = %+v", items[0].Attrs)
	}
}

func TestLookupTemplateFiltering(t *testing.T) {
	clientHost, _, lookupHost := newNet(t)
	ls, err := NewLookupService(lookupHost, LookupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	c := NewClient(clientHost, ClientConfig{})
	loc := ls.Locator()
	for _, item := range []ServiceItem{
		{Type: "net.jini.clock.Clock", Endpoint: "a"},
		{Type: "net.jini.printer.Printer", Endpoint: "b"},
	} {
		if _, err := c.Register(loc, item, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	items, err := c.Lookup(loc, ServiceTemplate{Type: "net.jini.printer.Printer"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Endpoint != "b" {
		t.Errorf("items = %+v", items)
	}
	items, err = c.Lookup(loc, ServiceTemplate{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 2 {
		t.Errorf("wildcard lookup = %+v", items)
	}
}

func TestPassiveAnnouncementListening(t *testing.T) {
	clientHost, _, lookupHost := newNet(t)
	ls, err := NewLookupService(lookupHost, LookupConfig{AnnounceInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	c := NewClient(clientHost, ClientConfig{})
	locs, err := c.ListenAnnouncements(100 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 1 || locs[0].Host != "10.0.0.5" {
		t.Errorf("locators = %+v", locs)
	}
}

func TestGroupFiltering(t *testing.T) {
	clientHost, _, lookupHost := newNet(t)
	ls, err := NewLookupService(lookupHost, LookupConfig{Groups: []string{"lab"}})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	// Mismatched group: the lookup service stays silent.
	c := NewClient(clientHost, ClientConfig{Groups: []string{"home"}})
	if _, err := c.DiscoverLookup(50 * time.Millisecond); !errors.Is(err, simnet.ErrTimeout) {
		t.Errorf("err = %v, want timeout", err)
	}
	// Matching group answers.
	c2 := NewClient(clientHost, ClientConfig{Groups: []string{"lab"}})
	if _, err := c2.DiscoverLookup(time.Second); err != nil {
		t.Errorf("matching group: %v", err)
	}
	// Empty group list means any.
	c3 := NewClient(clientHost, ClientConfig{})
	if _, err := c3.DiscoverLookup(time.Second); err != nil {
		t.Errorf("wildcard group: %v", err)
	}
}

func TestUnregister(t *testing.T) {
	clientHost, _, lookupHost := newNet(t)
	ls, err := NewLookupService(lookupHost, LookupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	c := NewClient(clientHost, ClientConfig{})
	id, err := c.Register(ls.Locator(), ServiceItem{Type: "x.Y", Endpoint: "e"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !ls.Unregister(id) {
		t.Error("Unregister reported failure")
	}
	if ls.Unregister(id) {
		t.Error("double Unregister reported success")
	}
	if ls.Count() != 0 {
		t.Errorf("Count = %d", ls.Count())
	}
}

func TestRegisterRejectsEmptyType(t *testing.T) {
	clientHost, _, lookupHost := newNet(t)
	ls, err := NewLookupService(lookupHost, LookupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	c := NewClient(clientHost, ClientConfig{})
	if _, err := c.Register(ls.Locator(), ServiceItem{Endpoint: "e"}, time.Second); err == nil {
		t.Error("empty type accepted")
	}
}

func TestServiceIDString(t *testing.T) {
	id := ServiceID{0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0}
	s := id.String()
	if s != "12345678-9abc-def0-0000-000000000000" {
		t.Errorf("String = %q", s)
	}
	if !(ServiceID{}).IsZero() || id.IsZero() {
		t.Error("IsZero misreported")
	}
}

// TestLookupOrdersByID: registered and supplied items come back merged,
// filtered by the template, in ServiceID.String() order.
func TestLookupOrdersByID(t *testing.T) {
	clientHost, _, lookupHost := newNet(t)
	supplied := []ServiceItem{
		{ID: ServiceID{0x0f, 0xff}, Type: "x.Y", Endpoint: "supplied-1"},
		{ID: ServiceID{0xf0}, Type: "x.Y", Endpoint: "supplied-2"},
		{ID: ServiceID{0x10}, Type: "other.Z", Endpoint: "wrong-type"},
	}
	ls, err := NewLookupService(lookupHost, LookupConfig{
		Items: func(ServiceTemplate) []ServiceItem { return supplied },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	c := NewClient(clientHost, ClientConfig{})
	for _, id := range []ServiceID{{0xa0}, {0x0a}, {0x00, 0x01}, {0xff, 0xff}, {0x0f, 0xfe, 0x01}} {
		if _, err := c.Register(ls.Locator(), ServiceItem{ID: id, Type: "x.Y", Endpoint: "registered"}, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	remote, err := c.Lookup(ls.Locator(), ServiceTemplate{Type: "x.Y"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, items := range [][]ServiceItem{ls.Lookup(ServiceTemplate{Type: "x.Y"}), remote} {
		if len(items) != 7 {
			t.Fatalf("lookup = %+v, want 5 registered + 2 supplied", items)
		}
		if !slices.IsSortedFunc(items, func(a, b ServiceItem) int {
			return strings.Compare(a.ID.String(), b.ID.String())
		}) {
			t.Errorf("lookup not in String() order: %+v", items)
		}
	}
}

func TestRegistrationIDsUnique(t *testing.T) {
	clientHost, _, lookupHost := newNet(t)
	ls, err := NewLookupService(lookupHost, LookupConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Close()

	c := NewClient(clientHost, ClientConfig{})
	seen := make(map[ServiceID]struct{})
	for i := 0; i < 5; i++ {
		id, err := c.Register(ls.Locator(), ServiceItem{Type: "x.Y", Endpoint: "e"}, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if _, dup := seen[id]; dup {
			t.Fatalf("duplicate ID %v", id)
		}
		seen[id] = struct{}{}
	}
	if ls.Count() != 5 {
		t.Errorf("Count = %d, want 5", ls.Count())
	}
}

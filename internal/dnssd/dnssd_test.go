package dnssd

import (
	"strings"
	"testing"
	"time"

	"indiss/internal/simnet"
)

func newNet(t *testing.T) *simnet.Network {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	return n
}

func TestNameHelpers(t *testing.T) {
	if got := ServiceType("clock"); got != "_clock._tcp.local." {
		t.Errorf("ServiceType = %q", got)
	}
	kind, ok := KindFromServiceType("_clock._tcp.local.")
	if !ok || kind != "clock" {
		t.Errorf("KindFromServiceType = %q, %v", kind, ok)
	}
	if kind, ok := KindFromServiceType("_printer._udp.local"); !ok || kind != "printer" {
		t.Errorf("udp/no-dot form = %q, %v", kind, ok)
	}
	for _, bad := range []string{MetaQuery, "clock._tcp.local.", "_._tcp.local.", "host.local."} {
		if _, ok := KindFromServiceType(bad); ok {
			t.Errorf("KindFromServiceType(%q) should fail", bad)
		}
	}
	if got := InstanceName("Clock", "_clock._tcp.local"); got != "Clock._clock._tcp.local." {
		t.Errorf("InstanceName = %q", got)
	}
	if !nameEqual("Clock._CLOCK._tcp.local", "clock._clock._tcp.local.") {
		t.Error("nameEqual should ignore case and trailing dot")
	}
}

func TestWireRoundTrip(t *testing.T) {
	msg := &Message{
		ID:            42,
		Response:      true,
		Authoritative: true,
		Questions:     []Question{{Name: "_clock._tcp.local.", Type: TypePTR, UnicastResponse: true}},
		Answers: []Record{{
			Name: "_clock._tcp.local.", Type: TypePTR, TTL: 120,
			Target: "Clock._clock._tcp.local.",
		}},
		Additional: []Record{
			{
				Name: "Clock._clock._tcp.local.", Type: TypeSRV, TTL: 120, CacheFlush: true,
				Priority: 1, Weight: 2, Port: 9000, Target: "host-10-0-0-2.local.",
			},
			{
				Name: "Clock._clock._tcp.local.", Type: TypeTXT, TTL: 120, CacheFlush: true,
				Text: []string{"friendlyName=Clock", "url=dnssd://10.0.0.2:9000"},
			},
			{Name: "host-10-0-0-2.local.", Type: TypeA, TTL: 120, CacheFlush: true, IP: "10.0.0.2"},
		},
	}
	got, err := Parse(msg.Marshal())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got.ID != 42 || !got.Response || !got.Authoritative {
		t.Errorf("header = %+v", got)
	}
	if len(got.Questions) != 1 || got.Questions[0].Name != "_clock._tcp.local." ||
		got.Questions[0].Type != TypePTR || !got.Questions[0].UnicastResponse {
		t.Errorf("questions = %+v", got.Questions)
	}
	if len(got.Answers) != 1 || got.Answers[0].Target != "Clock._clock._tcp.local." {
		t.Errorf("answers = %+v", got.Answers)
	}
	if len(got.Additional) != 3 {
		t.Fatalf("additional = %+v", got.Additional)
	}
	srv, txt, a := got.Additional[0], got.Additional[1], got.Additional[2]
	if srv.Priority != 1 || srv.Weight != 2 || srv.Port != 9000 ||
		srv.Target != "host-10-0-0-2.local." || !srv.CacheFlush {
		t.Errorf("SRV = %+v", srv)
	}
	if len(txt.Text) != 2 || txt.Text[0] != "friendlyName=Clock" {
		t.Errorf("TXT = %+v", txt)
	}
	if a.IP != "10.0.0.2" {
		t.Errorf("A = %+v", a)
	}
}

func TestOversizeTXTStringDropped(t *testing.T) {
	long := strings.Repeat("x", 300)
	msg := &Message{
		Response: true,
		Answers: []Record{{
			Name: "Clock._clock._tcp.local.", Type: TypeTXT, TTL: 120,
			Text: []string{"url=" + long, "ok=1"},
		}},
	}
	got, err := Parse(msg.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	// The oversize pair is absent (not truncated to a corrupt value);
	// the in-range pair survives.
	if len(got.Answers[0].Text) != 1 || got.Answers[0].Text[0] != "ok=1" {
		t.Errorf("TXT = %q", got.Answers[0].Text)
	}
}

func TestParseCompressedName(t *testing.T) {
	// Hand-built response: answer PTR whose RDATA name points back into
	// the question's name via a compression pointer.
	var b []byte
	b = be16(b, 0)      // ID
	b = be16(b, 0x8400) // QR|AA
	b = be16(b, 1)      // QDCOUNT
	b = be16(b, 1)      // ANCOUNT
	b = be16(b, 0)
	b = be16(b, 0)
	qnameAt := len(b)
	b = appendName(b, "_clock._tcp.local.")
	b = be16(b, TypePTR)
	b = be16(b, ClassIN)
	// Answer: NAME = pointer to qname.
	b = append(b, 0xC0|byte(qnameAt>>8), byte(qnameAt))
	b = be16(b, TypePTR)
	b = be16(b, ClassIN)
	b = append(b, 0, 0, 0, 120) // TTL
	// RDATA: "Clock" label + pointer to qname.
	rd := []byte{5, 'C', 'l', 'o', 'c', 'k', 0xC0 | byte(qnameAt>>8), byte(qnameAt)}
	b = be16(b, uint16(len(rd)))
	b = append(b, rd...)

	msg, err := Parse(b)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if msg.Answers[0].Name != "_clock._tcp.local." {
		t.Errorf("compressed owner name = %q", msg.Answers[0].Name)
	}
	if msg.Answers[0].Target != "Clock._clock._tcp.local." {
		t.Errorf("compressed target = %q", msg.Answers[0].Target)
	}
}

func TestParseRejectsHostileInput(t *testing.T) {
	valid := (&Message{Questions: []Question{{Name: "_clock._tcp.local.", Type: TypePTR}}}).Marshal()
	cases := map[string][]byte{
		"empty":     nil,
		"short":     valid[:8],
		"truncated": valid[:len(valid)-3],
	}
	// Self-referential compression pointer (classic loop).
	loop := append([]byte(nil), valid[:12]...)
	loop = append(loop, 0xC0, 12, 0, byte(TypePTR), 0, 1)
	cases["pointer loop"] = loop
	// Counts far beyond the data.
	huge := append([]byte(nil), valid...)
	huge[4], huge[5] = 0xFF, 0xFF
	cases["inflated counts"] = huge
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: Parse accepted malformed input", name)
		}
	}
}

func TestResponderAnswersBrowse(t *testing.T) {
	n := newNet(t)
	svcHost := n.MustAddHost("svc", "10.0.0.2")
	cliHost := n.MustAddHost("cli", "10.0.0.1")

	r, err := NewResponder(svcHost, ResponderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if err := r.Register(Registration{
		Instance: "Clock",
		Service:  ServiceType("clock"),
		Port:     9000,
		Text:     map[string]string{"friendlyName": "DNS-SD Clock"},
	}); err != nil {
		t.Fatal(err)
	}

	q := NewQuerier(cliHost)
	insts, err := q.Browse(ServiceType("clock"), 2*time.Second)
	if err != nil {
		t.Fatalf("Browse: %v", err)
	}
	if len(insts) != 1 {
		t.Fatalf("instances = %+v", insts)
	}
	inst := insts[0]
	if inst.Name != "Clock._clock._tcp.local." || inst.IP != "10.0.0.2" || inst.Port != 9000 {
		t.Errorf("instance = %+v", inst)
	}
	if inst.Text["friendlyName"] != "DNS-SD Clock" {
		t.Errorf("text = %+v", inst.Text)
	}
	if !strings.HasSuffix(inst.Host, ".local.") {
		t.Errorf("host = %q", inst.Host)
	}
}

func TestKnownAnswerSuppression(t *testing.T) {
	n := newNet(t)
	svcHost := n.MustAddHost("svc", "10.0.0.2")
	cliHost := n.MustAddHost("cli", "10.0.0.1")

	r, err := NewResponder(svcHost, ResponderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if err := r.Register(Registration{Instance: "Clock", Service: ServiceType("clock"), Port: 9000}); err != nil {
		t.Fatal(err)
	}

	q := NewQuerier(cliHost)
	if _, err := q.Browse(ServiceType("clock"), 2*time.Second); err != nil {
		t.Fatalf("first Browse: %v", err)
	}

	// Second browse: the cache answers and the responder must stay
	// silent (known-answer suppression). Count 5353-port packets.
	before := n.Metrics().Port(Port).Packets
	insts, err := q.Browse(ServiceType("clock"), 2*time.Second)
	if err != nil || len(insts) != 1 {
		t.Fatalf("second Browse: %v %+v", err, insts)
	}
	// The query itself is one packet; the responder must not answer.
	time.Sleep(50 * time.Millisecond)
	after := n.Metrics().Port(Port).Packets
	if after-before > 1 {
		t.Errorf("suppressed browse generated %d packets on %d, want 1 (query only)", after-before, Port)
	}

	// A goodbye evicts the cached instance — from this same querier's
	// cache, via its passive group listener, with no fresh Browse
	// needed to hear it.
	r.Unregister("Clock", ServiceType("clock"))
	deadline := time.Now().Add(time.Second)
	for {
		if _, err := q.Browse(ServiceType("clock"), 50*time.Millisecond); err != nil {
			break // gone
		}
		if time.Now().After(deadline) {
			t.Fatal("instance still served from cache after goodbye")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDirectSRVQueryAnswerSection: a direct SRV query must carry the
// SRV record in the Answer section (RFC 6762 §6), not buried in
// additionals behind an unrequested PTR.
func TestDirectSRVQueryAnswerSection(t *testing.T) {
	n := newNet(t)
	svcHost := n.MustAddHost("svc", "10.0.0.2")
	cliHost := n.MustAddHost("cli", "10.0.0.1")

	r, err := NewResponder(svcHost, ResponderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	if err := r.Register(Registration{Instance: "Clock", Service: ServiceType("clock"), Port: 9000}); err != nil {
		t.Fatal(err)
	}

	conn, err := cliHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	query := &Message{Questions: []Question{{Name: "Clock._clock._tcp.local.", Type: TypeSRV}}}
	if err := conn.WriteTo(query.Marshal(), simnet.Addr{IP: MulticastGroup, Port: Port}); err != nil {
		t.Fatal(err)
	}
	dg, err := conn.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("no answer to the SRV query: %v", err)
	}
	msg, err := Parse(dg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 1 || msg.Answers[0].Type != TypeSRV || msg.Answers[0].Port != 9000 {
		t.Errorf("Answer section = %+v, want the queried SRV", msg.Answers)
	}
}

func TestMetaQueryEnumeratesTypes(t *testing.T) {
	n := newNet(t)
	svcHost := n.MustAddHost("svc", "10.0.0.2")
	cliHost := n.MustAddHost("cli", "10.0.0.1")

	r, err := NewResponder(svcHost, ResponderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	for _, kind := range []string{"clock", "printer"} {
		if err := r.Register(Registration{Instance: "X-" + kind, Service: ServiceType(kind), Port: 9000}); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := cliHost.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	query := &Message{ID: 9, Questions: []Question{{Name: MetaQuery, Type: TypePTR}}}
	if err := conn.WriteTo(query.Marshal(), simnet.Addr{IP: MulticastGroup, Port: Port}); err != nil {
		t.Fatal(err)
	}
	dg, err := conn.Recv(2 * time.Second)
	if err != nil {
		t.Fatalf("no answer to the meta-query: %v", err)
	}
	msg, err := Parse(dg.Payload)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, r := range msg.Answers {
		if r.Type == TypePTR && nameEqual(r.Name, MetaQuery) {
			types = append(types, r.Target)
		}
	}
	if msg.ID != 9 || len(types) != 2 || types[0] != "_clock._tcp.local." || types[1] != "_printer._tcp.local." {
		t.Errorf("meta-query answer id %d, types %v", msg.ID, types)
	}
}

func TestInstancesFromGoodbye(t *testing.T) {
	msg := &Message{
		Response: true,
		Answers: []Record{{
			Name: "_clock._tcp.local.", Type: TypePTR, TTL: 0,
			Target: "Clock._clock._tcp.local.",
		}},
	}
	insts := InstancesFromMessage(msg)
	if len(insts) != 1 || insts[0].TTL != 0 {
		t.Errorf("goodbye instances = %+v", insts)
	}
}

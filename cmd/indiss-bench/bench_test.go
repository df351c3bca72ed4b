package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"indiss"
	"indiss/internal/core"
	"indiss/internal/netapi"
	"indiss/internal/slp"
)

// smokeTiming runs a workload in two short rounds; only the smoke test
// uses it.
var smokeTiming = timing{rounds: 2, warmup: 200 * time.Millisecond, window: 900 * time.Millisecond, setups: 2}

// TestSmokeEmitsEveryListedMetric runs every workload traced at smoke
// length and checks that each metric BENCHMARK.json names comes out
// finite, with no failed operation — so no metric that later changes
// are judged by can vanish unnoticed.
func TestSmokeEmitsEveryListedMetric(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	listed := append(spec.EndToEnd, spec.PerLayer...)
	code := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if len(listed) != len(code) {
		t.Fatalf("BENCHMARK.json lists %d metrics, the command %d", len(listed), len(code))
	}
	for i, m := range listed {
		if m.Name != code[i].name || m.Unit != code[i].unit {
			t.Errorf("metric %d: BENCHMARK.json has %s %s, the command %s %s", i, m.Name, m.Unit, code[i].name, code[i].unit)
		}
	}

	e := &env{seed: 1, traced: true, dataRoot: t.TempDir()}
	for _, w := range workloads {
		r, spans, err := runWorkload(w, e, smokeTiming)
		if err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 || r.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, r.failed, r.attempted, r.errs)
		}
		if len(spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
		for _, m := range listed {
			v, ok := r.get(m.Name)
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v (emitted %v)", w.name, m.Name, v, ok)
			}
		}
	}
}

// answerOne runs a single lookup of t through a client loop on host and
// returns the run's lookup failure ratio and the loop's error.
func answerOne(t *testing.T, host *indiss.Host, gwIP string, queryAddr netapi.Addr, tg target) (float64, error) {
	t.Helper()
	c, err := newClient(host, gwIP, queryAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	l := &loop{c: c}
	l.do(&deployment{targets: []target{tg}}, job{due: time.Now()}, false, time.Now())
	var p phase
	collect([]*loop{l}, &p)
	r := &report{}
	count(r, p)
	return ratio(float64(r.lookupFails), float64(r.lookups)), l.firstErr
}

// TestWrongEndpointFailsLookup: a reply to the lookup that names another
// endpoint than the service's is a failed lookup, not a slow one.
func TestWrongEndpointFailsLookup(t *testing.T) {
	const want = "service:clock:soap://10.0.0.12:4004/service/timer/control"
	for _, tc := range []struct {
		answer string
		ratio  float64
	}{
		{want, 0},
		{"service:clock:soap://10.0.0.66:4004/service/timer/control", 1},
	} {
		net := newFabric(1)
		seg := indiss.CampusSegment(1)
		conn, err := net.MustAddHostOn("gw", "10.0.0.9", seg).ListenUDP(slp.Port)
		if err != nil {
			t.Fatal(err)
		}
		if err := conn.JoinGroup(slp.MulticastGroup); err != nil {
			t.Fatal(err)
		}
		go func() { // an SLP answerer replying with tc.answer
			for {
				dg, err := conn.Recv(0)
				if err != nil {
					return
				}
				if rq, err := slp.Parse(dg.Payload); err == nil {
					data, _ := (&slp.SrvRply{Hdr: slp.Header{XID: rq.Header().XID, Lang: slp.DefaultLang},
						URLs: []slp.URLEntry{{Lifetime: 60, URL: tc.answer}}}).Marshal()
					_ = conn.WriteTo(data, dg.Src)
				}
			}
		}()
		got, err := answerOne(t, net.MustAddHostOn("client1", "10.0.0.101", seg), "10.0.0.9", netapi.Addr{},
			target{name: "slp-upnp", proto: protoSLP, kind: "clock", want: want})
		net.Close()
		if got != tc.ratio {
			t.Errorf("answer %s: lookup_fail_ratio %v, want %v (err %v)", tc.answer, got, tc.ratio, err)
		}
		if tc.ratio > 0 && (err == nil || !strings.Contains(err.Error(), "wrong endpoint")) {
			t.Errorf("answer %s: error %v, want a wrong-endpoint failure", tc.answer, err)
		}
	}
}

// TestWrongRecordCountFailsLookup: a query-plane answer listing another
// number of records than the view holds is a failed lookup.
func TestWrongRecordCountFailsLookup(t *testing.T) {
	for _, tc := range []struct {
		records int
		ratio   float64
	}{{4, 0}, {3, 1}} {
		net := newFabric(1)
		seg := indiss.CampusSegment(1)
		l, err := net.MustAddHostOn("gw2", "10.0.0.9", seg).ListenTCP(7780)
		if err != nil {
			t.Fatal(err)
		}
		body := `{"gateway":"gw2","kind":"kind00","generation":1,"count":` + strconv.Itoa(tc.records) +
			`,"services":[` + strings.Repeat(`{"remote":true},`, tc.records-1) + `{"remote":true}]}`
		go func() { // a query plane answering every request with body
			for {
				s, err := l.Accept()
				if err != nil {
					return
				}
				go func() {
					defer s.Close()
					buf := make([]byte, 4096)
					for {
						n, err := s.Read(buf)
						if err != nil {
							return
						}
						if bytes.Contains(buf[:n], []byte("\r\n\r\n")) {
							_, _ = s.Write([]byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: " +
								strconv.Itoa(len(body)) + "\r\n\r\n" + body))
						}
					}
				}()
			}
		}()
		got, err := answerOne(t, net.MustAddHostOn("client1", "10.0.0.101", seg), "10.0.0.9", l.Addr(),
			target{name: "http-plain", proto: protoHTTP, kind: "kind00", path: "/v1/services?kind=kind00", count: 4})
		l.Close()
		net.Close()
		if got != tc.ratio {
			t.Errorf("%d records: lookup_fail_ratio %v, want %v (err %v)", tc.records, got, tc.ratio, err)
		}
		if tc.ratio > 0 && (err == nil || !strings.Contains(err.Error(), "wrong record count")) {
			t.Errorf("%d records: error %v, want a wrong-count failure", tc.records, err)
		}
	}
}

// TestLostGoodbyeFailsChurn: a goodbye gw2 never shows counts against
// churn_fail_ratio; one it shows does not.
func TestLostGoodbyeFailsChurn(t *testing.T) {
	for _, seen := range []bool{true, false} {
		tr := newChurnTracker()
		t0 := time.Now()
		const url = "dnssd://10.0.1.20:10001"
		tr.registered(url, t0)
		tr.observe(false, core.DeltaPut, url, t0.Add(300*time.Microsecond))
		tr.withdrawn(url, t0.Add(time.Second))
		if seen {
			tr.observe(false, core.DeltaRemove, url, t0.Add(time.Second+300*time.Microsecond))
		}
		r := &report{workload: "campus-churn"}
		end := t0.Add(2 * time.Second)
		addChurn(r, tr, t0, end, end, 0, t0, 0)
		got, _ := r.get("churn_fail_ratio")
		want := 0.5
		if seen {
			want = 0
		}
		if got != want {
			t.Errorf("goodbye seen %v: churn_fail_ratio %v, want %v", seen, got, want)
		}
	}
}

// TestSelfTimeSubtractsChildUnion: a span's self time is its duration
// minus the union of its children's intervals, clipped to its own.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{"lookup", 0, 100, -1, 7},
		{"a", 10, 40, 0, 7},
		{"b", 30, 60, 0, 7},  // overlaps a
		{"c", 90, 120, 0, 7}, // runs past its parent's end
		{"d", 95, 100, 3, 7},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{"lookup": 40, "a": 30, "b": 30, "c": 25, "d": 5} {
		if got := self[name]; len(got) != 1 || got[0] != want {
			t.Errorf("self(%s) = %v, want %v", name, got, want)
		}
	}
}

// TestLookupSpansShareRequestID: every span of one lookup carries its
// request id and hangs off its root, also after per-loop lists merge.
func TestLookupSpansShareRequestID(t *testing.T) {
	epoch := time.Now()
	at := func(us int) time.Time { return epoch.Add(time.Duration(us) * time.Microsecond) }
	st := stamps{start: at(1), sent: at(3), recv: at(20), parsed: at(21), checked: at(23)}
	a := appendLookupSpans(nil, epoch, 41, at(0), at(1), &st, at(23))
	b := appendLookupSpans(nil, epoch, 42, at(0), at(1), &st, at(23))
	spans := mergeSpans(a, b)
	for i, s := range spans {
		root := i / len(a) * len(a)
		wantReq := uint64(41 + i/len(a))
		if s.Req != wantReq {
			t.Errorf("span %d (%s): req %d, want %d", i, s.Name, s.Req, wantReq)
		}
		if i != root && s.Parent != root {
			t.Errorf("span %d (%s): parent %d, want %d", i, s.Name, s.Parent, root)
		}
	}
	if self := selfTimes(a); self["lookup"][0] != 0 || self["wait"][0] != 17*time.Microsecond {
		t.Errorf("self times %v: the stages should tile the lookup", self)
	}
}

// TestValidityGuard: a run whose generator ran late or whose failures
// pass 1% is refused, naming the workload.
func TestValidityGuard(t *testing.T) {
	for _, tc := range []struct {
		metric string
		value  float64
		bad    bool
	}{
		{"loadgen.late_p90_us", 12, false},
		{"loadgen.late_p90_us", 600, true},
		{"lookup_fail_ratio", 0.002, false},
		{"lookup_fail_ratio", 0.02, true},
		{"churn_fail_ratio", 0.05, true},
	} {
		r := &report{workload: "query-hot"}
		r.add(tc.metric, tc.value, "")
		err := validate(r)
		if (err != nil) != tc.bad {
			t.Errorf("%s = %v: validate = %v, want refusal %v", tc.metric, tc.value, err, tc.bad)
		}
		if err != nil && !strings.Contains(err.Error(), "query-hot") {
			t.Errorf("%s = %v: %v does not name the workload", tc.metric, tc.value, err)
		}
	}
}

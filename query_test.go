package indiss_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indiss"
	"indiss/internal/query"
)

// queryGet is a one-shot HTTP client against the query plane: dial,
// one GET, read the close-delimited exchange.
func queryGet(stack indiss.Stack, addr indiss.Addr, target string, timeout time.Duration) (int, []byte, error) {
	st, err := stack.DialTCP(addr)
	if err != nil {
		return 0, nil, err
	}
	defer st.Close()
	st.SetReadTimeout(timeout)
	req := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\nConnection: close\r\n\r\n", target, addr)
	if _, err := st.Write([]byte(req)); err != nil {
		return 0, nil, err
	}
	var buf []byte
	tmp := make([]byte, 4096)
	for {
		n, err := st.Read(tmp)
		buf = append(buf, tmp[:n]...)
		if err != nil {
			break
		}
	}
	i := bytes.Index(buf, []byte("\r\n\r\n"))
	if i < 0 {
		return 0, nil, fmt.Errorf("no head/body split in %q", buf)
	}
	var code int
	if _, err := fmt.Sscanf(string(buf[:i]), "HTTP/1.1 %d", &code); err != nil {
		return 0, nil, err
	}
	return code, buf[i+4:], nil
}

// queryServer unwraps the deployed system's query plane.
func queryServer(t *testing.T, sys *indiss.System) *query.Server {
	t.Helper()
	qp, ok := sys.QueryPlane().(*query.Server)
	if !ok {
		t.Fatalf("QueryPlane() = %T, want *query.Server", sys.QueryPlane())
	}
	return qp
}

// TestQueryPlaneEndToEnd deploys a gateway with the query port enabled
// and exercises the HTTP surface: find-by-kind, predicate filtering,
// the counters endpoint.
func TestQueryPlaneEndToEnd(t *testing.T) {
	net := indiss.NewLAN()
	defer net.Close()
	gw := net.MustAddHost("gw", "10.0.0.9")
	client := net.MustAddHost("client", "10.0.0.10")

	sys, err := indiss.Deploy(gw, indiss.Config{Role: indiss.RoleGateway, QueryPort: -1})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	defer sys.Close()
	qaddr := queryServer(t, sys).Addr()

	now := time.Now()
	for i, attrs := range []map[string]string{
		{"color": "yes", "ppm": "30"},
		{"color": "no", "ppm": "12"},
	} {
		sys.View().Put(indiss.ServiceRecord{
			Origin:  indiss.SLP,
			Kind:    "printer",
			URL:     fmt.Sprintf("service:printer://10.0.0.%d", 20+i),
			Attrs:   attrs,
			Expires: now.Add(time.Hour),
		})
	}

	code, body, err := queryGet(client, qaddr, "/v1/services?kind=printer", 5*time.Second)
	if err != nil || code != 200 {
		t.Fatalf("find: code=%d err=%v", code, err)
	}
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("body: %v\n%s", err, body)
	}
	if m["count"].(float64) != 2 {
		t.Fatalf("count = %v", m["count"])
	}

	code, body, err = queryGet(client, qaddr,
		"/v1/services?kind=printer&pred=(%26(color%3Dyes)(ppm%3E%3D20))", 5*time.Second)
	if err != nil || code != 200 {
		t.Fatalf("predicate find: code=%d err=%v", code, err)
	}
	_ = json.Unmarshal(body, &m)
	if m["count"].(float64) != 1 {
		t.Fatalf("predicate count = %v (%s)", m["count"], body)
	}

	code, body, err = queryGet(client, qaddr, "/debug/vars", 5*time.Second)
	if err != nil || code != 200 {
		t.Fatalf("vars: code=%d err=%v", code, err)
	}
	var vars map[string]float64
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("vars body: %v", err)
	}
	if vars["queries"] != 2 {
		t.Fatalf("queries counter = %v", vars["queries"])
	}
}

// TestQueryPlaneUnderChurn is the query plane's race-on soak:
// predicate-filtered queries, long-poll watchers and native in-process
// lookups (Find, FindForeign, Get) run concurrently with view churn and
// sub-second TTL expiry on a persistent gateway. The assertions are
// liveness and, once the churn stops, that an answer lists exactly what
// the view holds — the value of the test is every interleaving the
// race detector sees.
func TestQueryPlaneUnderChurn(t *testing.T) {
	net := indiss.NewLAN()
	defer net.Close()
	gw := net.MustAddHost("gw", "10.0.0.9")

	sys, err := indiss.Deploy(gw, indiss.Config{
		Role:      indiss.RoleGateway,
		DataDir:   t.TempDir(),
		QueryPort: -1,
	})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	defer sys.Close()
	qaddr := queryServer(t, sys).Addr()

	const runFor = 1200 * time.Millisecond
	stop := make(chan struct{})
	time.AfterFunc(runFor, func() { close(stop) })
	var wg sync.WaitGroup
	var queries, watches, natives atomic.Uint64

	// Churner: put records with mixed TTLs (some lapse mid-run), local
	// and remote, and remove a slice explicitly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			ttl := time.Hour
			if i%3 == 0 {
				ttl = 40 * time.Millisecond // expires under the watchers
			}
			url := fmt.Sprintf("soap://10.0.2.%d:4004/svc%d", i%50, i%200)
			sys.View().Put(indiss.ServiceRecord{
				Origin:   indiss.UPnP,
				Kind:     "churnkind",
				URL:      url,
				Attrs:    map[string]string{"slot": fmt.Sprintf("%d", i%8)},
				Expires:  time.Now().Add(ttl),
				OriginGW: "gw-far",
				Hops:     1,
				Remote:   i%2 == 0,
			})
			if i%7 == 0 {
				sys.View().Remove(indiss.UPnP, url)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Query clients: predicate-filtered finds, each from its own host.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		client := net.MustAddHost(fmt.Sprintf("qc-%d", c), fmt.Sprintf("10.0.0.%d", 30+c))
		go func(stack indiss.Stack, slot int) {
			defer wg.Done()
			target := fmt.Sprintf("/v1/services?kind=churnkind&pred=(slot%%3D%d)", slot)
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, _, err := queryGet(stack, qaddr, target, 5*time.Second)
				if err == nil && code == 200 {
					queries.Add(1)
				}
			}
		}(client, c)
	}

	// Native reader: the in-process lookups a co-located client makes,
	// on the churned kind and URLs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			now := time.Now()
			sys.View().Find("churnkind", now)
			sys.View().FindForeign(indiss.SLP, "churnkind", now)
			sys.View().Get(indiss.UPnP, fmt.Sprintf("soap://10.0.2.%d:4004/svc%d", i%50, i%200))
			natives.Add(1)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// Watcher: cursor through the delta feed, tolerating resyncs.
	wg.Add(1)
	watcher := net.MustAddHost("watcher", "10.0.0.40")
	go func() {
		defer wg.Done()
		var next uint64
		haveCursor := false
		for {
			select {
			case <-stop:
				return
			default:
			}
			target := "/v1/watch"
			if haveCursor {
				target = fmt.Sprintf("/v1/watch?since=%d&wait=100ms", next)
			}
			code, body, err := queryGet(watcher, qaddr, target, 5*time.Second)
			if err != nil || code != 200 {
				continue
			}
			var m map[string]any
			if json.Unmarshal(body, &m) != nil {
				continue
			}
			next = uint64(m["next"].(float64))
			haveCursor = true
			watches.Add(1)
		}
	}()

	wg.Wait()

	// The plane survived, and its answers are exact: once the churn
	// stops and the short-TTL records have lapsed, an answer built now
	// and one cached during the churn list what the view holds.
	time.Sleep(50 * time.Millisecond)
	probe := net.MustAddHost("probe", "10.0.0.50")
	for _, slot := range []string{"", "0"} {
		target := "/v1/services?kind=churnkind"
		if slot != "" {
			target += "&pred=(slot%3D" + slot + ")"
		}
		code, body, err := queryGet(probe, qaddr, target, 5*time.Second)
		if err != nil || code != 200 {
			t.Fatalf("post-churn query %s: code=%d err=%v", target, code, err)
		}
		var answer struct {
			Services []struct {
				URL string `json:"url"`
			} `json:"services"`
		}
		if err := json.Unmarshal(body, &answer); err != nil {
			t.Fatalf("post-churn query %s: %v", target, err)
		}
		var got, want []string
		for _, svc := range answer.Services {
			got = append(got, svc.URL)
		}
		for _, rec := range sys.View().Find("churnkind", time.Now()) {
			if slot == "" || rec.Attrs["slot"] == slot {
				want = append(want, rec.URL)
			}
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("post-churn query %s lists %v; the view holds %v", target, got, want)
		}
	}
	if queries.Load() == 0 || watches.Load() == 0 || natives.Load() == 0 {
		t.Fatalf("soak idle: queries=%d watches=%d native lookup rounds=%d",
			queries.Load(), watches.Load(), natives.Load())
	}
}

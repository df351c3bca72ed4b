package federation

import (
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/simnet"
	"indiss/internal/viewstore"
)

// persistView mirrors one learned record into the store the way the
// core delta pump does, so a later warm boot can replay it.
func persistView(t *testing.T, st *viewstore.Store, rec core.ServiceRecord) {
	t.Helper()
	err := st.Put(&viewstore.Record{
		Origin:   string(rec.Origin),
		Kind:     rec.Kind,
		URL:      rec.URL,
		Location: rec.Location,
		Attrs:    rec.Attrs,
		Expires:  rec.Expires.UnixMilli(),
		OriginGW: rec.OriginGW,
		Hops:     uint8(rec.Hops),
		Remote:   rec.Remote,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmBootRepairsWithdrawalMissedWhileDown is the persistence twin
// of TestWithdrawalSurvivesPartitionHeal: gateway B persists its view,
// crashes, and the record's origin withdraws it while B is down. B's
// warm boot replays the record from disk — stale, through no fault of
// the log — and digest anti-entropy must then repair it: the record
// disappears from B's rebooted view, and B's replay must never
// resurrect it at A.
func TestWarmBootRepairsWithdrawalMissedWhileDown(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA, viewB := core.NewServiceView(), core.NewServiceView()
	url := "soap://10.0.1.2:4004"
	viewA.Put(localRec("clock", url, time.Hour))

	endpoint(t, hosts[0], viewA, fastCfg("gw-a"))

	dir := t.TempDir()
	st, err := viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgB := fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort})
	cfgB.Persistence = st
	eb, err := New(hosts[1], viewB, cfgB)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "B to learn the record", func() bool {
		_, ok := viewB.Get(core.SDPUPnP, url)
		return ok
	})
	rec, _ := viewB.Get(core.SDPUPnP, url)
	persistView(t, st, rec)

	// B crashes with the record durable on disk.
	hosts[1].SetDown(true)
	eb.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The world moves on: the service withdraws while B is down.
	viewA.Remove(core.SDPUPnP, url)

	// Warm reboot: replay the log into a fresh view, seed the endpoint
	// from the recovered epochs and graves.
	hosts[1].SetDown(false)
	st2, err := viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	rc := st2.Recovered()
	if len(rc.Records) != 1 {
		t.Fatalf("warm boot replayed %d records, want 1", len(rc.Records))
	}
	viewB2 := core.NewServiceView()
	for i := range rc.Records {
		r := &rc.Records[i]
		viewB2.Put(core.ServiceRecord{
			Origin:   core.SDP(r.Origin),
			Kind:     r.Kind,
			URL:      r.URL,
			Location: r.Location,
			Attrs:    r.Attrs,
			Expires:  time.UnixMilli(r.Expires),
			OriginGW: r.OriginGW,
			Hops:     int(r.Hops),
			Remote:   r.Remote,
		})
	}
	cfgB2 := fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort})
	cfgB2.Persistence = st2
	eb2, err := New(hosts[1], viewB2, cfgB2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eb2.Close() })

	if got := eb2.Stats().WarmEpochs; got == 0 {
		t.Fatal("warm boot seeded no epochs; expected the replayed record's epoch")
	}

	// Anti-entropy must notice B's stale claim and kill it.
	waitFor(t, 5*time.Second, "withdrawal repair after warm boot", func() bool {
		_, ok := viewB2.Get(core.SDPUPnP, url)
		return !ok
	})

	// And the replay must never have resurrected the record at A.
	time.Sleep(300 * time.Millisecond)
	if _, ok := viewA.Get(core.SDPUPnP, url); ok {
		t.Fatal("withdrawn record resurrected at its origin from B's disk state")
	}
}

// TestWarmBootKeepsKnowledgeWithoutRelearning checks the happy path:
// a rebooted gateway that replays its log serves the federation's
// records immediately and its first digests agree with the peer's, so
// anti-entropy repairs nothing. Digest hits and misses are counted on
// the side that *receives* a digest naming an origin it can vouch for,
// so the assertions read A's counters: after B's warm boot, A must see
// fresh hits against B's replayed summaries and not one new miss.
func TestWarmBootKeepsKnowledgeWithoutRelearning(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA, viewB := core.NewServiceView(), core.NewServiceView()
	urls := []string{"soap://10.0.1.2:4004", "soap://10.0.1.3:4004"}
	viewA.Put(localRec("clock", urls[0], time.Hour))
	viewA.Put(localRec("printer", urls[1], time.Hour))

	ea := endpoint(t, hosts[0], viewA, fastCfg("gw-a"))

	dir := t.TempDir()
	st, err := viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfgB := fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort})
	cfgB.Persistence = st
	eb, err := New(hosts[1], viewB, cfgB)
	if err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, "B to learn both records", func() bool {
		return len(viewB.Find("", time.Now())) == 2
	})
	for _, u := range urls {
		rec, _ := viewB.Get(core.SDPUPnP, u)
		persistView(t, st, rec)
	}

	hosts[1].SetDown(true)
	eb.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	hosts[1].SetDown(false)

	st2, err := viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st2.Close() })
	viewB2 := core.NewServiceView()
	for i := range st2.Recovered().Records {
		r := &st2.Recovered().Records[i]
		viewB2.Put(core.ServiceRecord{
			Origin:   core.SDP(r.Origin),
			Kind:     r.Kind,
			URL:      r.URL,
			Attrs:    r.Attrs,
			Expires:  time.UnixMilli(r.Expires),
			OriginGW: r.OriginGW,
			Hops:     int(r.Hops),
			Remote:   r.Remote,
		})
	}
	// Knowledge is back before the endpoint even starts.
	if got := len(viewB2.Find("", time.Now())); got != 2 {
		t.Fatalf("warm-booted view holds %d records before reconnect, want 2", got)
	}
	before := ea.Stats()
	cfgB2 := fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort})
	cfgB2.Persistence = st2
	eb2, err := New(hosts[1], viewB2, cfgB2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eb2.Close() })

	if got := eb2.Stats().WarmEpochs; got != 2 {
		t.Fatalf("WarmEpochs = %d, want 2", got)
	}

	// Give a few digest rounds, then confirm the rounds were hits: B's
	// replayed epochs hash identically to what A remembers, so A finds
	// nothing to repair.
	waitFor(t, 5*time.Second, "digest hits at A after B's reboot", func() bool {
		return ea.Stats().DigestHits > before.DigestHits
	})
	time.Sleep(300 * time.Millisecond)
	after := ea.Stats()
	if after.DigestMisses != before.DigestMisses {
		t.Fatalf("warm-booted digests diverged at A: misses %d -> %d",
			before.DigestMisses, after.DigestMisses)
	}
	if got := len(viewB2.Find("", time.Now())); got != 2 {
		t.Fatalf("view holds %d records after reconnect, want 2", got)
	}
}

package indiss_test

import (
	"testing"
	"time"

	"indiss"
)

// putRec inserts one record into a running system's view.
func putRec(sys *indiss.System, url string, ttl time.Duration) {
	sys.View().Put(indiss.ServiceRecord{
		Origin:  indiss.UPnP,
		Kind:    "urn:schemas-upnp-org:service:Clock:1",
		URL:     url,
		Attrs:   map[string]string{"friendlyName": "clock"},
		Expires: time.Now().Add(ttl),
	})
}

// waitStoreKeys polls the system's store until the keydir holds n live
// keys, proving the delta pump has caught up with the view mutations.
func waitStoreKeys(t *testing.T, sys *indiss.System, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for sys.ViewStore().Stats().IndexKeys != n {
		if time.Now().After(deadline) {
			t.Fatalf("store never reached %d live keys (have %d)",
				n, sys.ViewStore().Stats().IndexKeys)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWarmBootRestoresViewAcrossRestart is the end-to-end persistence
// contract: a redeployed system with the same DataDir replays the log
// and serves pre-restart discovery knowledge — except what the world
// retracted while the process was down. A record that expired or was
// withdrawn before the crash must not resurrect on replay.
func TestWarmBootRestoresViewAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	net := indiss.NewLAN()
	defer net.Close()
	host := net.MustAddHost("gw", "10.0.0.9")

	sys, err := indiss.Deploy(host, indiss.Config{Role: indiss.RoleGateway, DataDir: dir})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	const (
		longURL      = "soap://10.0.0.2:4004/clock"
		shortURL     = "soap://10.0.0.3:4004/clock"
		withdrawnURL = "soap://10.0.0.4:4004/clock"
	)
	putRec(sys, longURL, time.Hour)
	putRec(sys, shortURL, 120*time.Millisecond)
	putRec(sys, withdrawnURL, time.Hour)
	waitStoreKeys(t, sys, 3)
	if !sys.View().Remove(indiss.UPnP, withdrawnURL) {
		t.Fatal("Remove returned false")
	}
	waitStoreKeys(t, sys, 2)
	sys.Close()

	// Let the short record's lifetime lapse while "down".
	time.Sleep(150 * time.Millisecond)

	sys2, err := indiss.Deploy(host, indiss.Config{Role: indiss.RoleGateway, DataDir: dir})
	if err != nil {
		t.Fatalf("redeploy: %v", err)
	}
	defer sys2.Close()

	rc := sys2.Recovered()
	if len(rc.Records) != 1 {
		t.Fatalf("warm boot replayed %d records, want 1", len(rc.Records))
	}
	if rc.DroppedExpired != 1 {
		t.Fatalf("DroppedExpired = %d, want 1 (the short-TTL record)", rc.DroppedExpired)
	}
	if _, ok := sys2.View().Get(indiss.UPnP, longURL); !ok {
		t.Fatal("long-lived record did not survive the restart")
	}
	if _, ok := sys2.View().Get(indiss.UPnP, shortURL); ok {
		t.Fatal("record that expired while down resurrected on replay")
	}
	if _, ok := sys2.View().Get(indiss.UPnP, withdrawnURL); ok {
		t.Fatal("withdrawn record resurrected on replay")
	}
}

// TestColdStartWithoutDataDir pins the default: no DataDir, no store,
// zero-value recovery report.
func TestColdStartWithoutDataDir(t *testing.T) {
	net := indiss.NewLAN()
	defer net.Close()
	host := net.MustAddHost("gw", "10.0.0.9")
	sys, err := indiss.Deploy(host, indiss.Config{Role: indiss.RoleGateway})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	defer sys.Close()
	if sys.ViewStore() != nil {
		t.Fatal("ViewStore non-nil without DataDir")
	}
	if rc := sys.Recovered(); len(rc.Records) != 0 || rc.Segments != 0 {
		t.Fatalf("Recovered not zero without DataDir: %+v", rc)
	}
}

// TestRemovedRecordNotServedFromStore: after a Remove, the store's
// keydir holds the record until the delta pump erases it. The view must
// not reach it there: a Get right after the Remove misses, and a second
// Remove reports false, so no second withdrawal reaches the delta feed.
func TestRemovedRecordNotServedFromStore(t *testing.T) {
	net := indiss.NewLAN()
	defer net.Close()
	host := net.MustAddHost("gw", "10.0.0.9")
	sys, err := indiss.Deploy(host, indiss.Config{Role: indiss.RoleGateway, DataDir: t.TempDir()})
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	defer sys.Close()

	const (
		url    = "soap://10.0.0.2:4004/clock"
		rounds = 200
	)
	served, removedTwice := 0, 0
	for i := 0; i < rounds; i++ {
		putRec(sys, url, time.Hour)
		waitStoreKeys(t, sys, 1)
		if !sys.View().Remove(indiss.UPnP, url) {
			t.Fatalf("round %d: Remove of a live record reported false", i)
		}
		if _, ok := sys.View().Get(indiss.UPnP, url); ok {
			served++
		}
		if sys.View().Remove(indiss.UPnP, url) {
			removedTwice++
		}
		waitStoreKeys(t, sys, 0)
	}
	if served != 0 || removedTwice != 0 {
		t.Errorf("over %d rounds, Get returned the removed record %d times and a second Remove reported true %d times; want 0 and 0",
			rounds, served, removedTwice)
	}
}

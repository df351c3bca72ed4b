package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestViewTTLExpiryUnderLoad drives the sharded view with concurrent
// Find/FindForeign traffic while short-TTL records age out: every
// expired record must actually be evicted (heap sweep, not just lazily
// skipped), refreshed records must survive, and nothing may deadlock or
// race while lookups hammer the same shards the sweeps rewrite. Run
// under -race.
func TestViewTTLExpiryUnderLoad(t *testing.T) {
	v := NewServiceView()
	const kinds = 24
	const perKind = 8

	// A delta subscriber keeps the delta paths (the federation's feed)
	// active during the churn, so expiry also exercises emitDeltas.
	batches, cancel := v.SubscribeDeltaBatches(256)
	defer cancel()
	var expireDeltas atomic.Int64
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		for batch := range batches {
			for _, d := range batch {
				if d.Op == DeltaExpire {
					expireDeltas.Add(1)
				}
			}
		}
	}()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				kind := fmt.Sprintf("kind-%d", i%kinds)
				now := time.Now()
				for _, rec := range v.Find(kind, now) {
					if !rec.Expires.After(now) {
						t.Errorf("Find returned expired record %s", rec.URL)
						return
					}
				}
				v.FindForeign(SDPSLP, kind, now)
				v.Find("", now) // the match-all walk sweeps every shard
			}
		}()
	}

	// Writer: short-lived records plus a refreshed cohort that must
	// survive the whole test.
	for k := 0; k < kinds; k++ {
		for j := 0; j < perKind; j++ {
			v.Put(ServiceRecord{
				Origin:  SDPUPnP,
				Kind:    fmt.Sprintf("kind-%d", k),
				URL:     fmt.Sprintf("soap://10.0.0.%d:%d", k, 4000+j),
				Attrs:   map[string]string{},
				Expires: time.Now().Add(time.Duration(50+10*j) * time.Millisecond),
			})
		}
	}
	refreshed := ServiceRecord{
		Origin:  SDPSLP,
		Kind:    "kind-0",
		URL:     "service:survivor://10.0.0.99",
		Attrs:   map[string]string{},
		Expires: time.Now().Add(60 * time.Millisecond),
	}
	v.Put(refreshed)
	refreshDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(refreshDone)
		for i := 0; i < 20; i++ {
			refreshed.Expires = time.Now().Add(60 * time.Millisecond)
			v.Put(refreshed)
			time.Sleep(10 * time.Millisecond)
		}
		// The final renewal parks the survivor on a long lease so the
		// eviction wait below cannot age it out.
		refreshed.Expires = time.Now().Add(time.Hour)
		v.Put(refreshed)
	}()

	// Let everything expire while the readers keep running, then keep
	// writing to unrelated shards so the rotating maintenance sweep
	// visits the dead ones.
	<-refreshDone
	deadline := time.Now().Add(5 * time.Second)
	for {
		v.Put(ServiceRecord{
			Origin:  SDPJini,
			Kind:    "sweep-driver",
			URL:     "driver://10.0.0.1",
			Attrs:   map[string]string{},
			Expires: time.Now().Add(time.Hour),
		})
		// Len counts keys live-or-not: eviction means the keys map
		// itself shrank to the survivor records.
		if v.Len() <= 2 { // survivor + sweep-driver
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expired records never evicted: Len=%d", v.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	// The refreshed record must have outlived every expiry wave it was
	// re-armed through.
	if _, ok := v.Get(SDPSLP, "service:survivor://10.0.0.99"); !ok {
		t.Error("refreshed record was evicted despite renewals")
	}
	if got := expireDeltas.Load(); got < int64(kinds*perKind) {
		t.Errorf("expiry emitted %d DeltaExpire, want ≥ %d", got, kinds*perKind)
	}
	cancel()
	drainWG.Wait()
}

package core

import (
	"testing"
	"time"
)

func recAt(origin SDP, kind, url string, ttl time.Duration) ServiceRecord {
	return ServiceRecord{
		Origin:  origin,
		Kind:    kind,
		URL:     url,
		Attrs:   map[string]string{},
		Expires: time.Now().Add(ttl),
	}
}

// nextBatch returns the next delta batch the subscription delivers.
func nextBatch(t *testing.T, ch <-chan []Delta) []Delta {
	t.Helper()
	select {
	case batch := <-ch:
		return batch
	case <-time.After(2 * time.Second):
		t.Fatal("no delta batch delivered")
		return nil
	}
}

func TestViewDeltaPutRemove(t *testing.T) {
	v := NewServiceView()
	ch, cancel := v.SubscribeDeltaBatches(16)
	defer cancel()

	v.Put(recAt(SDPSLP, "clock", "service:clock://10.0.0.2:4005", time.Hour))
	b := nextBatch(t, ch)
	if len(b) != 1 || b[0].Op != DeltaPut || b[0].Record.URL != "service:clock://10.0.0.2:4005" {
		t.Fatalf("batch = %+v, want the Put of the record", b)
	}

	v.Remove(SDPSLP, "service:clock://10.0.0.2:4005")
	b = nextBatch(t, ch)
	if len(b) != 1 || b[0].Op != DeltaRemove || b[0].Record.Kind != "clock" {
		t.Fatalf("batch = %+v, want a Remove carrying the record", b)
	}
}

func TestViewDeltaExpire(t *testing.T) {
	v := NewServiceView()
	ch, cancel := v.SubscribeDeltaBatches(16)
	defer cancel()

	v.Put(recAt(SDPUPnP, "clock", "soap://10.0.0.2:4004", 10*time.Millisecond))
	if b := nextBatch(t, ch); len(b) != 1 || b[0].Op != DeltaPut {
		t.Fatalf("first batch = %+v", b)
	}
	time.Sleep(20 * time.Millisecond)
	// Any touch sweeps the due shard.
	v.Find("clock", time.Now())
	b := nextBatch(t, ch)
	if len(b) != 1 || b[0].Op != DeltaExpire || b[0].Record.URL != "soap://10.0.0.2:4004" {
		t.Fatalf("batch = %+v, want the Expire of the record", b)
	}
}

func TestViewDeltaCancelAndNoSubscribers(t *testing.T) {
	v := NewServiceView()
	ch, cancel := v.SubscribeDeltaBatches(4)
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("cancelled channel not closed")
	}
	// With nobody subscribed the mutating paths must not block or panic.
	v.Put(recAt(SDPSLP, "clock", "u1", time.Hour))
	v.Remove(SDPSLP, "u1")
}

func TestViewDeltaUndrainedSubscriberNeverBlocksPut(t *testing.T) {
	v := NewServiceView()
	ch, cancel := v.SubscribeDeltaBatches(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			v.Put(recAt(SDPSLP, "clock", "u", time.Hour))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Put blocked on an undrained delta subscriber")
	}
	// Nothing was dropped: the spool hands over every Put once drained.
	for i := 0; i < 100; i++ {
		if b := nextBatch(t, ch); len(b) != 1 || b[0].Op != DeltaPut {
			t.Fatalf("batch %d = %+v, want one Put", i, b)
		}
	}
}

func TestViewGet(t *testing.T) {
	v := NewServiceView()
	if _, ok := v.Get(SDPSLP, "missing"); ok {
		t.Fatal("Get found a missing record")
	}
	v.Put(recAt(SDPSLP, "clock", "u1", time.Hour))
	rec, ok := v.Get(SDPSLP, "u1")
	if !ok || rec.Kind != "clock" {
		t.Fatalf("Get = %+v, %v", rec, ok)
	}
	v.Put(recAt(SDPSLP, "clock", "u2", -time.Second))
	if _, ok := v.Get(SDPSLP, "u2"); ok {
		t.Fatal("Get returned an expired record")
	}
}

func TestFindForeignPrefersLocalOverRemote(t *testing.T) {
	v := NewServiceView()
	remote := recAt(SDPUPnP, "clock", "soap://10.0.3.2:4004", time.Hour)
	remote.Remote = true
	remote.OriginGW = "gw-c"
	remote.Hops = 2
	v.Put(remote)
	local := recAt(SDPUPnP, "clock", "soap://10.0.1.2:4004", time.Hour)
	v.Put(local)

	recs := v.FindForeign(SDPSLP, "clock", time.Now())
	if len(recs) != 2 {
		t.Fatalf("FindForeign returned %d records", len(recs))
	}
	if recs[0].Remote || !recs[1].Remote {
		t.Fatalf("local record not preferred: %+v", recs)
	}
	if recs[1].OriginGW != "gw-c" || recs[1].Hops != 2 {
		t.Fatalf("provenance lost through the view: %+v", recs[1])
	}

	// Find (non-foreign path) keeps the historical URL ordering.
	all := v.Find("clock", time.Now())
	if len(all) != 2 || all[0].URL > all[1].URL {
		t.Fatalf("Find ordering changed: %+v", all)
	}
}

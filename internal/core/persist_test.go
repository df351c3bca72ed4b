package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"indiss/internal/viewstore"
)

// TestWarmBootReplaysPumpedView: the System's delta pump applies a
// withdrawal, a refresh and a re-kind to the log, and a reopen replays
// exactly the records the view holds.
func TestWarmBootReplaysPumpedView(t *testing.T) {
	dir := t.TempDir()
	st, err := viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := NewServiceView()
	batches, cancel := v.SubscribeDeltaBatches(16)
	defer cancel()
	// pump applies the view's next n delta batches to the store, with
	// the System's own pump code.
	pump := func(n int) {
		ch := make(chan []Delta, n)
		for i := 0; i < n; i++ {
			select {
			case batch := <-batches:
				ch <- batch
			case <-time.After(5 * time.Second):
				t.Fatal("the view never delivered a delta batch")
			}
		}
		close(ch)
		(&System{store: st}).pumpStore(ch)
	}
	rec := func(i int) ServiceRecord {
		return ServiceRecord{
			Origin: SDPUPnP, Kind: "clock",
			URL:      fmt.Sprintf("soap://10.0.1.%d:4004", i),
			Attrs:    map[string]string{"friendlyName": "clock"},
			Expires:  time.Now().Add(time.Hour),
			OriginGW: "gw-b", Hops: 1, Remote: true,
		}
	}

	kept, gone, refreshed, rekinded := rec(1), rec(2), rec(3), rec(4)
	for _, r := range []ServiceRecord{kept, gone, refreshed, rekinded} {
		v.Put(r)
	}
	pump(4)
	fresh := refreshed
	fresh.Expires = refreshed.Expires.Add(time.Minute)
	moved := rekinded
	moved.Kind = "timer"
	v.Remove(gone.Origin, gone.URL)
	v.Remove(refreshed.Origin, refreshed.URL)
	v.Put(fresh)
	v.Put(moved)
	pump(4)
	cancel()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want := map[string]viewstore.Record{}
	for _, r := range v.Find("", time.Now()) {
		want[r.URL] = toStoreRecord(&r)
	}
	if len(want) != 3 {
		t.Fatalf("the view holds %d records, want 3", len(want))
	}
	got := map[string]viewstore.Record{}
	for _, r := range st.Recovered().Records {
		got[r.URL] = r
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm boot replayed %+v; the view holds %+v", got, want)
	}
}

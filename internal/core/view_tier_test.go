package core

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"indiss/internal/viewstore"
)

// stubStorage is an in-memory ViewStorage for tier tests.
type stubStorage struct {
	mu   sync.Mutex
	recs map[string]ServiceRecord
}

func newStubStorage() *stubStorage {
	return &stubStorage{recs: make(map[string]ServiceRecord)}
}

func (s *stubStorage) Spill(recs []ServiceRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		s.recs[viewKey(r.Origin, r.URL)] = r
	}
	return nil
}

func (s *stubStorage) Lookup(origin SDP, url string, now time.Time) (ServiceRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.recs[viewKey(origin, url)]
	if !ok || !rec.Expires.After(now) {
		return ServiceRecord{}, false
	}
	return rec, true
}

func (s *stubStorage) SpilledCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

func tierRec(i int, remote bool) ServiceRecord {
	rec := ServiceRecord{
		Origin: SDPUPnP, Kind: "clock",
		URL:     fmt.Sprintf("soap://10.0.1.%d:4004", i),
		Attrs:   map[string]string{"friendlyName": "clock"},
		Expires: time.Now().Add(time.Hour),
	}
	if remote {
		rec.OriginGW, rec.Hops, rec.Remote = "gw-b", 1, true
	}
	return rec
}

// TestBudgetEvictsColdRemoteOnly: over budget, remote records spill to
// storage and stay reachable by Get; local records never leave memory.
func TestBudgetEvictsColdRemoteOnly(t *testing.T) {
	v := NewServiceView()
	stub := newStubStorage()
	v.AttachStorage(stub, 1) // a budget nothing fits under

	local := tierRec(1, false)
	v.Put(local)
	var remotes []ServiceRecord
	for i := 10; i < 40; i++ {
		r := tierRec(i, true)
		v.Put(r)
		remotes = append(remotes, r)
	}
	before := v.Len()

	spilled := v.EnforceBudget(time.Now())
	if spilled != len(remotes) {
		t.Fatalf("spilled %d records, want %d", spilled, len(remotes))
	}
	if v.Len() != before {
		t.Fatalf("Len changed across eviction: %d -> %d", before, v.Len())
	}
	// The local record is untouched and in memory.
	if _, ok := stub.recs[viewKey(local.Origin, local.URL)]; ok {
		t.Fatal("local record was evicted")
	}
	if rec, ok := v.Get(local.Origin, local.URL); !ok || rec.Remote {
		t.Fatalf("local record lost: %+v ok=%v", rec, ok)
	}
	// Every remote record still answers a point lookup, via the cold tier.
	for _, r := range remotes {
		got, ok := v.Get(r.Origin, r.URL)
		if !ok || got.URL != r.URL || !got.Remote {
			t.Fatalf("spilled record unreachable: %s ok=%v", r.URL, ok)
		}
	}
	if v.ColdHits() == 0 {
		t.Fatal("cold lookups not counted")
	}
	// Memory accounting reflects the spill.
	if v.MemUsage() > recSize(&local)*4 {
		t.Fatalf("memory estimate %d still holds the remote records", v.MemUsage())
	}
}

// TestRemoveSpilledRecordEmitsWithdrawal: withdrawing a record that
// lives only in the cold tier still reports true and emits the
// DeltaRemove the federation and the storage pump depend on.
func TestRemoveSpilledRecordEmitsWithdrawal(t *testing.T) {
	v := NewServiceView()
	stub := newStubStorage()
	v.AttachStorage(stub, 1)
	deltas, cancel := v.SubscribeDeltaBatches(16)
	defer cancel()

	r := tierRec(7, true)
	v.Put(r)
	if v.EnforceBudget(time.Now()) != 1 {
		t.Fatal("record not spilled")
	}
	if !v.Remove(r.Origin, r.URL) {
		t.Fatal("Remove of a spilled record reported false")
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case batch := <-deltas:
			for _, d := range batch {
				if d.Op == DeltaRemove && d.Record.URL == r.URL {
					return
				}
			}
		case <-deadline:
			t.Fatal("no DeltaRemove emitted for the spilled record")
		}
	}
}

// TestEvictionSkipsRefreshedRecords: a record refreshed between the
// spill copy and the deletion pass keeps its (newer) memory copy — the
// concurrent Put wins, and the other batch member satisfies the budget.
func TestEvictionSkipsRefreshedRecords(t *testing.T) {
	v := NewServiceView()
	stub := newStubStorage()
	refreshed := tierRec(3, true)
	refreshed.Expires = time.Now().Add(2 * time.Hour)
	fired := false
	wrapper := &hookedStorage{stubStorage: stub, onSpill: func() {
		if !fired {
			fired = true
			v.Put(refreshed) // lands between Spill and the deletion pass
		}
	}}

	stale := refreshed
	stale.Expires = time.Now().Add(time.Hour)
	other := tierRec(4, true)
	v.Put(stale)
	v.Put(other)
	// A budget one record fits under: evicting `other` is enough.
	v.AttachStorage(wrapper, recSize(&refreshed)+32)

	if n := v.EnforceBudget(time.Now()); n != 1 {
		t.Fatalf("evicted %d records, want 1 (just the unrefreshed one)", n)
	}
	got, ok := v.Get(refreshed.Origin, refreshed.URL)
	if !ok || !got.Expires.Equal(refreshed.Expires) {
		t.Fatalf("refreshed record lost or stale: %+v ok=%v", got, ok)
	}
	if v.ColdHits() != 0 {
		t.Fatal("refreshed record was served from the cold tier")
	}
}

type hookedStorage struct {
	*stubStorage
	onSpill func()
}

func (h *hookedStorage) Spill(recs []ServiceRecord) error {
	err := h.stubStorage.Spill(recs)
	if h.onSpill != nil {
		h.onSpill()
	}
	return err
}

// racingStore is the log store under the view, with a Spill that first
// runs racer once. The racer lands a Remove and re-Puts of batch members
// in the view and pumps their deltas into the store, so the store
// applies them before the eviction pass's older copies reach it.
type racingStore struct {
	storeAdapter
	racer func()
}

func (r *racingStore) Spill(recs []ServiceRecord) error {
	if racer := r.racer; racer != nil {
		r.racer = nil
		racer()
	}
	return r.storeAdapter.Spill(recs)
}

// TestSpillRacingRemoveAndReputKeepsStoreCurrent: batch members that
// are withdrawn, refreshed or re-kinded between the eviction pass's
// copy and its Spill, with the store applying those changes first,
// must not come back from the store: not through Get, not through the
// cold kind scan, and not on a warm boot.
func TestSpillRacingRemoveAndReputKeepsStoreCurrent(t *testing.T) {
	dir := t.TempDir()
	st, err := viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { st.Close() }()
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

	kept, gone, refreshed, rekinded := tierRec(1, true), tierRec(2, true), tierRec(3, true), tierRec(4, true)
	for _, rec := range []ServiceRecord{kept, gone, refreshed, rekinded} {
		v.Put(rec)
	}
	pump(4)
	fresh := refreshed
	fresh.Expires = refreshed.Expires.Add(time.Minute)
	moved := rekinded
	moved.Kind = "timer"
	v.AttachStorage(&racingStore{storeAdapter: storeAdapter{st}, racer: func() {
		v.Remove(gone.Origin, gone.URL)
		v.Remove(refreshed.Origin, refreshed.URL)
		v.Put(fresh)
		v.Put(moved)
		pump(4)
	}}, 1)
	v.EnforceBudget(time.Now())

	if rec, ok := v.Get(gone.Origin, gone.URL); ok {
		t.Errorf("withdrawn record served by Get: %+v", rec)
	}
	if rec, ok := st.Lookup(string(gone.Origin), gone.URL, time.Now()); ok {
		t.Errorf("withdrawn record still in the store: %+v", rec)
	}
	if rec, ok := v.Get(moved.Origin, moved.URL); !ok || rec.Kind != "timer" {
		t.Errorf("re-kinded record: Get = %+v, %v; want kind timer", rec, ok)
	}
	cold := map[string]time.Time{}
	v.ScanCold("clock", time.Now(), func(rec ServiceRecord) bool {
		cold[rec.URL] = rec.Expires
		return true
	})
	if len(cold) != 2 || !cold[kept.URL].Equal(kept.Expires.Truncate(time.Millisecond)) ||
		!cold[fresh.URL].Equal(fresh.Expires.Truncate(time.Millisecond)) {
		t.Errorf("cold clock records = %v; want only %s and the refreshed %s", cold, kept.URL, fresh.URL)
	}

	// A warm boot replays what the view holds, not the evicted copies.
	cancel()
	st.Close()
	st, err = viewstore.Open(dir, viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	replayed := map[string]viewstore.Record{}
	for _, rec := range st.Recovered().Records {
		replayed[rec.URL] = rec
	}
	if _, ok := replayed[gone.URL]; ok || len(replayed) != 3 ||
		replayed[fresh.URL].Expires != fresh.Expires.UnixMilli() || replayed[moved.URL].Kind != "timer" {
		t.Errorf("warm boot replayed %+v; want %s, the refreshed %s and the re-kinded %s", replayed, kept.URL, fresh.URL, moved.URL)
	}
}

// TestEvictionStopsWhenStorageRefusesAll: records the store has never
// logged are refused by Spill; the pass must keep them in memory and
// return instead of retrying the same batch forever.
func TestEvictionStopsWhenStorageRefusesAll(t *testing.T) {
	st, err := viewstore.Open(t.TempDir(), viewstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v := NewServiceView()
	for i := 0; i < 3; i++ {
		v.Put(tierRec(i, true))
	}
	v.AttachStorage(storeAdapter{st}, 1)
	done := make(chan int, 1)
	go func() { done <- v.EnforceBudget(time.Now()) }()
	select {
	case n := <-done:
		if n != 0 || st.SpilledCount() != 0 {
			t.Fatalf("evicted %d, store spilled %d; want 0 and 0", n, st.SpilledCount())
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EnforceBudget spins on a batch the store refuses")
	}
	if _, ok := v.Get(SDPUPnP, tierRec(1, true).URL); !ok {
		t.Fatal("refused record left memory")
	}
}

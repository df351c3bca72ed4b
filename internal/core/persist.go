package core

import (
	"fmt"
	"time"

	"indiss/internal/viewstore"
)

// Persistence wiring: with Config.DataDir set, the system opens a
// log-structured viewstore under it, warm-loads the surviving records
// into the view before any unit runs, attaches the store as the view's
// cold tier, and keeps the log current by pumping the view's lossless
// delta-batch feed into it. The log is a cache of discovery state, not
// a ledger: replay reconciliation (append order, TTLs, graves) decides
// what a reboot believes, and anything the log missed is re-learned
// from native traffic or peers.

// maintainInterval paces store maintenance (flush, grave
// pruning, compaction) and view budget enforcement.
const maintainInterval = time.Second

// toStoreRecord converts a view record to its log form (unix-ms
// expiry).
func toStoreRecord(r *ServiceRecord) viewstore.Record {
	return viewstore.Record{
		Origin:   string(r.Origin),
		Kind:     r.Kind,
		URL:      r.URL,
		Location: r.Location,
		Attrs:    r.Attrs,
		Expires:  r.Expires.UnixMilli(),
		OriginGW: r.OriginGW,
		Hops:     uint8(min64(int64(r.Hops), 255)),
		Remote:   r.Remote,
	}
}

// fromStoreRecord converts a log record back to view form.
func fromStoreRecord(r *viewstore.Record) ServiceRecord {
	attrs := r.Attrs
	if attrs == nil {
		attrs = map[string]string{}
	}
	return ServiceRecord{
		Origin:   SDP(r.Origin),
		Kind:     r.Kind,
		URL:      r.URL,
		Location: r.Location,
		Attrs:    attrs,
		Expires:  time.UnixMilli(r.Expires),
		OriginGW: r.OriginGW,
		Hops:     int(r.Hops),
		Remote:   r.Remote,
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// storeAdapter narrows *viewstore.Store to the view's ViewStorage
// contract, translating record forms at the boundary.
type storeAdapter struct {
	st *viewstore.Store
}

func (a storeAdapter) Spill(recs []ServiceRecord) error {
	out := make([]viewstore.Record, len(recs))
	for i := range recs {
		out[i] = toStoreRecord(&recs[i])
	}
	_, err := a.st.Spill(out)
	return err
}

func (a storeAdapter) Lookup(origin SDP, url string, now time.Time) (ServiceRecord, bool) {
	rec, ok := a.st.Lookup(string(origin), url, now)
	if !ok {
		return ServiceRecord{}, false
	}
	return fromStoreRecord(&rec), true
}

func (a storeAdapter) SpilledCount() int { return a.st.SpilledCount() }

// ScanKind satisfies the optional KindScanner extension: the query
// plane's cold fallthrough enumerates spilled records of one kind
// through it. The store's fn runs under its lock, so the view-form copy
// is taken inside and handed out by value.
func (a storeAdapter) ScanKind(kind string, now time.Time, fn func(ServiceRecord) bool) {
	a.st.ScanSpilledKind(kind, now, func(r *viewstore.Record) bool {
		return fn(fromStoreRecord(r))
	})
}

func (a storeAdapter) SpillGeneration() uint64 { return a.st.SpillGeneration() }

func (a storeAdapter) SpilledKind(origin SDP, url string) (string, bool) {
	return a.st.SpilledKind(string(origin), url)
}

// openStorage opens the view log, replays it into the view, attaches
// the cold tier, and starts the pump and maintenance goroutines. Runs
// during NewSystem, before the monitor or any unit — the warm records
// are in place before the first native message arrives.
func (s *System) openStorage() error {
	st, err := viewstore.Open(s.cfg.DataDir, viewstore.Options{})
	if err != nil {
		return fmt.Errorf("core: view storage: %w", err)
	}
	s.store = st

	// Warm-load before subscribing the pump: replayed records are
	// already in the log, so their Put deltas must not re-append them.
	rec := st.Recovered()
	for i := range rec.Records {
		s.view.Put(fromStoreRecord(&rec.Records[i]))
	}
	s.view.AttachStorage(storeAdapter{st}, s.cfg.ViewMemBudget)

	batches, cancel := s.view.SubscribeDeltaBatches(1024)
	s.storeCancel = cancel
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.pumpStore(batches)
	}()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.maintainStore()
	}()
	return nil
}

// pumpStore mirrors view delta batches into the log. The feed is
// lossless (it spools), so the log sees every mutation; one Flush per
// batch amortizes durability to the batch boundary.
func (s *System) pumpStore(batches <-chan []Delta) {
	for batch := range batches {
		for _, d := range batch {
			switch d.Op {
			case DeltaPut:
				r := toStoreRecord(&d.Record)
				_ = s.store.Put(&r)
			case DeltaRemove, DeltaExpire:
				// Expiry is erased too: the record would be dropped on
				// replay anyway, but erasing keeps lookups and the
				// spilled set from serving it meanwhile.
				_ = s.store.Erase(string(d.Record.Origin), d.Record.URL)
			}
		}
		_ = s.store.Flush()
	}
}

// maintainStore periodically compacts the log and enforces the view's
// memory budget.
func (s *System) maintainStore() {
	ticker := time.NewTicker(maintainInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			now := time.Now()
			_ = s.store.Maintain(now)
			s.view.EnforceBudget(now)
		}
	}
}

// ViewStore returns the persistent view store, nil when the system
// runs memory-only (no DataDir configured).
func (s *System) ViewStore() *viewstore.Store {
	return s.store
}

// Recovered summarizes what the warm boot replayed, the zero value
// when the system runs memory-only or started cold.
func (s *System) Recovered() viewstore.Recovered {
	if s.store == nil {
		return viewstore.Recovered{}
	}
	return s.store.Recovered()
}

package core

import (
	"fmt"
	"time"

	"indiss/internal/viewstore"
)

// Persistence wiring: with Config.DataDir set, the system opens a
// log-structured viewstore under it, warm-loads the surviving records
// into the view before any unit runs, and keeps the log current by
// pumping the view's lossless delta-batch feed into it. Lookups read
// the view only; the log is read back on the next boot. The log is a
// cache of discovery state, not a ledger: replay reconciliation (append
// order, TTLs, graves) decides what a reboot believes, and anything the
// log missed is re-learned from native traffic or peers.

// maintainInterval paces store maintenance (flush, grave pruning,
// compaction).
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

// openStorage opens the view log, replays it into the view, and starts
// the pump and maintenance goroutines. Runs during NewSystem, before
// the monitor or any unit — the warm records are in place before the
// first native message arrives.
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
				// replay anyway, but erasing keeps the keydir and the
				// compaction's live set to what the view holds.
				_ = s.store.Erase(string(d.Record.Origin), d.Record.URL)
			}
		}
		_ = s.store.Flush()
	}
}

// maintainStore periodically flushes and compacts the log.
func (s *System) maintainStore() {
	ticker := time.NewTicker(maintainInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			_ = s.store.Maintain(time.Now())
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

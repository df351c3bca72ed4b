package core

import (
	"sort"
	"time"
)

// ViewStorage is the narrow contract the view's cold tier speaks. The
// hot read path never touches it; it is consulted only on a point-miss
// (Get/Remove of a key not in memory) and by the eviction pass. The
// System wires a log-structured implementation (internal/viewstore) in
// when a data directory is configured; without one the view runs
// memory-only exactly as before.
//
// Implementations must be safe for concurrent use and must never call
// back into the view (the view invokes them with no locks held, save
// KindScanner.SpilledKind, and re-entry would deadlock on the mutating
// paths).
type ViewStorage interface {
	// Spill durably persists the records before the view drops its
	// memory copies; an error aborts the eviction of those records.
	Spill(recs []ServiceRecord) error
	// Lookup resolves a point-miss against the cold tier.
	Lookup(origin SDP, url string, now time.Time) (ServiceRecord, bool)
	// SpilledCount reports how many live records exist only on disk.
	SpilledCount() int
}

// KindScanner is the optional ViewStorage extension the query plane
// needs: enumerate the live records of one kind that exist only in the
// cold tier, and say when that set changed. Without it, kind scans
// cover the memory tier only (point lookups still fall through via
// Lookup). The log-structured store implements it with a kind-tagged
// keydir, so only matching records pay a disk read.
type KindScanner interface {
	// ScanKind calls fn for every live spilled record of the kind
	// (case-insensitive; empty matches every kind), stopping early when
	// fn returns false. fn must not call back into the storage tier.
	ScanKind(kind string, now time.Time, fn func(ServiceRecord) bool)
	// SpillGeneration counts changes to the spilled set: a record
	// spilled, or a spilled one re-put, erased or dropped. It moves no
	// earlier than the change is visible to ScanKind. The view's own
	// counters cannot cover these: the cold tier applies a withdrawal
	// or re-put after the view has bumped.
	SpillGeneration() uint64
	// SpilledKind reports the lowercased kind origin|url was spilled
	// under, when it is spilled. Unlike every other method it runs
	// under the view's key lock (Put calls it), so it must not block on
	// anything a view caller may hold.
	SpilledKind(origin SDP, url string) (string, bool)
}

// recSize estimates one record's resident footprint: struct, strings,
// attribute map, and its share of the bucket and key indexes. A
// heuristic, not an accountant — the budget it feeds is a soft target
// for eviction, not an allocator limit.
func recSize(r *ServiceRecord) int64 {
	n := int64(176)                                        // struct + map slots in bucket and key index
	n += int64(len(r.Origin) + len(r.Kind) + len(r.URL)*2) // URL also keys both indexes
	n += int64(len(r.Location) + len(r.OriginGW))
	for k, v := range r.Attrs {
		n += int64(48 + len(k) + len(v))
	}
	return n
}

// AttachStorage plugs the persistent cold tier under the view and
// arms the memory budget (bytes; 0 means unbounded). Must be called
// before the view is used concurrently — the System attaches storage
// during construction, before any unit runs.
func (v *ServiceView) AttachStorage(s ViewStorage, memBudget int64) {
	v.storage = s
	v.memBudget = memBudget
	v.tiered = s != nil
	v.kindScan, _ = s.(KindScanner)
}

// ScanCold invokes fn for each live cold-tier (spilled) record of the
// kind, value copies safe to retain. A no-op when the view is
// memory-only or its storage lacks a KindScanner — then every live
// record is resident and the shard scan already saw it. The query
// plane's kind queries merge this under their answer cache, so HTTP
// clients see records the memory budget moved to disk.
func (v *ServiceView) ScanCold(kind string, now time.Time, fn func(ServiceRecord) bool) {
	if !v.tiered || v.kindScan == nil {
		return
	}
	v.kindScan.ScanKind(kind, now, fn)
}

// ColdGeneration returns the cold tier's SpillGeneration, 0 when ScanCold
// is a no-op. An answer that merged ScanCold records stays exact only
// while both it and the kind's KindGeneration hold.
func (v *ServiceView) ColdGeneration() uint64 {
	if !v.tiered || v.kindScan == nil {
		return 0
	}
	return v.kindScan.SpillGeneration()
}

// spilledKind is the kind a disk-only record was spilled under, so a
// Put that re-kinds it can bump the kind it leaves. It costs nothing
// until the first eviction: only evicted records are spilled.
func (v *ServiceView) spilledKind(origin SDP, url string) (string, bool) {
	if v.kindScan == nil || v.evicted.Load() == 0 {
		return "", false
	}
	return v.kindScan.SpilledKind(origin, url)
}

// MemUsage returns the estimated resident bytes of the memory tier.
func (v *ServiceView) MemUsage() int64 { return v.memBytes.Load() }

// Evicted returns how many records the budget pass has spilled to the
// cold tier since the view was created.
func (v *ServiceView) Evicted() uint64 { return v.evicted.Load() }

// ColdHits returns how many point lookups were answered from the cold
// tier.
func (v *ServiceView) ColdHits() uint64 { return v.coldHits.Load() }

// touchStamp is the coarse (1s) recency grain buckets are stamped
// with: one atomic load plus a rare store on the read path, instead of
// a contended store per lookup.
func touchStamp(now time.Time) int64 { return now.Unix() }

// touchBucket records a read hit on a bucket, at coarse grain.
func (v *ServiceView) touchBucket(b *kindBucket, now time.Time) {
	if !v.tiered {
		return
	}
	if s := touchStamp(now); b.touch.Load() < s {
		b.touch.Store(s)
	}
}

// evictionBatch bounds how many records one Spill call carries, so the
// write-locked deletion pass that follows stays short.
const evictionBatch = 256

// bucketRef identifies one eviction candidate.
type bucketRef struct {
	shard int
	kind  string
	touch int64
}

// EnforceBudget spills cold remote records to the storage tier until
// the memory estimate fits the budget, coldest Find-buckets first, and
// returns how many records were spilled. Locally learned records are
// never evicted: the gateway is authoritative for them, and they are
// the ones a native answer must not miss. Eviction emits no deltas —
// spilling is invisible to the federation (the record's key and epoch
// are unchanged, only its residence moved).
//
// Called periodically by the owning System; safe to call concurrently
// with all view operations.
func (v *ServiceView) EnforceBudget(now time.Time) int {
	if !v.tiered || v.memBudget <= 0 || v.memBytes.Load() <= v.memBudget {
		return 0
	}

	// Rank buckets coldest-first under read locks.
	var refs []bucketRef
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		for lk, b := range sh.kinds {
			refs = append(refs, bucketRef{shard: i, kind: lk, touch: b.touch.Load()})
		}
		sh.mu.RUnlock()
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].touch < refs[j].touch })

	spilled := 0
	for _, ref := range refs {
		if v.memBytes.Load() <= v.memBudget {
			break
		}
		spilled += v.evictBucket(ref, now)
	}
	return spilled
}

// evictBucket spills one bucket's remote records in batches: copy under
// the read lock, persist with no locks held, then delete under the
// write locks only the records that did not change in between.
func (v *ServiceView) evictBucket(ref bucketRef, now time.Time) int {
	sh := &v.shards[ref.shard]
	total := 0
	for v.memBytes.Load() > v.memBudget {
		var batch []ServiceRecord
		sh.mu.RLock()
		b := sh.kinds[ref.kind]
		if b != nil {
			for _, rec := range b.recs {
				if !rec.Remote || !rec.Expires.After(now) {
					continue
				}
				batch = append(batch, rec)
				if len(batch) >= evictionBatch {
					break
				}
			}
		}
		sh.mu.RUnlock()
		if len(batch) == 0 {
			return total
		}
		if err := v.storage.Spill(batch); err != nil {
			return total // storage trouble: keep the memory copies
		}

		// Drop the spilled copies — unless a concurrent Put refreshed
		// one, in which case the memory copy is newer and stays.
		v.keysMu.Lock()
		sh.mu.Lock()
		b = sh.kinds[ref.kind]
		n := 0
		for i := range batch {
			rec := &batch[i]
			key := viewKey(rec.Origin, rec.URL)
			if b == nil {
				break
			}
			cur, ok := b.recs[key]
			if !ok || !cur.Expires.Equal(rec.Expires) {
				continue
			}
			v.deleteFromBucket(sh, ref.kind, key)
			b = sh.kinds[ref.kind] // deleteFromBucket may drop the bucket
			if v.keys[key] == ref.kind {
				delete(v.keys, key)
			}
			n++
		}
		// Counted under keysMu: a Put that finds its key gone must
		// also find spilledKind armed.
		v.evicted.Add(uint64(n))
		total += n
		sh.mu.Unlock()
		v.keysMu.Unlock()
	}
	return total
}

// spillTotal is a helper for Len: the cold tier's live-record count,
// zero without one.
func (v *ServiceView) spillTotal() int {
	if !v.tiered {
		return 0
	}
	return v.storage.SpilledCount()
}

// coldLookup consults the storage tier after a point-miss.
func (v *ServiceView) coldLookup(origin SDP, url string, now time.Time) (ServiceRecord, bool) {
	if !v.tiered {
		return ServiceRecord{}, false
	}
	rec, ok := v.storage.Lookup(origin, url, now)
	if ok {
		v.coldHits.Add(1)
	}
	return rec, ok
}

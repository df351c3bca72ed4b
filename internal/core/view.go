package core

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
)

// ServiceRecord is one service INDISS knows about, in SDP-neutral form.
// Records are produced by units parsing native advertisements and
// responses, and consumed by units composing answers for other SDPs.
type ServiceRecord struct {
	// Origin is the SDP the service natively speaks.
	Origin SDP
	// Kind is the canonical short service type ("clock", "printer").
	Kind string
	// URL is the service's native endpoint or service URL.
	URL string
	// Location is the description document URL for SDPs that have one
	// (UPnP), empty otherwise.
	Location string
	// Attrs are the service's attributes in neutral name=value form.
	Attrs map[string]string
	// Expires is when the knowledge lapses (from lifetimes/max-age).
	Expires time.Time

	// Federation provenance. Records learned from local native traffic
	// leave all three fields zero; records synced from a peer gateway
	// carry where the knowledge entered the federation and how far it
	// traveled.

	// OriginGW is the ID of the gateway that first bridged the record
	// into the federation. Empty for locally learned records.
	OriginGW string
	// Hops is the number of federation links the record crossed to get
	// here (0 for local records).
	Hops int
	// Remote marks records learned from peer gateways rather than from
	// this segment's native traffic.
	Remote bool
}

// Clone deep-copies the record.
func (r ServiceRecord) Clone() ServiceRecord {
	attrs := make(map[string]string, len(r.Attrs))
	for k, v := range r.Attrs {
		attrs[k] = v
	}
	out := r
	out.Attrs = attrs
	return out
}

// viewShardCount is the number of kind-hashed shards. Discovery traffic
// concentrates on few kinds at a time, so a small power of two keeps the
// footprint negligible while letting unrelated kinds proceed in parallel.
const viewShardCount = 16

// kindGenStripes is the number of per-kind generation counters. Kinds
// share a counter only when their hashes collide, so the stripe count
// sets how often churn on one kind spuriously invalidates an answer for
// another: at 1024 two given kinds collide with probability 1/1024,
// where the 16 shards would put every sixteenth kind pair together. The
// array is fixed (8 KiB per view) whatever the number of kinds ever
// seen, and a counter never restarts, so a memoized answer for a kind
// whose records all left can never match a later state by accident.
const kindGenStripes = 1024

// expiryEntry is one pending expiration in a shard's min-heap. Entries
// are never updated in place: each record has one *live* entry (matching
// seq in the shard's armed index); anything else popped is a discarded
// orphan from an earlier arm.
type expiryEntry struct {
	at   time.Time
	kind string // lowercased kind, the record's bucket
	key  string
	seq  uint64
}

// armedState tracks a record's live heap entry: its identity (seq) and
// deadline (at). Pops compare seq so orphaned entries can never re-arm,
// and Put compares at so a shortened deadline re-arms early.
type armedState struct {
	seq uint64
	at  time.Time
}

// viewShard holds the records of the kinds hashing to it, bucketed by
// lowercased kind so a Find touches exactly the records it returns.
type viewShard struct {
	mu     sync.RWMutex
	kinds  map[string]map[string]ServiceRecord // lowered kind → key → record
	expiry []expiryEntry                       // min-heap by at
	// armed maps each (kind,key) to its single live heap entry. Put
	// pushes only when unarmed or when the new deadline is earlier than
	// the armed one (the superseded entry becomes an orphan its seq
	// mismatch discards at pop), and the sweep either re-arms (record
	// refreshed) or disarms (record gone/expired) the live entry it
	// pops. Neither refresh storms nor Remove→re-Put churn can grow the
	// heap beyond transient orphans.
	armed map[string]armedState
	seq   uint64
}

// armedKey identifies a heap entry's record within its shard.
func armedKey(kind, key string) string {
	return kind + "\x00" + key
}

// DeltaOp names what happened to a record in the view.
type DeltaOp uint8

// Delta operations.
const (
	// DeltaPut reports an inserted or refreshed record.
	DeltaPut DeltaOp = iota + 1
	// DeltaRemove reports an explicit withdrawal (byebye/deregistration).
	DeltaRemove
	// DeltaExpire reports a record that aged out. Expiry is local to
	// every cache (the TTL travels with the record), so consumers that
	// replicate the view — the federation plane — propagate Remove but
	// not Expire.
	DeltaExpire
)

// Delta is one change to the view, as delivered to delta subscribers.
// Record is a value copy whose Attrs map is shared with the view and
// must be treated as read-only (the Find contract).
type Delta struct {
	Op     DeltaOp
	Record ServiceRecord
}

// ServiceView is the shared, expiring cache of discovered services. It is
// what makes the paper's Figure 9b the "best case": when a request
// arrives for a service the view already knows, the unit composes the
// native answer directly — "the necessary information to generate a
// search response … is tiny".
//
// The view is sharded by (lowercased) service kind with a read/write lock
// per shard: the hot lookup — Find of one kind — takes one shard's read
// lock and touches only that kind's bucket, so concurrent lookups for
// unrelated kinds never contend and no lookup pays for the size of the
// whole cache. Expiry is a lazy min-heap sweep per shard instead of a
// full-map scan per lookup.
type ServiceView struct {
	// keysMu guards keys, the global origin|url → lowered-kind index
	// that routes Remove (which does not know the kind) and keeps a key
	// unique when a re-Put changes its kind. Mutating operations take
	// keysMu before a shard lock; read paths never touch it.
	//
	// Holding keysMu across a whole Put serializes writers globally —
	// a deliberate trade-off: writes arrive at advertisement rate
	// (~per-second per service) while lookups arrive at request rate,
	// and spanning the key check-and-update is what makes the
	// cross-shard uniqueness invariant trivially correct. The sharding
	// exists to parallelize the hot read path, which stays lock-free of
	// any global state.
	keysMu sync.Mutex
	keys   map[string]string

	// sweepCursor rotates a maintenance sweep across shards on Put (see
	// there), so expired records in shards that are never re-written or
	// queried still get collected. Guarded by keysMu.
	sweepCursor uint32

	shards [viewShardCount]viewShard

	// gen counts view mutations: every Put, Remove and expiry bumps it
	// once. kindGen refines it per kind: the same mutation also bumps
	// the stripe of every kind whose answer it can change (both kinds
	// when a Put re-kinds a record). Consumers that memoize derived
	// answers (the query plane's answer cache, after the federation
	// digest cache's bumpSummaries pattern) tag an answer with the
	// counter read before the scan and revalidate with one atomic load.
	gen     atomic.Uint64
	kindGen [kindGenStripes]atomic.Uint64

	// Delta feed. numSubs mirrors the total subscriber count so the
	// mutating paths can skip all delta work with one atomic load when
	// nobody listens — the common case, which stays allocation-free.
	numSubs   atomic.Int32
	deltaMu   sync.Mutex
	deltaSeq  int
	batchSubs map[int]*batchSub
}

// batchSub spools delta batches for one SubscribeDeltaBatches consumer.
// The spool is unbounded on purpose: the view's mutating paths must
// never block on a subscriber (a Put inside the federation's locks
// would deadlock against the distributor) and must never drop either —
// the distributor has to see every delta, or local changes would reach
// peers only at anti-entropy pace. Memory is bounded by the consumer,
// which drains continuously; per-peer backpressure lives downstream in
// the federation's bounded send queues.
type batchSub struct {
	ch   chan []Delta
	stop chan struct{}
	wake chan struct{} // cap 1: sticky wakeup for the pump

	mu    sync.Mutex
	queue [][]Delta
}

// pump moves spooled batches to the subscriber channel at the
// consumer's pace.
func (b *batchSub) pump() {
	for {
		b.mu.Lock()
		queue := b.queue
		b.queue = nil
		b.mu.Unlock()
		if len(queue) == 0 {
			select {
			case <-b.wake:
				continue
			case <-b.stop:
				close(b.ch)
				return
			}
		}
		for _, deltas := range queue {
			select {
			case b.ch <- deltas:
			case <-b.stop:
				close(b.ch)
				return
			}
		}
	}
}

// NewServiceView returns an empty view.
func NewServiceView() *ServiceView {
	v := &ServiceView{
		keys:      make(map[string]string),
		batchSubs: make(map[int]*batchSub),
	}
	for i := range v.shards {
		v.shards[i].kinds = make(map[string]map[string]ServiceRecord)
		v.shards[i].armed = make(map[string]armedState)
	}
	return v
}

// SubscribeDeltaBatches returns a channel delivering every subsequent
// change to the view, plus a cancel function releasing the subscription.
// Every view mutation delivers its deltas as one []Delta — a Put and the
// expiry sweep it triggered arrive together — so a consumer that batches
// work (the federation distributor) receives the view's natural batch
// boundaries instead of re-discovering them one channel receive at a
// time. The delivered slice is shared read-only between subscribers and
// must not be mutated or retained past the consumer's own batching
// window. Delivery is lossless: batches a slow consumer has not taken
// yet spool in memory rather than dropping, so the feed is safe to build
// live replication on. buf sizes the handoff channel only; it does not
// bound the spool. Deltas are emitted after the view's locks are
// released, so ordering between concurrent mutations is approximate.
func (v *ServiceView) SubscribeDeltaBatches(buf int) (<-chan []Delta, func()) {
	if buf <= 0 {
		buf = 64
	}
	sub := &batchSub{
		ch:   make(chan []Delta, buf),
		stop: make(chan struct{}),
		wake: make(chan struct{}, 1),
	}
	go sub.pump()
	v.deltaMu.Lock()
	v.deltaSeq++
	id := v.deltaSeq
	v.batchSubs[id] = sub
	v.numSubs.Store(int32(len(v.batchSubs)))
	v.deltaMu.Unlock()
	cancel := func() {
		v.deltaMu.Lock()
		if _, ok := v.batchSubs[id]; ok {
			delete(v.batchSubs, id)
			v.numSubs.Store(int32(len(v.batchSubs)))
			close(sub.stop)
		}
		v.deltaMu.Unlock()
	}
	return sub.ch, cancel
}

// Generation returns the view's whole-view mutation counter. Any
// change to the answer a Find/FindWhere could give — insert, refresh,
// withdrawal, expiry — has bumped it, so an answer rendered at
// generation G is still exact while Generation() == G (modulo the
// records' own TTLs, which the caller bounds separately: expiry only
// bumps the counter when the lazy sweep collects the record, not at
// the instant its lifetime lapses).
func (v *ServiceView) Generation() uint64 { return v.gen.Load() }

// KindGeneration is Generation narrowed to one kind: it moves on every
// change to what Find(kind) could return, and otherwise only when a
// kind sharing its counter stripe changes. The kind is matched
// case-insensitively, exactly as Put files it; "" means the whole view
// and returns Generation(). ASCII kinds are looked up without
// allocating, mixed case included.
func (v *ServiceView) KindGeneration(kind string) uint64 {
	if kind == "" {
		return v.gen.Load()
	}
	return v.kindGen[kindHash(kind)%kindGenStripes].Load()
}

// bumpKind moves the counter stripe of a lowercased kind.
func (v *ServiceView) bumpKind(lk string) { v.kindGen[kindHash(lk)%kindGenStripes].Add(1) }

// bumpGen invalidates generation-memoized consumers; every mutation
// that can change a query answer calls it with the lowercased kind it
// changed.
func (v *ServiceView) bumpGen(lk string) {
	v.bumpKind(lk)
	v.gen.Add(1)
}

// wantDeltas gates delta collection on the mutating paths.
func (v *ServiceView) wantDeltas() bool { return v.numSubs.Load() > 0 }

// emitDeltas spools collected deltas for every subscriber,
// non-blocking. Must be called with no view locks held.
func (v *ServiceView) emitDeltas(deltas []Delta) {
	if len(deltas) == 0 {
		return
	}
	v.deltaMu.Lock()
	defer v.deltaMu.Unlock()
	for _, sub := range v.batchSubs {
		sub.mu.Lock()
		sub.queue = append(sub.queue, deltas)
		sub.mu.Unlock()
		select {
		case sub.wake <- struct{}{}:
		default: // pump already signalled
		}
	}
}

func viewKey(origin SDP, url string) string {
	return string(origin) + "|" + url
}

// kindHash is FNV-1a over strings.ToLower(kind): it picks the kind's
// shard and its generation stripe. ASCII letters are lowered on the fly,
// so a mixed-case lookup does not allocate; a non-ASCII kind takes
// strings.ToLower itself, the only way to match what Put stored.
func kindHash(kind string) uint32 {
	for i := 0; i < len(kind); i++ {
		if kind[i] >= utf8.RuneSelf {
			kind = strings.ToLower(kind)
			break
		}
	}
	var h uint32 = 2166136261
	for i := 0; i < len(kind); i++ {
		c := kind[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// shardFor picks the shard for a lowercased kind.
func (v *ServiceView) shardFor(loweredKind string) *viewShard {
	return &v.shards[kindHash(loweredKind)%viewShardCount]
}

// Put inserts or refreshes a record.
func (v *ServiceView) Put(rec ServiceRecord) {
	if rec.URL == "" {
		return
	}
	key := viewKey(rec.Origin, rec.URL)
	lk := strings.ToLower(rec.Kind)
	now := time.Now()
	var deltas []Delta

	v.keysMu.Lock()
	if old, ok := v.keys[key]; ok && old != lk {
		// The record changed kind: evict it from its old bucket so the
		// key stays unique across shards.
		sh := v.shardFor(old)
		sh.mu.Lock()
		v.deleteFromBucket(sh, old, key)
		v.bumpKind(old)
		sh.mu.Unlock()
	}
	v.keys[key] = lk

	sh := v.shardFor(lk)
	sh.mu.Lock()
	bucket := sh.kinds[lk]
	if bucket == nil {
		bucket = make(map[string]ServiceRecord)
		sh.kinds[lk] = bucket
	}
	stored := rec.Clone()
	bucket[key] = stored
	ak := armedKey(lk, key)
	if a, ok := sh.armed[ak]; !ok || rec.Expires.Before(a.at) {
		// Arm (or re-arm earlier). An armed entry with an equal-or-
		// earlier deadline is reused — the sweep re-arms it with the
		// then-current Expires — so a service re-advertised every few
		// hundred ms keeps exactly one live entry instead of one per
		// refresh.
		sh.seq++
		pushExpiry(sh, expiryEntry{at: rec.Expires, kind: lk, key: key, seq: sh.seq})
		sh.armed[ak] = armedState{seq: sh.seq, at: rec.Expires}
	}
	v.bumpGen(lk)
	if v.wantDeltas() {
		deltas = append(deltas, Delta{Op: DeltaPut, Record: stored})
	}
	deltas = v.sweepShardLocked(sh, now, deltas)
	sh.mu.Unlock()

	// Rotate a maintenance sweep over one other shard per Put, so kinds
	// that stop being written or asked about still age out (a Find only
	// sweeps the shard it queried, and only on an expired hit). Reads
	// stay untouched: the hot lookup path never pays for this.
	v.sweepCursor++
	other := &v.shards[v.sweepCursor%viewShardCount]
	if other != sh {
		other.mu.Lock()
		deltas = v.sweepShardLocked(other, now, deltas)
		other.mu.Unlock()
	}
	v.keysMu.Unlock()
	v.emitDeltas(deltas)
}

// Remove withdraws a record (service byebye / deregistration).
func (v *ServiceView) Remove(origin SDP, url string) bool {
	key := viewKey(origin, url)
	var deltas []Delta
	v.keysMu.Lock()
	lk, ok := v.keys[key]
	if !ok {
		v.keysMu.Unlock()
		return false
	}
	delete(v.keys, key)
	sh := v.shardFor(lk)
	sh.mu.Lock()
	if v.wantDeltas() {
		if rec, live := sh.kinds[lk][key]; live {
			deltas = append(deltas, Delta{Op: DeltaRemove, Record: rec})
		}
	}
	v.deleteFromBucket(sh, lk, key)
	v.bumpGen(lk)
	sh.mu.Unlock()
	v.keysMu.Unlock()
	v.emitDeltas(deltas)
	return true
}

// Get returns the live record stored under (origin, url). The returned
// record's Attrs map is shared with the view and must be treated as
// read-only, as with Find.
func (v *ServiceView) Get(origin SDP, url string) (ServiceRecord, bool) {
	key := viewKey(origin, url)
	v.keysMu.Lock()
	lk, ok := v.keys[key]
	v.keysMu.Unlock()
	if !ok {
		return ServiceRecord{}, false
	}
	sh := v.shardFor(lk)
	sh.mu.RLock()
	rec, ok := sh.kinds[lk][key]
	sh.mu.RUnlock()
	if !ok || !rec.Expires.After(time.Now()) {
		return ServiceRecord{}, false
	}
	return rec, true
}

// Find returns live records of the given kind (case-insensitive); an
// empty kind matches everything. Results are URL-ordered.
//
// Returned records are value copies, but their Attrs maps are shared with
// the view and MUST be treated as read-only — this is what keeps the
// cached-answer hot path (paper Figure 9b) allocation-free per record.
// The view itself never mutates a stored record's Attrs (Put replaces the
// whole record), so a returned map is immutable in practice. Callers that
// need a mutable copy take one explicitly with ServiceRecord.Clone.
func (v *ServiceView) Find(kind string, now time.Time) []ServiceRecord {
	return v.find(kind, now, "", false, nil)
}

// FindWhere is Find with a pushed-down filter: keep is evaluated inside
// the shard scan, against the stored record, BEFORE the value copy into
// the result slice — so a selective predicate never pays, in copies or
// in result growth, for the records it rejects. This is the query
// plane's predicate path (SLP-style attribute filters lifted to the
// view): filter-then-copy, where the naive layering would copy the
// whole bucket and filter afterwards.
//
// keep must be fast, must not retain the record pointer past the call
// (it aliases the shard's storage, guarded by the shard read lock), and
// must not call back into the view. A nil keep is exactly Find. The
// Attrs sharing contract of Find applies to the results.
func (v *ServiceView) FindWhere(kind string, now time.Time, keep func(*ServiceRecord) bool) []ServiceRecord {
	return v.find(kind, now, "", false, keep)
}

// FindForeign returns live records of the given kind that did NOT
// originate from the asking SDP — the set a bridge should re-advertise or
// answer with (a unit never answers its own protocol's services; the
// native stack already does that). Same-origin records are filtered
// inside the shard scan, so the caller never pays — in copies or in
// result-slice growth — for records it would discard. The Attrs sharing
// contract of Find applies.
//
// Locally learned records order before federated (Remote) ones: when a
// unit answers first-wins or a client takes the head of the list, it
// prefers the service on its own segment over an equivalent one that is
// several routed hops away. Within each class, order is by URL.
func (v *ServiceView) FindForeign(asking SDP, kind string, now time.Time) []ServiceRecord {
	return v.find(kind, now, asking, true, nil)
}

func (v *ServiceView) find(kind string, now time.Time, skip SDP, filterOrigin bool, keep func(*ServiceRecord) bool) []ServiceRecord {
	if kind != "" {
		lk := strings.ToLower(kind)
		sh := v.shardFor(lk)
		sh.mu.RLock()
		out := v.collectLocked(sh, lk, now, skip, filterOrigin, keep, nil, true)
		due := sweepDueLocked(sh, now)
		sh.mu.RUnlock()
		if due {
			v.sweepShard(sh, now)
		}
		sortRecords(out, filterOrigin)
		return out
	}

	// Match-all: walk every shard and bucket (diagnostics path, not the
	// per-message lookup).
	var out []ServiceRecord
	for i := range v.shards {
		sh := &v.shards[i]
		sh.mu.RLock()
		for lk := range sh.kinds {
			out = v.collectLocked(sh, lk, now, skip, filterOrigin, keep, out, false)
		}
		due := sweepDueLocked(sh, now)
		sh.mu.RUnlock()
		if due {
			v.sweepShard(sh, now)
		}
	}
	sortRecords(out, filterOrigin)
	return out
}

// sweepDueLocked reports whether the shard's earliest expiry deadline has
// passed — the only situation where escalating to a write-locked sweep
// can free anything. Gating on the heap top (one comparison under the
// read lock) keeps the hot lookup path from hammering the global keysMu
// with no-op sweeps while an expired-but-later-armed record lingers.
func sweepDueLocked(sh *viewShard, now time.Time) bool {
	return len(sh.expiry) > 0 && !sh.expiry[0].at.After(now)
}

func (v *ServiceView) collectLocked(sh *viewShard, lk string, now time.Time, skip SDP, filterOrigin bool, keep func(*ServiceRecord) bool, out []ServiceRecord, presize bool) []ServiceRecord {
	bucket := sh.kinds[lk]
	if len(bucket) == 0 {
		return out
	}
	if presize && out == nil {
		out = make([]ServiceRecord, 0, len(bucket))
	}
	if keep != nil {
		// One reusable evaluation slot, not &rec: the predicate is an
		// unknown function, so escape analysis would heap-allocate the
		// loop variable on every iteration if its address were taken.
		probe := new(ServiceRecord)
		for _, rec := range bucket {
			if !rec.Expires.After(now) || (filterOrigin && rec.Origin == skip) {
				continue
			}
			*probe = rec
			if !keep(probe) {
				continue // pushed-down predicate: rejected before the copy
			}
			out = append(out, *probe) // value copy; Attrs shared read-only
		}
		return out
	}
	for _, rec := range bucket {
		if !rec.Expires.After(now) {
			continue // lazily skipped; the heap sweep reclaims it
		}
		if filterOrigin && rec.Origin == skip {
			continue
		}
		out = append(out, rec) // value copy; Attrs shared read-only
	}
	return out
}

// sortRecords orders results: Find keeps the historical pure-URL order;
// FindForeign (preferLocal) sorts locally learned records before remote
// ones so first-wins consumers answer with the same-segment service.
func sortRecords(recs []ServiceRecord, preferLocal bool) {
	slices.SortFunc(recs, func(a, b ServiceRecord) int {
		if preferLocal && a.Remote != b.Remote {
			if a.Remote {
				return 1
			}
			return -1
		}
		return strings.Compare(a.URL, b.URL)
	})
}

// Len returns the number of records, live or not.
func (v *ServiceView) Len() int {
	v.keysMu.Lock()
	defer v.keysMu.Unlock()
	return len(v.keys)
}

// sweepShard expires due records of one shard: pop heap entries whose
// deadline passed and delete the records that are genuinely stale
// (a refreshed record has a later Expires and a newer heap entry, so the
// old entry is discarded harmlessly).
func (v *ServiceView) sweepShard(sh *viewShard, now time.Time) {
	v.keysMu.Lock()
	sh.mu.Lock()
	deltas := v.sweepShardLocked(sh, now, nil)
	sh.mu.Unlock()
	v.keysMu.Unlock()
	v.emitDeltas(deltas)
}

// sweepShardLocked requires keysMu and sh.mu held. Expired records are
// appended to deltas (when anyone subscribes) for the caller to emit
// once the locks are released.
func (v *ServiceView) sweepShardLocked(sh *viewShard, now time.Time, deltas []Delta) []Delta {
	for len(sh.expiry) > 0 && !sh.expiry[0].at.After(now) {
		entry := popExpiry(sh)
		ak := armedKey(entry.kind, entry.key)
		if a, ok := sh.armed[ak]; !ok || a.seq != entry.seq {
			continue // orphan superseded by an earlier re-arm: discard
		}
		rec, ok := sh.kinds[entry.kind][entry.key]
		if !ok {
			// Removed or re-put under another kind: the live entry is
			// consumed, so the pair is no longer armed.
			delete(sh.armed, ak)
			continue
		}
		if rec.Expires.After(now) {
			// Refreshed since the entry was armed: re-arm at the
			// current deadline. A pop re-pushes at most once, so the
			// heap never grows here.
			pushExpiry(sh, expiryEntry{at: rec.Expires, kind: entry.kind, key: entry.key, seq: entry.seq})
			sh.armed[ak] = armedState{seq: entry.seq, at: rec.Expires}
			continue
		}
		if v.wantDeltas() {
			deltas = append(deltas, Delta{Op: DeltaExpire, Record: rec})
		}
		v.deleteFromBucket(sh, entry.kind, entry.key)
		v.bumpGen(entry.kind)
		delete(sh.armed, ak)
		// Only unindex the key if it still routes to this bucket (it may
		// have been re-put under another kind).
		if v.keys[entry.key] == entry.kind {
			delete(v.keys, entry.key)
		}
	}
	return deltas
}

// deleteFromBucket removes one record, and the kind's bucket with its
// last record.
func (v *ServiceView) deleteFromBucket(sh *viewShard, lk, key string) {
	bucket := sh.kinds[lk]
	delete(bucket, key)
	if len(bucket) == 0 {
		delete(sh.kinds, lk)
	}
}

// --- expiry min-heap (manual: container/heap would box every entry) ---

func pushExpiry(sh *viewShard, e expiryEntry) {
	sh.expiry = append(sh.expiry, e)
	i := len(sh.expiry) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !sh.expiry[i].at.Before(sh.expiry[parent].at) {
			break
		}
		sh.expiry[i], sh.expiry[parent] = sh.expiry[parent], sh.expiry[i]
		i = parent
	}
}

func popExpiry(sh *viewShard) expiryEntry {
	top := sh.expiry[0]
	last := len(sh.expiry) - 1
	sh.expiry[0] = sh.expiry[last]
	sh.expiry[last] = expiryEntry{} // release strings to the GC
	sh.expiry = sh.expiry[:last]
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(sh.expiry) && sh.expiry[left].at.Before(sh.expiry[smallest].at) {
			smallest = left
		}
		if right < len(sh.expiry) && sh.expiry[right].at.Before(sh.expiry[smallest].at) {
			smallest = right
		}
		if smallest == i {
			return top
		}
		sh.expiry[i], sh.expiry[smallest] = sh.expiry[smallest], sh.expiry[i]
		i = smallest
	}
}

package federation

import (
	"encoding/binary"
	"time"

	"indiss/internal/core"
)

// Digest anti-entropy: each round an endpoint summarizes its view per
// origin gateway — live count, order-independent set hash over (key,
// epoch), max epoch, and the same pair for graves — and sends the
// summary. The receiver pushes full records only for origins the digest
// proves diverged, and requests (DIGEST-DIFF) origins the sender knows
// and it lacks. At quiescence every bucket matches and a round costs
// one small frame per link, independent of view size.
//
// Two deliberate exclusions keep the hash convergent: expiry instants
// (TTLs are re-derived per hop and never compare equal — a lost refresh
// is repaired through the count mismatch after the stale copy expires,
// inside the TTL-staleness bound the plane already promises) and hop
// counts (path length is link-local knowledge).
//
// A divergence that cannot be repaired — a record absorbed at the hop
// cap that the peer may never accept, or one the accept filter rejects —
// would otherwise re-push every round forever. Each session therefore
// memoizes the exact divergence (our hashes, peer hashes) it last
// pushed or requested for an origin, and stays silent while it
// persists. Dropped pushes (shed queue) are not memoized, so
// backpressure losses retry next round.
//
// A memo only throttles, it cannot silence: it expires after
// memoRounds anti-entropy intervals. Expiry is load-bearing for
// correctness, not just hygiene — the same divergence can genuinely
// recur (peer converged, then dropped the same records again) with no
// intervening digest observed here to clear the memo, and without
// expiry that repair would never be retried.

// memoRounds is how many anti-entropy intervals a digest memo
// suppresses re-repairing one unchanged divergence.
const memoRounds = 8

// pushMemo records one origin's divergence at the time of the last
// repair push to a session.
type pushMemo struct {
	ourLive, ourGrave   uint64
	peerLive, peerGrave uint64
	peerPresent         bool
	at                  time.Time
}

// reqMemo records the peer-side hashes at the last DIGEST-DIFF request
// for an origin.
type reqMemo struct {
	peerLive, peerGrave uint64
	at                  time.Time
}

func (e *Endpoint) memoTTL() time.Duration {
	return memoRounds * e.cfg.antiEntropy()
}

// recHash is the per-record contribution to a bucket hash: FNV-1a-64
// over the view key and the record-instance epoch. XORing contributions
// makes the bucket hash order-independent.
func recHash(key string, epoch uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	var eb [8]byte
	binary.BigEndian.PutUint64(eb[:], epoch)
	for _, b := range eb {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}

// originAgg is one origin gateway's summary plus the records and graves
// behind it, kept so a divergence can push without re-scanning the view.
type originAgg struct {
	sum   OriginSummary
	recs  []core.ServiceRecord
	tombs []tombstone
}

// bumpSummaries invalidates the summary cache; every mutation that can
// change a per-origin summary (view records, tombstones, epochs) calls
// it.
func (e *Endpoint) bumpSummaries() { e.sumGen.Add(1) }

// buildSummaries rolls the view and the grave map up per origin
// gateway, memoized against the mutation generation: at quiescence —
// when digests arrive every round from every peer precisely because
// nothing changes — the scan costs O(1), not O(view) per digest. The
// result is shared and read-only. Local records mint their instance
// epoch here if the distributor has not yet (the digest must hash the
// same epoch the announce will carry), unless they are buried: see
// localEpochLocked.
func (e *Endpoint) buildSummaries() map[string]*originAgg {
	gen := e.sumGen.Load()
	e.sumMu.Lock()
	if e.sumCacheOK && e.sumCacheGen == gen {
		cached := e.sumCache
		e.sumMu.Unlock()
		return cached
	}
	e.sumMu.Unlock()
	out := e.buildSummariesSlow()
	e.sumMu.Lock()
	// Tag the cache with the generation read BEFORE the scan: a
	// mutation racing the build bumps past gen and forces the next
	// caller to rebuild, never the reverse.
	e.sumCache, e.sumCacheGen, e.sumCacheOK = out, gen, true
	e.sumMu.Unlock()
	return out
}

func (e *Endpoint) buildSummariesSlow() map[string]*originAgg {
	now := time.Now()
	return e.summarize(e.view.Find("", now), now)
}

// summarize rolls a view snapshot up per origin gateway. The snapshot
// is taken before e.mu, so it may hold local records the distributor
// has since withdrawn and buried; those are left out.
func (e *Endpoint) summarize(recs []core.ServiceRecord, now time.Time) map[string]*originAgg {
	out := make(map[string]*originAgg)
	get := func(origin string) *originAgg {
		agg, ok := out[origin]
		if !ok {
			agg = &originAgg{sum: OriginSummary{OriginGW: origin}}
			out[origin] = agg
		}
		return agg
	}
	e.mu.Lock()
	for _, rec := range recs {
		key := viewKey(rec.Origin, rec.URL)
		origin := e.cfg.GatewayID
		var epoch uint64
		if rec.Remote {
			origin = rec.OriginGW
			epoch = e.epochs[key]
		} else if ep, ok := e.localEpochLocked(key); ok {
			epoch = ep
		} else {
			continue
		}
		agg := get(origin)
		agg.sum.LiveCount++
		agg.sum.LiveHash ^= recHash(key, epoch)
		if epoch > agg.sum.MaxEpoch {
			agg.sum.MaxEpoch = epoch
		}
		agg.recs = append(agg.recs, rec)
	}
	for key, t := range e.tombs {
		if !t.expires.After(now) {
			continue
		}
		agg := get(t.originGW)
		agg.sum.GraveCount++
		agg.sum.GraveHash ^= recHash(key, t.epoch)
		if t.epoch > agg.sum.MaxEpoch {
			agg.sum.MaxEpoch = t.epoch
		}
		agg.tombs = append(agg.tombs, t)
	}
	e.mu.Unlock()
	return out
}

// enqueueDigest sends one anti-entropy digest to a session.
func (e *Endpoint) enqueueDigest(s *session) {
	sums := e.buildSummaries()
	var d Digest
	if len(sums) > 0 {
		d.Origins = make([]OriginSummary, 0, len(sums))
		for _, agg := range sums {
			if len(d.Origins) >= maxDigestOrigins {
				break
			}
			d.Origins = append(d.Origins, agg.sum)
		}
	}
	s.enqueue(FrameDigest, AppendDigest(nil, d))
}

// handleDigest compares a received digest against our view and repairs
// the divergence: push our records and graves for origins the peer is
// provably missing or holds stale, and request origins the peer knows
// and we lack. Runs on the session's read goroutine, which owns the
// memo maps.
func (e *Endpoint) handleDigest(s *session, d Digest) {
	ours := e.buildSummaries()
	theirs := make(map[string]OriginSummary, len(d.Origins))
	for _, o := range d.Origins {
		theirs[o.OriginGW] = o
	}

	for origin, agg := range ours {
		if origin == s.peerID {
			// The peer is authoritative for its own records; nothing of
			// ours about them can be news.
			continue
		}
		t, present := theirs[origin]
		if present && t == agg.sum {
			e.stats.digestHits.Add(1)
			delete(s.pushMemo, origin)
			continue
		}
		e.stats.digestMisses.Add(1)
		now := time.Now()
		m := pushMemo{
			ourLive: agg.sum.LiveHash, ourGrave: agg.sum.GraveHash,
			peerLive: t.LiveHash, peerGrave: t.GraveHash,
			peerPresent: present, at: now,
		}
		if prev, ok := s.pushMemo[origin]; ok &&
			prev.ourLive == m.ourLive && prev.ourGrave == m.ourGrave &&
			prev.peerLive == m.peerLive && prev.peerGrave == m.peerGrave &&
			prev.peerPresent == m.peerPresent &&
			now.Sub(prev.at) < e.memoTTL() {
			continue // this exact divergence was repaired recently
		}
		e.stats.digestPushes.Add(1)
		if e.pushOrigin(s, agg) {
			s.pushMemo[origin] = m
		}
	}

	var want []string
	for origin, t := range theirs {
		if origin == e.cfg.GatewayID {
			// Never request our own records back: we are authoritative,
			// and a restarted gateway pulling its pre-crash state from a
			// peer would resurrect everything it just forgot.
			continue
		}
		agg, have := ours[origin]
		if have && t.LiveHash == agg.sum.LiveHash && t.GraveHash == agg.sum.GraveHash {
			delete(s.reqMemo, origin)
			continue
		}
		if have && t.MaxEpoch <= agg.sum.MaxEpoch {
			// Plain divergence with no sign the peer knows more: our own
			// digest (already on its way each round) triggers the peer's
			// symmetric push, no request needed.
			continue
		}
		now := time.Now()
		m := reqMemo{peerLive: t.LiveHash, peerGrave: t.GraveHash, at: now}
		if prev, ok := s.reqMemo[origin]; ok &&
			prev.peerLive == m.peerLive && prev.peerGrave == m.peerGrave &&
			now.Sub(prev.at) < e.memoTTL() {
			continue
		}
		s.reqMemo[origin] = m
		want = append(want, origin)
	}
	if len(want) > 0 {
		e.stats.digestRequests.Add(uint64(len(want)))
		if !s.enqueue(FrameDigestDiff, AppendDigestDiff(nil, DigestDiff{Origins: want})) {
			for _, o := range want {
				delete(s.reqMemo, o) // shed: retry next round
			}
		}
	}
}

// handleDigestDiff answers an explicit request with the named origins'
// records and graves. No memo gating: the requester throttles itself.
func (e *Endpoint) handleDigestDiff(s *session, d DigestDiff) {
	ours := e.buildSummaries()
	for _, origin := range d.Origins {
		if origin == s.peerID {
			continue
		}
		if agg, ok := ours[origin]; ok {
			e.pushOrigin(s, agg)
		}
	}
}

// pushOrigin sends one origin's live records and graves to a session as
// BATCH frames and reports whether everything was enqueued. Split
// horizon still applies per record; the receiving accept filter absorbs
// whatever it already knows.
func (e *Endpoint) pushOrigin(s *session, agg *originAgg) bool {
	entries := make([]BatchEntry, 0, len(agg.recs)+len(agg.tombs))
	for _, rec := range agg.recs {
		if e.skipForPeer(rec, s) {
			continue
		}
		a, ok := e.announceFor(rec)
		if !ok {
			continue
		}
		entries = append(entries, BatchEntry{Announce: &a})
	}
	for _, t := range agg.tombs {
		w := Withdraw{
			OriginGW: t.originGW,
			Origin:   t.origin,
			Kind:     t.kind,
			URL:      t.url,
			TTL:      ttlMillis(time.Until(t.expires)),
			Epoch:    t.epoch,
		}
		entries = append(entries, BatchEntry{Withdraw: &w})
	}
	if len(entries) == 0 {
		return true
	}
	return e.enqueueEntries(s, entries)
}

package federation

import (
	"fmt"
	"sync/atomic"
)

// counters are the endpoint's hot-path observability: lock-free atomics
// bumped by the distributor, the session writers and the read loops.
// Stats() snapshots them into the exported Stats value.
type counters struct {
	sentFrames [FrameDigestDiff + 1]atomic.Uint64
	recvFrames [FrameDigestDiff + 1]atomic.Uint64
	sentBytes  atomic.Uint64
	recvBytes  atomic.Uint64

	batchEntriesSent atomic.Uint64
	batchEntriesRecv atomic.Uint64

	digestHits     atomic.Uint64
	digestMisses   atomic.Uint64
	digestPushes   atomic.Uint64
	digestRequests atomic.Uint64

	queueDrops atomic.Uint64
	peersShed  atomic.Uint64
}

// count records one frame of type t, n bytes on the wire including the
// header, in the given direction.
func (c *counters) count(t FrameType, n int, sent bool) {
	if t > FrameDigestDiff {
		return
	}
	if sent {
		c.sentFrames[t].Add(1)
		c.sentBytes.Add(uint64(n))
	} else {
		c.recvFrames[t].Add(1)
		c.recvBytes.Add(uint64(n))
	}
}

// Stats is a point-in-time snapshot of one endpoint's federation
// traffic and sessions.
type Stats struct {
	// Per-frame-type counts, sent and received.
	HelloSent, HelloRecv           uint64
	BatchSent, BatchRecv           uint64
	DigestSent, DigestRecv         uint64
	DigestDiffSent, DigestDiffRecv uint64

	// Wire volume, headers included.
	BytesSent, BytesRecv uint64

	// Deltas carried inside BATCH frames; divided by Batch{Sent,Recv}
	// this is the realized batching factor.
	BatchEntriesSent, BatchEntriesRecv uint64

	// Digest outcomes: a hit is an origin bucket a received digest
	// proved in sync, a miss one that diverged. Pushes are the
	// batched repairs sent for misses, requests the DIGEST-DIFFs sent
	// for origins the peer knows and we lack.
	DigestHits, DigestMisses     uint64
	DigestPushes, DigestRequests uint64

	// Backpressure: frames dropped because a peer's send queue was
	// full, and how many distinct sessions ever shed. Dropped frames
	// are repaired by the next digest round, not retried.
	QueueDrops uint64
	PeersShed  uint64

	// QueueDepth is the total frames currently queued across sessions.
	QueueDepth int
	// Sessions is the current connected peer count.
	Sessions int

	// Warm-boot census: epochs and graves seeded from the persistent
	// view store at construction. Zero when the endpoint started cold
	// or runs without persistence — a restarted gateway that shows
	// nonzero values here resumed digest anti-entropy from disk state
	// instead of re-learning the federation from scratch.
	WarmEpochs int
	WarmGraves int
}

// Stats snapshots the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	c := &e.stats
	st := Stats{
		HelloSent:      c.sentFrames[FrameHello].Load(),
		HelloRecv:      c.recvFrames[FrameHello].Load(),
		BatchSent:      c.sentFrames[FrameBatch].Load(),
		BatchRecv:      c.recvFrames[FrameBatch].Load(),
		DigestSent:     c.sentFrames[FrameDigest].Load(),
		DigestRecv:     c.recvFrames[FrameDigest].Load(),
		DigestDiffSent: c.sentFrames[FrameDigestDiff].Load(),
		DigestDiffRecv: c.recvFrames[FrameDigestDiff].Load(),

		BytesSent: c.sentBytes.Load(),
		BytesRecv: c.recvBytes.Load(),

		BatchEntriesSent: c.batchEntriesSent.Load(),
		BatchEntriesRecv: c.batchEntriesRecv.Load(),

		DigestHits:     c.digestHits.Load(),
		DigestMisses:   c.digestMisses.Load(),
		DigestPushes:   c.digestPushes.Load(),
		DigestRequests: c.digestRequests.Load(),

		QueueDrops: c.queueDrops.Load(),
		PeersShed:  c.peersShed.Load(),
	}
	st.WarmEpochs = e.warmEpochs
	st.WarmGraves = e.warmGraves
	e.mu.Lock()
	st.Sessions = len(e.sessions)
	for s := range e.sessions {
		st.QueueDepth += len(s.outbox)
	}
	e.mu.Unlock()
	return st
}

// String renders the snapshot as a compact multi-line report, the form
// indiss-gw prints on shutdown.
func (s Stats) String() string {
	return fmt.Sprintf(
		"federation: sessions=%d queue-depth=%d\n"+
			"  sent: bytes=%d hello=%d batch=%d(entries=%d) digest=%d diff=%d\n"+
			"  recv: bytes=%d hello=%d batch=%d(entries=%d) digest=%d diff=%d\n"+
			"  digest: hits=%d misses=%d pushes=%d requests=%d\n"+
			"  backpressure: queue-drops=%d peers-shed=%d\n"+
			"  warm-boot: epochs=%d graves=%d",
		s.Sessions, s.QueueDepth,
		s.BytesSent, s.HelloSent, s.BatchSent, s.BatchEntriesSent, s.DigestSent, s.DigestDiffSent,
		s.BytesRecv, s.HelloRecv, s.BatchRecv, s.BatchEntriesRecv, s.DigestRecv, s.DigestDiffRecv,
		s.DigestHits, s.DigestMisses, s.DigestPushes, s.DigestRequests,
		s.QueueDrops, s.PeersShed,
		s.WarmEpochs, s.WarmGraves)
}

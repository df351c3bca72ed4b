package query

import (
	"fmt"
	"sync/atomic"
)

// counters is the query plane's hot-path instrumentation: plain atomics,
// one cache line of them, bumped without locks.
type counters struct {
	queries      atomic.Uint64 // /v1/services requests answered
	cacheHits    atomic.Uint64 // answered from a prerendered wire image
	cacheMisses  atomic.Uint64 // scanned and rendered fresh
	watchPolls   atomic.Uint64 // /v1/watch requests answered
	watchActive  atomic.Int64  // long-polls currently parked
	deliveries   atomic.Uint64 // watch events delivered
	bytesOut     atomic.Uint64 // response bytes written
	badRequests  atomic.Uint64 // 4xx responses
	predRejected atomic.Uint64 // records rejected by pushdown predicate
}

// Stats is a point-in-time snapshot of the query plane's counters.
type Stats struct {
	Queries      uint64
	CacheHits    uint64
	CacheMisses  uint64
	WatchPolls   uint64
	WatchActive  int64
	Deliveries   uint64
	BytesOut     uint64
	BadRequests  uint64
	PredRejected uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Queries:      c.queries.Load(),
		CacheHits:    c.cacheHits.Load(),
		CacheMisses:  c.cacheMisses.Load(),
		WatchPolls:   c.watchPolls.Load(),
		WatchActive:  c.watchActive.Load(),
		Deliveries:   c.deliveries.Load(),
		BytesOut:     c.bytesOut.Load(),
		BadRequests:  c.badRequests.Load(),
		PredRejected: c.predRejected.Load(),
	}
}

// String renders the snapshot in the one-line key=value form the
// gateway's -stats-interval loop prints.
func (s Stats) String() string {
	return fmt.Sprintf(
		"queries=%d hits=%d misses=%d watch_polls=%d watch_active=%d delivered=%d bytes_out=%d bad=%d pred_rejected=%d",
		s.Queries, s.CacheHits, s.CacheMisses, s.WatchPolls, s.WatchActive,
		s.Deliveries, s.BytesOut, s.BadRequests, s.PredRejected)
}

// appendVarsJSON renders the snapshot as the /debug/vars JSON body,
// expvar-shaped (flat object of numbers).
func (s Stats) appendVarsJSON(dst []byte) []byte {
	dst = append(dst, '{')
	dst = appendUintField(dst, "queries", s.Queries, false)
	dst = appendUintField(dst, "cache_hits", s.CacheHits, true)
	dst = appendUintField(dst, "cache_misses", s.CacheMisses, true)
	dst = appendUintField(dst, "watch_polls", s.WatchPolls, true)
	dst = appendIntField(dst, "watch_active", s.WatchActive)
	dst = appendUintField(dst, "watch_delivered", s.Deliveries, true)
	dst = appendUintField(dst, "bytes_out", s.BytesOut, true)
	dst = appendUintField(dst, "bad_requests", s.BadRequests, true)
	dst = appendUintField(dst, "pred_rejected", s.PredRejected, true)
	return append(dst, '}')
}

func appendUintField(dst []byte, name string, v uint64, comma bool) []byte {
	if comma {
		dst = append(dst, ',')
	}
	dst = append(dst, '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	return appendUint(dst, v)
}

func appendIntField(dst []byte, name string, v int64) []byte {
	dst = append(dst, ',', '"')
	dst = append(dst, name...)
	dst = append(dst, '"', ':')
	if v < 0 {
		dst = append(dst, '-')
		v = -v
	}
	return appendUint(dst, uint64(v))
}

// appendUint is strconv.AppendUint without the import spread — the
// package renders every number through this one routine.
func appendUint(dst []byte, v uint64) []byte {
	if v == 0 {
		return append(dst, '0')
	}
	var tmp [20]byte
	i := len(tmp)
	for v > 0 {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, tmp[i:]...)
}

package units

import (
	"crypto/md5"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/netapi"
)

// queryTimeout bounds a unit's native follow-up exchange when
// translating a foreign request.
const queryTimeout = 2 * time.Second

// announceInterval spaces a unit's re-advertisements in active mode and
// the Jini bridge registrar's announcements.
const announceInterval = 500 * time.Millisecond

// Bridge origin markers. Two INDISS gateways sharing a segment (or a
// federation making one gateway's knowledge another's) must never
// re-absorb each other's composed native traffic: a translation of a
// translation yields a duplicate record under the wrong origin. Every
// unit therefore tags what it emits and skips what peers tagged — the
// DNS-SD unit's origin= TXT pattern, generalized to all four protocols.
const (
	// bridgeMarker appears in UPnP SERVER/USER-AGENT product tokens.
	// It must be more specific than "indiss": the simulated native
	// stacks brand themselves "… indiss/1.0" too.
	bridgeMarker = "indiss-bridge"
	// bridgeUSNPrefix starts every synthesized bridge device UUID, and
	// is the only marker a SERVER-less message (SSDP byebye) carries.
	bridgeUSNPrefix = "uuid:" + bridgeMarker
	// slpBridgeAttr tags INDISS-composed SAAdverts.
	slpBridgeAttr = "x-indiss-bridge"
	// slpBridgeScope rides in INDISS-composed SrvRqsts' scope lists,
	// invisible to native SAs (scope matching is by intersection).
	slpBridgeScope = "x-indiss-bridge"
	// jiniBridgeGroup is announced by the bridge registrar alongside
	// its real groups, invisible to native clients (group matching is
	// by intersection, empty-means-any).
	jiniBridgeGroup = "x-indiss-bridge"
	// jiniOriginAttr tags bridge registrar items (pre-existing).
	jiniOriginAttr = "origin"
)

// isBridgeProduct reports whether a UPnP SERVER/USER-AGENT value names
// an INDISS bridge.
func isBridgeProduct(s string) bool {
	return strings.Contains(strings.ToLower(s), bridgeMarker)
}

// pendingTTL is how long a pending foreign request stays answerable.
const pendingTTL = 10 * time.Second

// maxPendings caps a unit's pending table. A request that would grow the
// table past it is refused and counted, not published: evicting an older
// entry instead would need the table kept in age order, and under a flood
// of unanswerable requests (each lives pendingTTL) the newcomers would
// evict each other just the same. The cap holds 1600 unanswered requests
// a second for their whole life.
const maxPendings = 16384

// pending tracks one foreign request this unit received natively and
// published on the bus; the first matching response stream composes the
// native reply. It holds the "state variables" of the per-request
// coordination process (paper §2.3: "events data from previous states are
// recorded using state variables").
type pending struct {
	// reqID is the stream correlation id (SDP_REQ_ID).
	reqID string
	// src is the native requester to answer (SDP_NET_SOURCE_ADDR).
	src netapi.Addr
	// kind is the canonical service type searched.
	kind string
	// id is the request's transaction id: the SLP XID or the DNS
	// message id.
	id uint16
	// lang is the SLP request's language tag.
	lang string
	// st is the SSDP search target.
	st string
	// qname is the DNS-SD question's name, and known the query's
	// known-answer records (RFC 6762 §7.1); knownSuppresses picks the
	// question's PTRs from them.
	qname string
	known []dnssd.Record
	// expires bounds the pending entry's life.
	expires time.Time
}

// base carries the plumbing every unit shares: context, pending-request
// table, re-advertisement flag, lifecycle, and the composer dispatch that
// enforces the pooled-envelope release protocol in one place.
type base struct {
	name string
	sdp  core.SDP

	// onRequest and onOther are the unit's composer halves, bound once
	// at construction (immutable afterwards, so dispatch reads them
	// without locking or per-message closure allocation): onRequest
	// translates a foreign request on a spawned goroutine; onOther
	// handles response/advertisement streams synchronously.
	onRequest func(events.Stream)
	onOther   func(events.Stream)

	mu       sync.Mutex
	ctx      *core.UnitContext
	pendings map[string]*pending
	// sweepAt is the table size at which the next add sweeps out expired
	// entries: twice what the last sweep left, so sweeping costs O(1)
	// per add. swept is when that sweep ran.
	sweepAt int
	swept   time.Time
	// refused counts requests turned away at maxPendings.
	refused uint64
	readv   bool
	stopped bool

	wg sync.WaitGroup
}

func newBase(name string, sdp core.SDP) *base {
	return &base{
		name:     name,
		sdp:      sdp,
		pendings: make(map[string]*pending),
	}
}

// SDP implements core.Unit.
func (b *base) SDP() core.SDP { return b.sdp }

// SetReadvertise implements core.Unit.
func (b *base) SetReadvertise(enabled bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.readv = enabled
}

func (b *base) readvertising() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.readv
}

func (b *base) attach(ctx *core.UnitContext) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ctx = ctx
}

func (b *base) context() *core.UnitContext {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ctx
}

func (b *base) markStopped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.stopped {
		return false
	}
	b.stopped = true
	return true
}

func (b *base) isStopped() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stopped
}

// addPending records a foreign request awaiting translation. It reports
// false, and counts the refusal, when the table is full of live entries:
// the caller then does not publish the request.
func (b *base) addPending(p pending) bool {
	now := time.Now()
	p.expires = now.Add(pendingTTL)
	b.mu.Lock()
	defer b.mu.Unlock()
	n := len(b.pendings)
	// A table at the cap is swept at most every pendingTTL/16, so a flood
	// that keeps it full costs one sweep per 625 ms, not one per request.
	if n >= b.sweepAt || (n >= maxPendings && now.Sub(b.swept) >= pendingTTL/16) {
		for id, old := range b.pendings {
			if !old.expires.After(now) {
				delete(b.pendings, id)
			}
		}
		b.sweepAt = 2 * len(b.pendings)
		b.swept = now
	}
	if _, replaces := b.pendings[p.reqID]; !replaces && len(b.pendings) >= maxPendings {
		b.refused++
		return false
	}
	b.pendings[p.reqID] = &p
	return true
}

// takePending claims the pending entry for a response stream. Only the
// first response for a request wins; later ones report false.
func (b *base) takePending(reqID string) (*pending, bool) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.pendings[reqID]
	if !ok || !p.expires.After(now) {
		return nil, false
	}
	delete(b.pendings, reqID)
	return p, true
}

// peekPending reads the pending entry without consuming it — for
// protocols like mDNS where every response stream composes its own
// native answer message instead of first-wins. The entry stays
// answerable until it expires.
func (b *base) peekPending(reqID string) (*pending, bool) {
	now := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	p, ok := b.pendings[reqID]
	if !ok || !p.expires.After(now) {
		return nil, false
	}
	return p, true
}

// publish hands a pooled stream to the bus under the unit's name. The
// stream must come from the builders below (or events.AcquireStream);
// ownership transfers to the bus, which recycles the storage after every
// receiving composer has released its envelope.
func (b *base) publish(ps *events.PooledStream) {
	ctx := b.context()
	if ctx == nil {
		ps.Free()
		return
	}
	ctx.Profile.Delay()
	_ = ctx.PublishPooled(b.name, ps)
}

// spawn runs fn on a tracked goroutine, reporting false — without running
// fn — when the unit has stopped. Callers owning a pooled envelope must
// release it themselves on a false return, since fn's deferred release
// never runs.
func (b *base) spawn(fn func()) bool {
	if b.isStopped() {
		return false
	}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		fn()
	}()
	return true
}

// wait blocks until all spawned work drains.
func (b *base) wait() { b.wg.Wait() }

// OnEvents implements core.Unit for every unit: streams from peer units
// arrive here (paper Figure 3, right to left) and are routed to the
// composer halves bound at construction. The pooled-envelope ownership
// rules live here and nowhere else: every path — self-echo drop, stopped
// unit, refused spawn, synchronous composition — releases the envelope
// exactly once; the request path releases at the end of the spawned
// goroutine because the stream outlives the callback.
func (b *base) OnEvents(env events.Envelope) {
	s := env.Stream
	if b.isStopped() || originOf(s) == b.sdp {
		env.Release()
		return
	}
	if s.Has(events.ServiceRequest) {
		if !b.spawn(func() {
			defer env.Release()
			b.onRequest(s)
		}) {
			env.Release() // unit stopped: the closure never runs
		}
		return
	}
	defer env.Release()
	b.onOther(s)
}

// --- stream construction helpers shared by the units ---

// The stream builders below construct directly into pool-backed storage
// (events.AcquireStream), so steady-state translation recycles the same
// few []Event arrays instead of allocating one per message.

// requestStream builds the canonical foreign-request stream of paper
// §2.4 step ①.
func requestStream(sdp core.SDP, reqID string, src netapi.Addr, multicast bool, kind string, extra ...events.Event) *events.PooledStream {
	castEv := events.E(events.NetUnicast, "")
	if multicast {
		castEv = events.E(events.NetMulticast, "")
	}
	ps := events.AcquireStream()
	ps.S = append(ps.S,
		events.E(events.CStart, ""),
		events.E(events.NetType, string(sdp)),
		castEv,
		events.E(events.NetSourceAddr, src.String()),
		events.E(events.ReqID, reqID),
		events.E(events.ServiceRequest, ""),
		events.E(events.ServiceType, kind),
	)
	ps.S = append(ps.S, extra...)
	ps.S = append(ps.S, events.E(events.CStop, ""))
	return ps
}

// responseStream builds the canonical response stream answering reqID.
func responseStream(sdp core.SDP, reqID string, rec core.ServiceRecord, extra ...events.Event) *events.PooledStream {
	ps := events.AcquireStream()
	ps.S = append(ps.S,
		events.E(events.CStart, ""),
		events.E(events.NetType, string(sdp)),
		events.E(events.ReqID, reqID),
		events.E(events.ServiceResponse, ""),
		events.E(events.ServiceType, rec.Kind),
		events.E(events.ResServURL, rec.URL),
	)
	if ttl := ttlSeconds(rec.Expires); ttl > 0 {
		ps.S = append(ps.S, events.E(events.ResTTL, strconv.Itoa(ttl)))
	}
	if rec.Location != "" {
		ps.S = append(ps.S, events.E(events.DeviceURLDesc, rec.Location))
	}
	ps.S = appendAttrEvents(ps.S, rec.Attrs)
	ps.S = append(ps.S, extra...)
	ps.S = append(ps.S, events.E(events.CStop, ""))
	return ps
}

// aliveStream builds a service-advertisement stream (paper's
// "Advertisement Events" extension set enriches responses only).
func aliveStream(sdp core.SDP, rec core.ServiceRecord, extra ...events.Event) *events.PooledStream {
	ps := events.AcquireStream()
	ps.S = append(ps.S,
		events.E(events.CStart, ""),
		events.E(events.NetType, string(sdp)),
		events.E(events.NetMulticast, ""),
		events.E(events.ServiceAlive, ""),
		events.E(events.ServiceType, rec.Kind),
		events.E(events.ResServURL, rec.URL),
		events.E(events.AdvLocation, rec.URL),
	)
	if ttl := ttlSeconds(rec.Expires); ttl > 0 {
		ps.S = append(ps.S, events.E(events.AdvMaxAge, strconv.Itoa(ttl)))
	}
	if rec.Location != "" {
		ps.S = append(ps.S, events.E(events.DeviceURLDesc, rec.Location))
	}
	ps.S = appendAttrEvents(ps.S, rec.Attrs)
	ps.S = append(ps.S, extra...)
	ps.S = append(ps.S, events.E(events.CStop, ""))
	return ps
}

// byeStream builds a departure stream.
func byeStream(sdp core.SDP, kind, url string) *events.PooledStream {
	ps := events.AcquireStream()
	ps.S = append(ps.S,
		events.E(events.CStart, ""),
		events.E(events.NetType, string(sdp)),
		events.E(events.NetMulticast, ""),
		events.E(events.ServiceByeBye, ""),
		events.E(events.ServiceType, kind),
		events.E(events.ResServURL, url),
		events.E(events.CStop, ""),
	)
	return ps
}

// appendAttrEvents appends one ResAttr event per attribute onto s and
// sorts the appended run in place by attribute name, so every path
// serializes a record's attributes in the same deterministic order with
// no intermediate slices. Sorting must compare the name, not the whole
// "name=value" payload: names may contain bytes ordering below '='
// ('-', '.', digits).
func appendAttrEvents(s events.Stream, attrs map[string]string) events.Stream {
	start := len(s)
	for k, v := range attrs {
		s = append(s, events.E(events.ResAttr, k+"="+v))
	}
	slices.SortFunc(s[start:], func(a, b events.Event) int {
		ka, _, _ := strings.Cut(a.Data, "=")
		kb, _, _ := strings.Cut(b.Data, "=")
		return strings.Compare(ka, kb)
	})
	return s
}

// attrEvents is the slice-returning form for callers outside the pooled
// builders; it delegates to appendAttrEvents so exactly one ordering
// implementation exists.
func attrEvents(attrs map[string]string) []events.Event {
	if len(attrs) == 0 {
		return nil
	}
	return []events.Event(appendAttrEvents(make(events.Stream, 0, len(attrs)), attrs))
}

// attrsFromStream collects ResAttr events into a map.
func attrsFromStream(s events.Stream) map[string]string {
	attrs := make(map[string]string)
	for _, ev := range s.All(events.ResAttr) {
		if name, value, ok := ev.Attr(); ok {
			attrs[name] = value
		}
	}
	return attrs
}

// recordFromStream reconstructs a service record from a response or alive
// stream published by the origin unit.
func recordFromStream(origin core.SDP, s events.Stream) core.ServiceRecord {
	rec := core.ServiceRecord{
		Origin:   origin,
		Kind:     s.FirstData(events.ServiceType),
		URL:      s.FirstData(events.ResServURL),
		Location: s.FirstData(events.DeviceURLDesc),
		Attrs:    attrsFromStream(s),
	}
	ttl := s.FirstData(events.ResTTL)
	if ttl == "" {
		ttl = s.FirstData(events.AdvMaxAge)
	}
	secs, err := strconv.Atoi(ttl)
	if err != nil || secs <= 0 {
		secs = 1800
	}
	rec.Expires = time.Now().Add(time.Duration(secs) * time.Second)
	return rec
}

func ttlSeconds(expires time.Time) int {
	secs := int(time.Until(expires) / time.Second)
	if secs < 0 {
		return 0
	}
	return secs
}

// originOf extracts the stream's origin SDP.
func originOf(s events.Stream) core.SDP {
	return core.SDP(s.FirstData(events.NetType))
}

// recordID hashes a record's (origin, URL) identity, the view's key, into
// the 128 bits the bridge registrar's ServiceIDs and the UPnP unit's
// device UUIDs are made of: a bridged service keeps one identity for as
// long as the view holds it. MD5 is the name hash of RFC 4122 version 3
// UUIDs; nothing here depends on it resisting attack.
func recordID(origin core.SDP, url string) [16]byte {
	return md5.Sum([]byte(string(origin) + "|" + url))
}

// fnv32a is the 32-bit FNV-1a hash the units derive stable ids from
// (SLP XIDs, DNS-SD bridge labels).
func fnv32a(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

package units

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"indiss/internal/core"
	"indiss/internal/events"
	"indiss/internal/jini"
	"indiss/internal/netapi"
)

// JiniUnitConfig tunes the Jini unit.
type JiniUnitConfig struct {
	// RegistrarPort is the TCP port of the bridge registrar's unicast
	// discovery (default 4161, clear of a native lookup service's
	// 4160).
	RegistrarPort int
	// Groups the unit serves.
	Groups []string
	// SyncInterval spaces the unit's polls of the native lookup
	// services it has heard announcing: each poll feeds their items
	// into the view passively — Jini items are never multicast, so
	// without the pull a Jini service is invisible until someone asks.
	// Zero uses 500ms; negative disables the loop.
	SyncInterval time.Duration
	// CacheTTL bounds how long an absorbed native Jini item stays in
	// the view without re-confirmation by a pull or a lookup — Jini has
	// no advertised lifetime of its own, so this is the staleness bound
	// a dead registrar's items carry. Default 30 minutes; deployments
	// federating volatile fleets lower it.
	CacheTTL time.Duration
}

// JiniUnit is the INDISS unit for Jini. Jini's service lookups are
// unicast exchanges with a lookup service, so the bridge cannot intercept
// them the way it intercepts multicast searches; instead the unit *is* a
// lookup service: it answers multicast discovery requests like any
// registrar, and serves the view's foreign services to Jini clients that
// look them up.
//
// The unit's socket sends one multicast discovery request in Start, and
// its reader adopts the native registrars that answer; registrars that
// come up later announce themselves to the monitor. A native follow-up
// query only reads what was adopted: it never discovers.
type JiniUnit struct {
	*base
	cfg JiniUnitConfig

	registrar *jini.LookupService
	client    *jini.Client

	// started is when Start sent the discovery request; found closes on
	// the first adoption.
	started time.Time
	found   chan struct{}

	nativeMu sync.Mutex
	// natives tracks every non-self lookup service heard announcing or
	// answering, by "host:port" — a production segment runs more than
	// one registrar, and each must be polled or its services stay
	// invisible.
	natives map[string]jini.Locator
	// pulled maps each registrar to the URLs its last successful pull
	// mirrored, so vanished items retract per registrar.
	pulled map[string]map[string]struct{}
}

// interface compliance
var _ core.Unit = (*JiniUnit)(nil)

// NewJiniUnit builds an unstarted Jini unit.
func NewJiniUnit(cfg JiniUnitConfig) *JiniUnit {
	if cfg.RegistrarPort == 0 {
		cfg.RegistrarPort = 4161
	}
	if cfg.CacheTTL <= 0 {
		cfg.CacheTTL = 30 * time.Minute
	}
	if cfg.SyncInterval == 0 {
		cfg.SyncInterval = 500 * time.Millisecond
	}
	u := &JiniUnit{
		base:  newBase("jini-unit", core.SDPJini),
		cfg:   cfg,
		found: make(chan struct{}),
	}
	u.onRequest = u.queryNative
	// Foreign knowledge reaches Jini clients through the view the
	// registrar serves, so only request streams need handling.
	u.onOther = func(events.Stream) {}
	return u
}

// Start implements core.Unit.
func (u *JiniUnit) Start(ctx *core.UnitContext) error {
	if err := u.start(ctx); err != nil {
		return err
	}
	// The registrar announces the bridge marker group alongside its
	// real groups: invisible to native clients (group matching is by
	// intersection, empty-means-any), but enough for a peer gateway's
	// unit to know this is not native Jini infrastructure.
	real := u.cfg.Groups
	if len(real) == 0 {
		real = []string{"public"} // preserve the registrar's default group
	}
	groups := append(append([]string(nil), real...), jiniBridgeGroup)
	registrar, err := jini.NewLookupService(ctx.Stack, jini.LookupConfig{
		Groups:           groups,
		UnicastPort:      u.cfg.RegistrarPort,
		AnnounceInterval: announceInterval,
		Items: func(tmpl jini.ServiceTemplate) []jini.ServiceItem {
			return registrarItems(ctx.View, tmpl)
		},
	})
	if err != nil {
		u.conn.Close()
		return fmt.Errorf("jini unit: %w", err)
	}
	// The registrar announces from UDP 4160, which every lookup service
	// on this host shares, so that address is not marked self: the
	// monitor would drop a co-located native registrar's announcements
	// with the bridge's own. parseAnnouncement drops the bridge's own by
	// their marker group.
	u.registrar = registrar
	u.release = registrar.Close
	u.client = jini.NewClient(ctx.Stack, jini.ClientConfig{})
	var loops []func()
	if u.cfg.SyncInterval > 0 {
		loops = append(loops, u.syncLoop)
	}
	u.started = time.Now()
	u.run(u.readReplies, loops...)
	// The registrars already up answer this one request; those that
	// boot later announce themselves.
	if req, err := jini.RequestPacket(u.cfg.Groups, u.conn.LocalAddr().Port); err == nil {
		_ = u.conn.WriteTo(req, netapi.Addr{IP: jini.RequestGroup, Port: jini.Port})
	}
	return nil
}

// readReplies adopts every registrar that answers the unit's discovery
// request, through the filters of parseAnnouncement, until Stop closes
// the socket.
func (u *JiniUnit) readReplies() {
	for {
		dg, err := u.conn.Recv(0)
		if err != nil {
			return
		}
		if kind, r, err := jini.OpenPacket(dg.Payload); err == nil && kind == jini.KindAnnouncePacket {
			u.parseAnnouncement(r)
		}
	}
}

// Registrar exposes the bridge registrar's locator, mainly for tests and
// diagnostics.
func (u *JiniUnit) Registrar() jini.Locator {
	return u.registrar.Locator()
}

// HandleNative implements core.Unit: raw Jini discovery packets from the
// monitor.
func (u *JiniUnit) HandleNative(det core.Detection) {
	ctx := u.context()
	if ctx == nil {
		return
	}
	kind, r, err := jini.OpenPacket(det.Data)
	if err != nil {
		return
	}
	ctx.Profile.Delay()
	switch kind {
	case jini.KindRequestPacket:
		u.parseDiscoveryRequest(det)
	case jini.KindAnnouncePacket:
		u.parseAnnouncement(r)
	}
}

// parseDiscoveryRequest reacts to a Jini client searching for lookup
// services: the bridge registrar answers natively on its own; here the
// unit additionally publishes a browse request so peer units pre-populate
// the view the registrar serves before the client's lookup lands.
func (u *JiniUnit) parseDiscoveryRequest(det core.Detection) {
	reqID := "jini-" + det.Src.String()
	u.publish(requestStream(core.SDPJini, reqID, det.Src, true, "",
		events.E(events.JiniGroups, joinComma(u.cfg.Groups)),
	))
}

// parseAnnouncement records native lookup services for later queries,
// from the announcements the monitor hears and the answers to the unit's
// discovery request. Bridge registrars — ours or a peer gateway's —
// announce the marker group and are never adopted as native
// infrastructure.
func (u *JiniUnit) parseAnnouncement(r *jini.PacketReader) {
	ann, groups, err := jini.ParseAnnouncementPacket(r)
	if err != nil {
		return
	}
	if isBridgeRegistrar(groups) {
		return
	}
	own := u.registrar.Locator()
	if ann.Host == own.Host && ann.Port == own.Port {
		return
	}
	u.nativeMu.Lock()
	u.adoptLocatorLocked(ann)
	u.nativeMu.Unlock()
}

// maxNativeLookups bounds how many distinct registrars the unit tracks —
// a sanity cap, far above any real segment's registrar count.
const maxNativeLookups = 64

func locatorKey(loc jini.Locator) string {
	return loc.Host + ":" + strconv.Itoa(loc.Port)
}

// adoptLocatorLocked records a native registrar. Requires u.nativeMu.
func (u *JiniUnit) adoptLocatorLocked(loc jini.Locator) {
	if u.natives == nil {
		u.natives = make(map[string]jini.Locator)
	}
	if len(u.natives) >= maxNativeLookups {
		if _, known := u.natives[locatorKey(loc)]; !known {
			return
		}
	}
	u.natives[locatorKey(loc)] = loc
	select {
	case <-u.found:
	default:
		close(u.found)
	}
}

// dropLocatorLocked forgets a registrar (its pull failed: it is gone or
// unreachable) and orphans its mirrored URLs — they fade by CacheTTL,
// the TTL-bounded staleness a dead registrar's services carry. The next
// announcement re-adopts it. Requires u.nativeMu.
func (u *JiniUnit) dropLocatorLocked(key string) {
	delete(u.natives, key)
	delete(u.pulled, key)
}

// queryNative looks up matching services in the native Jini world (a
// non-bridge lookup service) and answers with response streams.
func (u *JiniUnit) queryNative(s events.Stream) {
	ctx := u.context()
	reqID := s.FirstData(events.ReqID)
	kind := s.FirstData(events.ServiceType)

	loc, ok := u.nativeLookup()
	if !ok {
		return // no native Jini infrastructure present
	}
	ctx.Profile.Delay()
	items, err := u.client.Lookup(loc, jini.ServiceTemplate{}, queryTimeout)
	if err != nil {
		return
	}
	for _, item := range items {
		if isBridgeItem(item) {
			continue // a bridge registrar's item, not native knowledge
		}
		itemKind := kindFromJiniType(item.Type)
		if kind != "" && itemKind != baseKind(kind) {
			continue
		}
		rec := core.ServiceRecord{
			Origin:  core.SDPJini,
			Kind:    itemKind,
			URL:     item.Endpoint,
			Attrs:   entryAttrs(item.Attrs),
			Expires: time.Now().Add(u.cfg.CacheTTL),
		}
		ctx.View.Put(rec)
		u.publish(responseStream(core.SDPJini, reqID, rec,
			events.E(events.JiniServiceID, item.ID.String()),
		))
	}
}

// isBridgeItem reports whether a looked-up item was created by an INDISS
// bridge registrar (they carry the origin attribute).
func isBridgeItem(item jini.ServiceItem) bool {
	for _, e := range item.Attrs {
		if e.Name == jiniOriginAttr && e.Value != "" {
			return true
		}
	}
	return false
}

// nativeLookup returns an adopted native registrar. A query can overtake
// the answers to the Start request, so until queryTimeout after Start a
// query that finds none adopted waits for the first, or for Stop.
func (u *JiniUnit) nativeLookup() (jini.Locator, bool) {
	if wait := time.Until(u.started.Add(queryTimeout)); wait > 0 {
		t := time.NewTimer(wait)
		select {
		case <-u.found:
		case <-t.C:
		case <-u.stop:
		}
		t.Stop()
	}
	u.nativeMu.Lock()
	defer u.nativeMu.Unlock()
	for _, loc := range u.natives {
		return loc, true
	}
	return jini.Locator{}, false
}

// isBridgeRegistrar reports whether announced groups mark an INDISS
// bridge registrar.
func isBridgeRegistrar(groups []string) bool {
	for _, g := range groups {
		if g == jiniBridgeGroup {
			return true
		}
	}
	return false
}

func baseKind(kind string) string {
	for i := 0; i < len(kind); i++ {
		if kind[i] == ':' {
			return kind[:i]
		}
	}
	return kind
}

// registrarItems lists the view's records the bridge registrar serves to
// Jini clients: every foreign record with a kind. Locally heard Jini
// services are left out — their own lookup service serves them — but a
// remote Jini record is as foreign as any other: no native
// infrastructure on this segment knows it. The filter and the template's
// type run inside the view scan, so a record the lookup cannot return
// costs no allocation.
func registrarItems(view *core.ServiceView, tmpl jini.ServiceTemplate) []jini.ServiceItem {
	recs := view.FindWhere("", time.Now(), func(rec *core.ServiceRecord) bool {
		return rec.Kind != "" && (rec.Origin != core.SDPJini || rec.Remote) &&
			bridgeTypeMatches(tmpl.Type, rec.Kind)
	})
	items := make([]jini.ServiceItem, 0, len(recs))
	for _, rec := range recs {
		attrs := make([]jini.Entry, 0, 2+len(rec.Attrs))
		attrs = append(attrs,
			jini.Entry{Name: "kind", Value: rec.Kind},
			jini.Entry{Name: jiniOriginAttr, Value: string(rec.Origin)},
		)
		for name, value := range rec.Attrs {
			attrs = append(attrs, jini.Entry{Name: name, Value: value})
		}
		items = append(items, jini.ServiceItem{
			ID:       jini.ServiceID(recordID(rec.Origin, rec.URL)),
			Type:     jiniTypeFromKind(rec.Kind),
			Endpoint: rec.URL,
			Attrs:    attrs,
		})
	}
	return items
}

// bridgeTypeMatches is jini template type matching (an exact match or a
// package prefix at a '.' boundary) against jiniTypeFromKind(kind),
// "org.indiss.<baseKind(kind)>.Service", without building that name.
func bridgeTypeMatches(want, kind string) bool {
	if want == "" || want == "org" || want == "org.indiss" {
		return true
	}
	rest, ok := strings.CutPrefix(want, "org.indiss.")
	if !ok {
		return false
	}
	kindBase := baseKind(kind)
	if len(rest) <= len(kindBase) {
		return strings.HasPrefix(kindBase, rest) && (len(rest) == len(kindBase) || kindBase[len(rest)] == '.')
	}
	return strings.HasPrefix(rest, kindBase) && rest[len(kindBase):] == ".Service"
}

// syncLoop polls the known native lookup services. Jini has no multicast
// item advertisement, so without the pull a native Jini service stays
// invisible to peers (and to federation peers on other segments) until a
// request happens to ask.
func (u *JiniUnit) syncLoop() {
	ticker := time.NewTicker(u.cfg.SyncInterval)
	defer ticker.Stop()
	for {
		select {
		case <-u.stop:
			return
		case <-ticker.C:
			if ctx := u.context(); ctx != nil {
				u.pullNativeItems(ctx)
			}
		}
	}
}

// pullNativeItems mirrors a native lookup service's registrations into
// the view. Only already-known locators are polled — discovery stays
// passive (announcement-driven), as the monitor architecture prescribes.
//
// The pull is also the retraction path: Jini has no multicast byebye, so
// a service deregistered from (or lease-expired at) the lookup service
// would otherwise linger in the view for its full cache lifetime. Each
// successful pull compares against what the previous pull mirrored and
// removes records that vanished from the registrar — withdrawal within
// one sync interval instead of a half-hour of staleness. Only records
// this loop itself created are retracted (u.pulled), so request-driven
// absorptions from other registrars are untouched, and a failed pull
// (registrar down or unreachable — indistinguishable from a partition)
// retracts nothing.
func (u *JiniUnit) pullNativeItems(ctx *core.UnitContext) {
	u.nativeMu.Lock()
	locs := make(map[string]jini.Locator, len(u.natives))
	for key, loc := range u.natives {
		locs[key] = loc
	}
	u.nativeMu.Unlock()
	for key, loc := range locs {
		u.pullOneRegistrar(ctx, key, loc)
	}
}

// pullOneRegistrar polls one registrar and reconciles the view with it.
func (u *JiniUnit) pullOneRegistrar(ctx *core.UnitContext, key string, loc jini.Locator) {
	items, err := u.client.Lookup(loc, jini.ServiceTemplate{}, queryTimeout)
	if err != nil {
		// Gone or unreachable — indistinguishable from a partition, so
		// retract nothing: its mirrored items fade by CacheTTL, and the
		// next announcement re-adopts the registrar.
		u.nativeMu.Lock()
		u.dropLocatorLocked(key)
		u.nativeMu.Unlock()
		return
	}
	current := make(map[string]struct{}, len(items))
	for _, item := range items {
		if isBridgeItem(item) || item.Endpoint == "" {
			continue
		}
		current[item.Endpoint] = struct{}{}
	}
	u.nativeMu.Lock()
	var gone []string
	for url := range u.pulled[key] {
		if _, still := current[url]; !still {
			gone = append(gone, url)
		}
	}
	if u.pulled == nil {
		u.pulled = make(map[string]map[string]struct{})
	}
	u.pulled[key] = current
	u.nativeMu.Unlock()
	for _, url := range gone {
		if rec, ok := ctx.View.Get(core.SDPJini, url); ok && !rec.Remote {
			if ctx.View.Remove(core.SDPJini, url) {
				u.publish(byeStream(core.SDPJini, rec.Kind, url))
			}
		}
	}
	for _, item := range items {
		if isBridgeItem(item) || item.Endpoint == "" {
			continue
		}
		rec := core.ServiceRecord{
			Origin:  core.SDPJini,
			Kind:    kindFromJiniType(item.Type),
			URL:     item.Endpoint,
			Attrs:   entryAttrs(item.Attrs),
			Expires: time.Now().Add(u.cfg.CacheTTL),
		}
		if existing, ok := ctx.View.Get(core.SDPJini, rec.URL); ok &&
			existing.Expires.After(time.Now().Add(u.cfg.CacheTTL*5/6)) {
			continue // freshly synced; skip the Put/delta churn
		}
		ctx.View.Put(rec)
		u.publish(aliveStream(core.SDPJini, rec))
	}
}

func entryAttrs(entries []jini.Entry) map[string]string {
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		out[e.Name] = e.Value
	}
	return out
}

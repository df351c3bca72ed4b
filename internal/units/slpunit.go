package units

import (
	"fmt"
	"strconv"
	"time"

	"indiss/internal/core"
	"indiss/internal/events"
	"indiss/internal/netapi"
	"indiss/internal/slp"
)

// SLPUnitConfig tunes the SLP unit.
type SLPUnitConfig struct {
	// Scopes the unit operates in.
	Scopes []string
}

// SLPUnit is the INDISS unit for the Service Location Protocol: its
// parser turns SLP datagrams into event streams, its composer turns
// streams back into SLP messages, and its FSM coordinates the two (paper
// Figure 3 with SDP1 = SLP).
type SLPUnit struct {
	*base
	cfg SLPUnitConfig

	conn netapi.PacketConn // emitting socket, marked self
	stop chan struct{}
}

// interface compliance
var _ core.Unit = (*SLPUnit)(nil)

// NewSLPUnit builds an unstarted SLP unit.
func NewSLPUnit(cfg SLPUnitConfig) *SLPUnit {
	u := &SLPUnit{
		base: newBase("slp-unit", core.SDPSLP),
		cfg:  cfg,
		stop: make(chan struct{}),
	}
	u.onRequest = u.queryNative
	u.onOther = u.composeOther
	return u
}

// Start implements core.Unit.
func (u *SLPUnit) Start(ctx *core.UnitContext) error {
	conn, err := ctx.Stack.ListenUDP(0)
	if err != nil {
		return fmt.Errorf("slp unit: %w", err)
	}
	ctx.Self.Mark(conn.LocalAddr())
	u.conn = conn
	u.attach(ctx)
	ctx.Bus.Subscribe(u.name, events.ListenerFunc(u.OnEvents))
	u.spawn(u.announceLoop)
	return nil
}

// Stop implements core.Unit.
func (u *SLPUnit) Stop() {
	if !u.markStopped() {
		return
	}
	close(u.stop)
	ctx := u.context()
	if ctx != nil {
		ctx.Bus.Unsubscribe(u.name)
	}
	if u.conn != nil {
		u.conn.Close()
	}
	u.wait()
}

// HandleNative implements core.Unit: the parser half (paper §2.4 step ①).
// The monitor hands over raw SLP datagrams caught on the SVRLOC group.
func (u *SLPUnit) HandleNative(det core.Detection) {
	ctx := u.context()
	if ctx == nil {
		return
	}
	msg, err := slp.Parse(det.Data)
	if err != nil {
		return // not valid SLP despite the port: drop like a native stack
	}
	ctx.Profile.Delay()
	switch m := msg.(type) {
	case *slp.SrvRqst:
		u.parseSrvRqst(m, det)
	case *slp.AttrRqst:
		u.parseAttrRqst(m, det)
	case *slp.SAAdvert:
		u.parseSAAdvert(m)
	case *slp.DAAdvert:
		// Repository announcements are protocol housekeeping, not
		// service knowledge; nothing to translate.
	}
}

// parseAttrRqst answers attribute requests for bridged services from the
// view: the paper's example reply carries friendlyName, modelDescription
// and friends (§2.4), which SLP clients retrieve with an AttrRqst against
// the URL the SrvRply returned.
func (u *SLPUnit) parseAttrRqst(m *slp.AttrRqst, det core.Detection) {
	ctx := u.context()
	now := time.Now()
	var attrs slp.AttrList
	for _, rec := range ctx.View.FindForeign(core.SDPSLP, "", now) {
		if slpURLFor(rec) != m.URL && rec.URL != m.URL && !slpTypeMatchesRecord(m.URL, rec) {
			continue
		}
		for _, ev := range attrEvents(rec.Attrs) {
			if name, value, ok := ev.Attr(); ok {
				attrs = append(attrs, slp.Attr{Name: name, Values: []string{value}})
			}
		}
		break
	}
	if len(attrs) == 0 {
		return // multicast silence; native SAs answer their own URLs
	}
	rply := &slp.AttrRply{
		Hdr:   slp.Header{XID: m.Hdr.XID, Lang: m.Hdr.Lang},
		Attrs: attrs.String(),
	}
	data, err := rply.Marshal()
	if err != nil {
		return
	}
	ctx.Profile.Delay()
	_ = u.conn.WriteTo(data, det.Src)
}

// slpTypeMatchesRecord reports whether an AttrRqst URL naming a service
// type (RFC 2608 §10.3 allows both) matches the record's kind.
func slpTypeMatchesRecord(url string, rec core.ServiceRecord) bool {
	return kindFromSLPType(url) == rec.Kind
}

// parseSrvRqst translates a service request into the event stream of the
// paper's Figure 4 step ①, then either answers from the view (best case,
// Figure 9b) or publishes for peer units to translate.
func (u *SLPUnit) parseSrvRqst(m *slp.SrvRqst, det core.Detection) {
	switch m.ServiceType {
	case "service:directory-agent", "service:service-agent":
		return // infrastructure requests are not bridgeable services
	}
	for _, s := range m.Scopes {
		if s == slpBridgeScope {
			// A peer bridge's translated query: answering it would
			// translate a translation (same-LAN double-bridge loop).
			return
		}
	}
	ctx := u.context()
	kind := kindFromSLPType(m.ServiceType)
	p := pending{src: det.Src, kind: kind, id: m.Hdr.XID, lang: m.Hdr.Lang}

	// Fast path: answer directly from already-discovered foreign
	// services (the paper's Figure 9b best case).
	if !ctx.NoCache {
		if recs := ctx.View.FindForeign(core.SDPSLP, kind, time.Now()); len(recs) > 0 {
			u.composeSrvRply(&p, recs)
			return
		}
	}

	p.reqID = "slp-" + det.Src.String() + "-" + strconv.Itoa(int(m.Hdr.XID))
	if !u.addPending(p) {
		return
	}
	extra := []events.Event{
		events.E(events.ReqVersion, strconv.Itoa(slp.Version)),
		events.E(events.ReqScope, joinComma(m.Scopes)),
		events.E(events.ReqLang, m.Hdr.Lang),
	}
	if m.Predicate != "" {
		extra = append(extra, events.E(events.ReqPredicate, m.Predicate))
	}
	u.publish(requestStream(core.SDPSLP, p.reqID, det.Src, m.Hdr.Multicast(), kind, extra...))
}

// parseSAAdvert feeds passively heard service announcements into the view
// and the bus — SLP's passive discovery model crossing into other SDPs.
func (u *SLPUnit) parseSAAdvert(m *slp.SAAdvert) {
	attrs, err := slp.ParseAttrList(m.Attrs)
	if err != nil {
		return
	}
	for _, a := range attrs {
		if a.Name == slpBridgeAttr {
			return // a peer bridge's re-advertisement, not native knowledge
		}
	}
	ctx := u.context()
	// The SA summarizes its registrations as (service-url, service-type
	// [, service-lifetime]) groups. The walk is order-insensitive within
	// a group: a repeated field marks the next group's start, whatever
	// order the SA chose. The lifetime — the registration's remaining
	// seconds — bounds how long the knowledge may be cached; SAs that do
	// not announce one get the RFC default.
	var url, stype string
	lifetime, lifetimeSet := slp.DefaultLifetime, false
	flush := func() {
		if url != "" && stype != "" {
			rec := core.ServiceRecord{
				Origin:  core.SDPSLP,
				Kind:    kindFromSLPType(stype),
				URL:     url,
				Attrs:   map[string]string{},
				Expires: time.Now().Add(time.Duration(lifetime) * time.Second),
			}
			ctx.View.Put(rec)
			u.publish(aliveStream(core.SDPSLP, rec))
		}
		// Reset even when the group was incomplete, so a malformed
		// group cannot leak its fields into the next one.
		url, stype = "", ""
		lifetime, lifetimeSet = slp.DefaultLifetime, false
	}
	for _, a := range attrs {
		switch a.Name {
		case "service-url":
			if url != "" {
				flush()
			}
			url = firstValue(a)
		case "service-type":
			if stype != "" {
				flush()
			}
			stype = firstValue(a)
		case "service-lifetime":
			if lifetimeSet {
				flush()
			}
			lifetimeSet = true
			if n, err := strconv.Atoi(firstValue(a)); err == nil && n > 0 {
				lifetime = n
			}
		}
	}
	flush()
}

func firstValue(a slp.Attr) string {
	if len(a.Values) == 0 {
		return ""
	}
	return a.Values[0]
}

// composeOther is the non-request composer half, dispatched by
// base.OnEvents (which owns the envelope release protocol).
func (u *SLPUnit) composeOther(s events.Stream) {
	switch {
	case s.Has(events.ServiceResponse):
		u.composeFromResponse(s)
	case s.Has(events.ServiceAlive):
		u.onForeignAlive(s)
	case s.Has(events.ServiceByeBye):
		u.onForeignBye(s)
	}
}

// queryNative acts as an SLP client on behalf of a foreign requester: it
// multicasts a SrvRqst and publishes the first answer as a response
// stream — the left-to-right half of paper Figure 3. Each query uses its
// own socket so concurrent translations never steal each other's replies.
func (u *SLPUnit) queryNative(s events.Stream) {
	ctx := u.context()
	reqID := s.FirstData(events.ReqID)
	kind := s.FirstData(events.ServiceType)

	conn, err := ctx.Stack.ListenUDP(0)
	if err != nil {
		return
	}
	ctx.Self.Mark(conn.LocalAddr())
	defer func() {
		conn.Close()
		ctx.Self.Unmark(conn.LocalAddr())
	}()

	// The extra scope marks the query as bridge-composed; native SAs
	// match scopes by intersection and never see it, while a peer
	// bridge's unit recognizes it and stays silent.
	req := &slp.SrvRqst{
		Hdr:         slp.Header{XID: xidFrom(reqID), Flags: slp.FlagRequestMcast, Lang: slp.DefaultLang},
		ServiceType: slpTypeFromKind(kind),
		Scopes:      append(append([]string(nil), u.scopes()...), slpBridgeScope),
	}
	data, err := req.Marshal()
	if err != nil {
		return
	}
	ctx.Profile.Delay()
	if err := conn.WriteTo(data, netapi.Addr{IP: slp.MulticastGroup, Port: slp.Port}); err != nil {
		return
	}
	deadline := time.Now().Add(queryTimeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return // silence is the negative answer
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return
		}
		msg, err := slp.Parse(dg.Payload)
		if err != nil {
			continue
		}
		rply, ok := msg.(*slp.SrvRply)
		if !ok || rply.Hdr.XID != req.Hdr.XID || rply.Error != slp.ErrNone || len(rply.URLs) == 0 {
			continue
		}
		ctx.Profile.Delay()
		for _, entry := range rply.URLs {
			rec := core.ServiceRecord{
				Origin:  core.SDPSLP,
				Kind:    kind,
				URL:     entry.URL,
				Attrs:   map[string]string{},
				Expires: time.Now().Add(time.Duration(entry.Lifetime) * time.Second),
			}
			if rec.Kind == "" {
				rec.Kind = kindFromSLPType(entry.URL)
			}
			ctx.View.Put(rec)
			u.publish(responseStream(core.SDPSLP, reqID, rec))
		}
		return
	}
}

// composeFromResponse answers a pending native SLP request from a foreign
// response stream — the paper's Figure 4 step ③ (SrvRply composition).
func (u *SLPUnit) composeFromResponse(s events.Stream) {
	reqID := s.FirstData(events.ReqID)
	p, ok := u.takePending(reqID)
	if !ok {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.composeSrvRply(p, []core.ServiceRecord{rec})
}

// composeSrvRply emits the native reply. The URL entry carries the
// foreign service's endpoint; attributes ride along as SLP attributes,
// exactly the paper's example reply ("SrvRply:
// service:clock:soap://…;friendlyName:…").
func (u *SLPUnit) composeSrvRply(p *pending, recs []core.ServiceRecord) {
	ctx := u.context()
	rply := &slp.SrvRply{
		Hdr: slp.Header{XID: p.id, Lang: p.lang},
	}
	for _, rec := range recs {
		rply.URLs = append(rply.URLs, slp.URLEntry{
			Lifetime: clampLifetime(rec.Expires),
			URL:      slpURLFor(rec),
		})
	}
	data, err := rply.Marshal()
	if err != nil {
		return
	}
	ctx.Profile.Delay()
	_ = u.conn.WriteTo(data, p.src)
}

// onForeignAlive re-advertises a foreign service into SLP when the
// adaptation policy has switched the unit to active mode (paper Figure 6
// bottom); the view is already updated by the origin unit.
func (u *SLPUnit) onForeignAlive(s events.Stream) {
	if !u.readvertising() {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.sendSAAdvert([]core.ServiceRecord{rec})
}

func (u *SLPUnit) onForeignBye(events.Stream) {
	// SLP has no unsolicited negative advertisement in the
	// repository-less model; entries age out via URL-entry lifetimes.
}

// announceLoop periodically re-advertises every known foreign service
// while active re-advertisement is on.
func (u *SLPUnit) announceLoop() {
	ticker := time.NewTicker(announceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-u.stop:
			return
		case <-ticker.C:
			if !u.readvertising() {
				continue
			}
			ctx := u.context()
			recs := ctx.View.FindForeign(core.SDPSLP, "", time.Now())
			if len(recs) > 0 {
				u.sendSAAdvert(recs)
			}
		}
	}
}

// sendSAAdvert multicasts an SAAdvert whose attribute list carries
// (service-url, service-type) pairs for the given services — the same
// shape native SAs announce with.
func (u *SLPUnit) sendSAAdvert(recs []core.ServiceRecord) {
	ctx := u.context()
	// The leading marker attribute keeps peer bridges from re-absorbing
	// this advert as native SLP knowledge.
	attrs := slp.AttrList{{Name: slpBridgeAttr, Values: []string{"1"}}}
	for _, rec := range recs {
		attrs = append(attrs,
			slp.Attr{Name: "service-url", Values: []string{slpURLFor(rec)}},
			slp.Attr{Name: "service-type", Values: []string{slpTypeFromKind(rec.Kind)}},
		)
	}
	adv := &slp.SAAdvert{
		Hdr:    slp.Header{XID: 0, Lang: slp.DefaultLang},
		URL:    "service:service-agent://" + ctx.Stack.IP(),
		Scopes: u.scopes(),
		Attrs:  attrs.String(),
	}
	data, err := adv.Marshal()
	if err != nil {
		return
	}
	ctx.Profile.Delay()
	_ = u.conn.WriteTo(data, netapi.Addr{IP: slp.MulticastGroup, Port: slp.Port})
}

func (u *SLPUnit) scopes() []string {
	if len(u.cfg.Scopes) == 0 {
		return []string{slp.DefaultScope}
	}
	return u.cfg.Scopes
}

// slpURLFor renders the service URL an SLP client receives. Foreign
// endpoints keep their native URL prefixed with the SLP service scheme,
// mirroring the paper's "service:clock:soap://…" reply.
func slpURLFor(rec core.ServiceRecord) string {
	if rec.Origin == core.SDPSLP {
		return rec.URL
	}
	base, _, _ := cut3(rec.Kind)
	return "service:" + base + ":" + rec.URL
}

func cut3(kind string) (string, string, bool) {
	for i := 0; i < len(kind); i++ {
		if kind[i] == ':' {
			return kind[:i], kind[i+1:], true
		}
	}
	return kind, "", false
}

func joinComma(list []string) string {
	out := ""
	for i, s := range list {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// xidFrom derives a stable SLP XID from a request id string.
func xidFrom(reqID string) uint16 {
	x := uint16(fnv32a(reqID))
	if x == 0 {
		x = 1
	}
	return x
}

func clampLifetime(expires time.Time) uint16 {
	secs := int64(time.Until(expires) / time.Second)
	switch {
	case secs <= 0:
		return 60
	case secs > 0xFFFF:
		return 0xFFFF
	default:
		return uint16(secs)
	}
}

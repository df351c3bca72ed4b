package units

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/events"
	"indiss/internal/netapi"
)

// DNSSDUnit is the INDISS unit for DNS-SD over mDNS (Zeroconf/Bonjour).
// Its parser maps PTR queries to SDP_SERVICE_REQUEST streams and
// multicast announcements to SDP_SERVICE_ALIVE/BYEBYE streams; its
// composer answers pending queries with PTR+SRV+TXT+A record sets and,
// in active mode, re-advertises foreign services as unsolicited mDNS
// responses. The unit is the paper's §2.2 extensibility claim made
// concrete: no existing unit changed to admit it.
type DNSSDUnit struct {
	*base

	// id numbers the unit's follow-up queries. followUps holds those
	// sent in the last queryTimeout by message id, which responders
	// echo; swept is when expired entries were last dropped.
	id        atomic.Uint32
	mu        sync.Mutex
	followUps map[uint16]followUp
	swept     time.Time
}

// followUp is one PTR query the unit sent for a foreign request.
type followUp struct {
	reqID string
	// types is set on the RFC 6763 §9 meta-query only: it holds the
	// service types its answers listed, each asked for once however many
	// responders list it. Only the reader touches it.
	types   map[string]bool
	expires time.Time
}

// interface compliance
var _ core.Unit = (*DNSSDUnit)(nil)

// NewDNSSDUnit builds an unstarted DNS-SD unit.
func NewDNSSDUnit() *DNSSDUnit {
	u := &DNSSDUnit{
		base:      newBase("dnssd-unit", core.SDPDNSSD),
		followUps: make(map[uint16]followUp),
	}
	u.onRequest = u.queryNative
	u.onOther = u.composeOther
	return u
}

// Start implements core.Unit.
func (u *DNSSDUnit) Start(ctx *core.UnitContext) error {
	if err := u.start(ctx); err != nil {
		return err
	}
	u.run(u.readReplies, u.announceLoop)
	return nil
}

// HandleNative implements core.Unit: raw mDNS datagrams from the monitor.
func (u *DNSSDUnit) HandleNative(det core.Detection) {
	ctx := u.context()
	if ctx == nil {
		return
	}
	msg, err := dnssd.Parse(det.Data)
	if err != nil {
		return // not valid DNS despite the port: drop like a native stack
	}
	ctx.Profile.Delay()
	if msg.Response {
		u.parseAnnouncement(msg)
		return
	}
	u.parseQuery(msg, det)
}

// parseQuery translates PTR browse questions into request streams,
// answering from the view when possible (the Figure 9b best case). The
// RFC 6763 §9 meta-query browses every kind at once.
func (u *DNSSDUnit) parseQuery(msg *dnssd.Message, det core.Detection) {
	ctx := u.context()
	for _, q := range msg.Questions {
		if q.Type != dnssd.TypePTR && q.Type != dnssd.TypeANY {
			continue // instance follow-ups resolve via our additionals
		}
		meta := strings.EqualFold(q.Name, dnssd.MetaQuery)
		kind := kindFromDNSSDType(q.Name)
		if kind == "" && !meta {
			continue // not a service-type question
		}
		p := pending{src: det.Src, kind: kind, id: msg.ID, qname: q.Name, known: msg.Answers}
		if !ctx.NoCache {
			if recs := ctx.View.FindForeign(core.SDPDNSSD, kind, time.Now()); len(recs) > 0 {
				u.composeAnswer(&p, recs)
				continue
			}
		}
		p.reqID = "dnssd-" + det.Src.String() + "-" + strings.ToLower(q.Name)
		if !u.addPending(p) {
			continue
		}
		u.publish(requestStream(core.SDPDNSSD, p.reqID, det.Src, true, kind))
	}
}

// parseAnnouncement feeds passively heard multicast announcements into
// the view and the bus — mDNS's continuous advertisement model crossing
// into the other SDPs. Goodbyes (TTL 0) retract.
func (u *DNSSDUnit) parseAnnouncement(msg *dnssd.Message) {
	ctx := u.context()
	for _, inst := range dnssd.InstancesFromMessage(msg) {
		if inst.Text["origin"] != "" {
			// Bridge-composed announcement (ours or a peer gateway's):
			// re-absorbing it would echo foreign knowledge back into
			// the bus as DNS-SD knowledge.
			continue
		}
		kind := kindFromDNSSDType(inst.Service)
		if kind == "" {
			continue
		}
		if inst.TTL <= 0 {
			for _, rec := range ctx.View.Find(kind, time.Now()) {
				// mDNS names compare case-insensitively (RFC 6762 §16).
				if rec.Origin == core.SDPDNSSD && strings.EqualFold(rec.Attrs["instance"], inst.Name) {
					if ctx.View.Remove(core.SDPDNSSD, rec.URL) {
						u.publish(byeStream(core.SDPDNSSD, kind, rec.URL))
					}
				}
			}
			continue
		}
		if inst.IP == "" {
			// mDNS may spread records across datagrams; without the A
			// record the instance has no usable endpoint yet — caching
			// it would hand foreign clients a host-less URL.
			continue
		}
		rec := u.recordFromInstance(kind, inst)
		ctx.View.Put(rec)
		u.publish(aliveStream(core.SDPDNSSD, rec,
			events.E(events.DNSSDInstance, inst.Name),
			events.E(events.DNSSDHost, inst.Host),
		))
	}
}

// recordFromInstance converts a resolved native instance into the
// SDP-neutral record peers translate from.
func (u *DNSSDUnit) recordFromInstance(kind string, inst dnssd.Instance) core.ServiceRecord {
	attrs := make(map[string]string, len(inst.Text)+1)
	for k, v := range inst.Text {
		attrs[k] = v
	}
	attrs["instance"] = inst.Name
	ttl := inst.TTL
	if ttl <= 0 {
		ttl = dnssd.DefaultTTL
	}
	return core.ServiceRecord{
		Origin:  core.SDPDNSSD,
		Kind:    kind,
		URL:     "dnssd://" + inst.IP + ":" + strconv.Itoa(inst.Port),
		Attrs:   attrs,
		Expires: time.Now().Add(time.Duration(ttl) * time.Second),
	}
}

// queryNative acts as an mDNS querier on behalf of a foreign requester:
// it asks for the kind's service type, in both transport forms, or, for
// a browse-all request, runs the meta-query. It does not wait: the
// unit's reader publishes each answer as it lands.
func (u *DNSSDUnit) queryNative(s events.Stream) {
	reqID := s.FirstData(events.ReqID)
	kind := s.FirstData(events.ServiceType)
	if kind == "" {
		u.ask(followUp{reqID: reqID, types: map[string]bool{}}, dnssd.MetaQuery)
		return
	}
	// Both transport forms ride in one query message (mDNS permits
	// multiple questions): the parser accepts _udp service types, so
	// the follow-up must find _udp-registered services too.
	u.ask(followUp{reqID: reqID}, dnssdTypeFromKind(kind), dnssdUDPTypeFromKind(kind))
}

// ask multicasts one PTR query for names from the unit's socket, under a
// fresh message id that f answers to for queryTimeout.
func (u *DNSSDUnit) ask(f followUp, names ...string) {
	now := time.Now()
	f.expires = now.Add(queryTimeout)
	id := nextID(&u.id)
	u.mu.Lock()
	if now.Sub(u.swept) >= queryTimeout {
		for old, g := range u.followUps {
			if !g.expires.After(now) {
				delete(u.followUps, old)
			}
		}
		u.swept = now
	}
	u.followUps[id] = f
	u.mu.Unlock()

	query := &dnssd.Message{ID: id, Questions: make([]dnssd.Question, len(names))}
	for i, name := range names {
		query.Questions[i] = dnssd.Question{Name: name, Type: dnssd.TypePTR}
	}
	u.context().Profile.Delay()
	_ = u.conn.WriteTo(query.Marshal(), netapi.Addr{IP: dnssd.MulticastGroup, Port: dnssd.Port})
}

// readReplies handles the answers to the unit's follow-up queries as
// they land, until Stop closes the socket. mDNS answers come from any
// number of responders and each is complete in itself, so every answer
// is published, none waits for another. An answer to the meta-query
// is followed by one query for the service types it lists. An answer
// under an id no live follow-up holds is dropped, and so are instances
// a bridge composed (origin-tagged) and instances without an address.
func (u *DNSSDUnit) readReplies() {
	for {
		dg, err := u.conn.Recv(0)
		if err != nil {
			return
		}
		msg, err := dnssd.Parse(dg.Payload)
		if err != nil || !msg.Response {
			continue
		}
		u.mu.Lock()
		f, ok := u.followUps[msg.ID]
		u.mu.Unlock()
		if !ok || !f.expires.After(time.Now()) {
			continue
		}
		if f.types != nil {
			var types []string
			for _, r := range msg.Answers {
				key := strings.ToLower(r.Target)
				if r.Type == dnssd.TypePTR && r.TTL > 0 && strings.EqualFold(r.Name, dnssd.MetaQuery) && !f.types[key] {
					f.types[key] = true
					types = append(types, r.Target)
				}
			}
			if len(types) > 0 {
				u.ask(followUp{reqID: f.reqID}, types...)
			}
			continue
		}
		u.publishAnswer(f.reqID, msg)
	}
}

// publishAnswer puts each native instance of one answer into the view
// and publishes it as a response to reqID.
func (u *DNSSDUnit) publishAnswer(reqID string, msg *dnssd.Message) {
	ctx := u.context()
	ctx.Profile.Delay()
	for _, inst := range dnssd.InstancesFromMessage(msg) {
		kind := kindFromDNSSDType(inst.Service)
		if inst.Text["origin"] != "" || inst.IP == "" || inst.TTL <= 0 || kind == "" {
			continue
		}
		rec := u.recordFromInstance(kind, inst)
		ctx.View.Put(rec)
		u.publish(responseStream(core.SDPDNSSD, reqID, rec,
			events.E(events.DNSSDInstance, inst.Name),
			events.E(events.DNSSDHost, inst.Host),
		))
	}
}

// composeOther is the non-request composer half, dispatched by
// base.OnEvents (which owns the envelope release protocol).
func (u *DNSSDUnit) composeOther(s events.Stream) {
	switch {
	case s.Has(events.ServiceResponse):
		u.composeFromResponse(s)
	case s.Has(events.ServiceAlive):
		u.onForeignAlive(s)
	case s.Has(events.ServiceByeBye):
		u.onForeignBye(s)
	}
}

// composeFromResponse answers a pending native browse with a foreign
// service. Unlike the request/reply SDPs, mDNS permits one response
// message per answer, so the pending is peeked, not consumed: every
// foreign unit's response composes its own answer instead of first-wins
// (a cold-view browse over two bridged services must surface both).
func (u *DNSSDUnit) composeFromResponse(s events.Stream) {
	reqID := s.FirstData(events.ReqID)
	p, ok := u.peekPending(reqID)
	if !ok {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.composeAnswer(p, []core.ServiceRecord{rec})
}

// composeAnswer renders the DNS response for a pending question: for a
// service-type question, PTR answers with SRV/TXT/A additionals so one
// round trip resolves everything (RFC 6763 §12.1); for the meta-query,
// PTR records naming the service types. One-shot queriers (ephemeral
// source port) are answered unicast per RFC 6762 §6.7.
func (u *DNSSDUnit) composeAnswer(p *pending, recs []core.ServiceRecord) {
	ctx := u.context()
	msg := &dnssd.Message{ID: p.id, Response: true, Authoritative: true}
	meta := strings.EqualFold(p.qname, dnssd.MetaQuery)
	// Answer under the question's own name: a "_kind._udp.local." browse
	// must get PTRs named "_kind._udp.local." or conformant clients
	// (dnssd.Querier among them) discard the mismatch.
	qname := dnssd.CanonicalName(p.qname)
	seenTypes := map[string]bool{}
	for _, rec := range recs {
		if meta {
			service := dnssdTypeFromKind(rec.Kind)
			if service != "" && !seenTypes[service] &&
				len(msg.Answers) < dnssd.MaxAnswerInstances &&
				!knownSuppresses(p, service, ttlOrDefault(rec.Expires)) {
				seenTypes[service] = true
				msg.Answers = append(msg.Answers, dnssd.Record{
					Name: dnssd.MetaQuery, Type: dnssd.TypePTR,
					TTL: uint32(ttlOrDefault(rec.Expires)), Target: service,
				})
			}
			continue
		}
		// Known-answer suppression (RFC 6762 §7.1): skip instances the
		// querier already listed with at least half the remaining TTL.
		instance := dnssd.InstanceName(bridgedInstanceLabel(rec), qname)
		if knownSuppresses(p, instance, ttlOrDefault(rec.Expires)) {
			continue
		}
		u.appendBridgedInstance(msg, qname, rec)
	}
	if len(msg.Answers) == 0 {
		return
	}
	dst := p.src
	if dst.Port == dnssd.Port {
		dst = netapi.Addr{IP: dnssd.MulticastGroup, Port: dnssd.Port}
	}
	ctx.Profile.Delay()
	_ = u.conn.WriteTo(msg.Marshal(), dst)
}

// appendBridgedInstance adds the PTR+SRV+TXT+A record set advertising a
// foreign service as a DNS-SD instance. Each record gets its own host
// name (derived from the same identity hash as its instance label): a
// shared bridge hostname would make the cache-flush A records of
// different services alias each other's endpoint addresses.
func (u *DNSSDUnit) appendBridgedInstance(msg *dnssd.Message, service string, rec core.ServiceRecord) {
	if len(msg.Answers) >= dnssd.MaxAnswerInstances {
		return // keep the message decodable; clients re-ask for the rest
	}
	host, port := endpointFromURL(rec.URL)
	if host == "" {
		// No resolvable ip:port in the record's URL: an instance whose
		// SRV/A point nowhere useful would make clients dial a dead
		// endpoint — better not seen at all.
		return
	}
	ttl := uint32(ttlOrDefault(rec.Expires))
	instance := dnssd.InstanceName(bridgedInstanceLabel(rec), service)
	hostname := "indiss-" + shortHash(string(rec.Origin)+"|"+rec.URL) + "." + dnssd.LocalDomain
	msg.Answers = append(msg.Answers, dnssd.Record{
		Name: service, Type: dnssd.TypePTR, TTL: ttl, Target: instance,
	})
	msg.Additional = append(msg.Additional,
		dnssd.Record{
			Name: instance, Type: dnssd.TypeSRV, TTL: ttl, CacheFlush: true,
			Port: uint16(port), Target: hostname,
		},
		dnssd.Record{
			Name: instance, Type: dnssd.TypeTXT, TTL: ttl, CacheFlush: true,
			Text: bridgedTXT(rec),
		},
		dnssd.Record{
			Name: hostname, Type: dnssd.TypeA, TTL: ttl, CacheFlush: true,
			IP: host,
		},
	)
}

// onForeignAlive re-advertises a foreign service as an unsolicited mDNS
// response when active mode is on (paper Figure 6 bottom).
func (u *DNSSDUnit) onForeignAlive(s events.Stream) {
	if !u.readvertising() {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.sendAnnouncement(rec, false)
}

func (u *DNSSDUnit) onForeignBye(s events.Stream) {
	if !u.readvertising() {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.sendAnnouncement(rec, true)
}

// sendAnnouncement multicasts an advertisement (or goodbye) for one
// foreign record.
func (u *DNSSDUnit) sendAnnouncement(rec core.ServiceRecord, goodbye bool) {
	ctx := u.context()
	service := dnssdTypeFromKind(rec.Kind)
	if service == "" {
		return
	}
	msg := &dnssd.Message{Response: true, Authoritative: true}
	u.appendBridgedInstance(msg, service, rec)
	if goodbye {
		for i := range msg.Answers {
			msg.Answers[i].TTL = 0
		}
		for i := range msg.Additional {
			msg.Additional[i].TTL = 0
		}
	}
	ctx.Profile.Delay()
	_ = u.conn.WriteTo(msg.Marshal(), netapi.Addr{IP: dnssd.MulticastGroup, Port: dnssd.Port})
}

// announceLoop periodically re-advertises every known foreign service
// while active re-advertisement is on.
func (u *DNSSDUnit) announceLoop() {
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
			for _, rec := range ctx.View.FindForeign(core.SDPDNSSD, "", time.Now()) {
				u.sendAnnouncement(rec, false)
			}
		}
	}
}

// knownSuppresses applies dnssd.KnownAnswerSuppresses — the one shared
// §7.1 implementation — to the known-answer PTRs the pending question's
// query listed for the instance.
func knownSuppresses(p *pending, instance string, ttl int) bool {
	for i := range p.known {
		r := &p.known[i]
		if r.Type == dnssd.TypePTR && strings.EqualFold(r.Name, p.qname) &&
			strings.EqualFold(r.Target, instance) && dnssd.KnownAnswerSuppresses(int(r.TTL), ttl) {
			return true
		}
	}
	return false
}

// bridgedInstanceLabel derives a stable, DNS-safe instance label for a
// foreign record: the friendly name when one exists, else the kind, made
// unique with a hash of the record's identity.
func bridgedInstanceLabel(rec core.ServiceRecord) string {
	name := rec.Attrs["friendlyName"]
	if name == "" {
		name, _, _ = strings.Cut(rec.Kind, ":")
	}
	label := sanitizeDNSLabel(name)
	if label == "" {
		label = "service"
	}
	return label + "-" + shortHash(string(rec.Origin)+"|"+rec.URL)
}

// sanitizeDNSLabel keeps letters, digits and dashes, clamped to label
// limits; anything else becomes a dash.
func sanitizeDNSLabel(s string) string {
	var b strings.Builder
	for i := 0; i < len(s) && b.Len() < 40; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		case b.Len() > 0 && b.String()[b.Len()-1] != '-':
			b.WriteByte('-')
		}
	}
	return strings.Trim(b.String(), "-")
}

// shortHash is an FNV-derived 4-hex-digit tag, stable per input.
func shortHash(s string) string {
	h := fnv32a(s)
	const hex = "0123456789abcdef"
	return string([]byte{
		hex[h>>12&0xF], hex[h>>8&0xF], hex[h>>4&0xF], hex[h&0xF],
	})
}

// bridgedTXT renders a foreign record's metadata as deterministic TXT
// strings. The url key carries the native endpoint verbatim — the
// lossless half of the translation; origin tags the record so bridges
// never re-absorb each other's instances.
func bridgedTXT(rec core.ServiceRecord) []string {
	out := make([]string, 0, len(rec.Attrs)+2)
	for k, v := range rec.Attrs {
		if k == "instance" || k == "origin" || k == "url" {
			continue
		}
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return append(out, "origin="+string(rec.Origin), "url="+rec.URL)
}

// endpointFromURL extracts "host", port from the record URL forms the
// other units produce: "scheme://host:port/path",
// "service:kind:scheme://host:port", bare "host:port". It reports ""
// when no host is recognizable.
func endpointFromURL(url string) (string, int) {
	rest := url
	if i := strings.LastIndex(rest, "://"); i >= 0 {
		rest = rest[i+3:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	addr, err := netapi.ParseAddr(rest)
	if err != nil {
		return "", 0
	}
	return addr.IP, addr.Port
}

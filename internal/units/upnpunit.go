package units

import (
	"encoding/hex"
	"fmt"
	"net/url"
	"strconv"
	"strings"
	"time"

	"indiss/internal/core"
	"indiss/internal/events"
	"indiss/internal/fsm"
	"indiss/internal/httpx"
	"indiss/internal/netapi"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
	"indiss/internal/xmlx"
)

// UPnPUnitConfig tunes the UPnP unit.
type UPnPUnitConfig struct {
	// DescriptionPort is the TCP port of the bridge's synthesized
	// description server (default 4104). If taken, an ephemeral port is
	// used.
	DescriptionPort int
}

// UPnPUnit is the INDISS unit for UPnP. It is the paper's running example
// (§2.4): its parser speaks SSDP, switches to an XML parser for
// description documents (SDP_C_PARSER_SWITCH), and its DFA coordinates
// the recursive description fetch needed when the search answer does not
// yet carry the service URL.
type UPnPUnit struct {
	*base
	cfg UPnPUnitConfig

	// replies routes the search responses to the unit's native
	// M-SEARCHes by search target.
	replies  replies[string, *ssdp.SearchResponse]
	descAddr netapi.Addr
	queryFSM *fsm.Machine
}

// interface compliance
var _ core.Unit = (*UPnPUnit)(nil)

// NewUPnPUnit builds an unstarted UPnP unit.
func NewUPnPUnit(cfg UPnPUnitConfig) *UPnPUnit {
	if cfg.DescriptionPort == 0 {
		cfg.DescriptionPort = 4104
	}
	u := &UPnPUnit{
		base:     newBase("upnp-unit", core.SDPUPnP),
		cfg:      cfg,
		queryFSM: buildUPnPQueryFSM(),
	}
	u.onRequest = u.queryNative
	u.onOther = u.composeOther
	return u
}

// buildUPnPQueryFSM encodes the §2.4 choreography: a search answer
// without SDP_RES_SERV_URL forces a description fetch; the XML parser
// then produces the missing event.
//
//	await ──DeviceURLDesc[record]──▶ located ──CStop──▶ need-desc
//	need-desc ──CParserSwitch──▶ parsing-xml ──ResServURL[record]──▶ complete
//	await ──ResServURL[record]──▶ direct ──CStop──▶ complete
func buildUPnPQueryFSM() *fsm.Machine {
	return fsm.New("upnp-query", "await").
		Action("record_location", func(ev events.Event, vars fsm.Vars) error {
			vars.Set("location", ev.Data)
			return nil
		}).
		Action("record_url", func(ev events.Event, vars fsm.Vars) error {
			vars.Set("url", ev.Data)
			return nil
		}).
		Action("record_kind", func(ev events.Event, vars fsm.Vars) error {
			if vars.Get("kind") == "" {
				vars.Set("kind", ev.Data)
			}
			return nil
		}).
		AddTuple("await", events.ServiceType, "", "await", "record_kind").
		AddTuple("await", events.DeviceURLDesc, "", "located", "record_location").
		AddTuple("await", events.ResServURL, "", "direct", "record_url").
		AddTuple("located", events.ServiceType, "", "located", "record_kind").
		AddTuple("located", events.CStop, "", "need-desc").
		AddTuple("direct", events.CStop, "", "complete").
		AddTuple("need-desc", events.CParserSwitch, "", "parsing-xml").
		AddTuple("parsing-xml", events.ServiceType, "", "parsing-xml", "record_kind").
		AddTuple("parsing-xml", events.ResServURL, "", "parsing-xml", "record_url").
		AddTuple("parsing-xml", events.CStop, "", "complete").
		Accept("complete").
		MustBuild()
}

// Start implements core.Unit.
func (u *UPnPUnit) Start(ctx *core.UnitContext) error {
	// start attaches ctx before the description server serves:
	// descriptions render from ctx.View.
	if err := u.start(ctx); err != nil {
		return err
	}
	l, err := ctx.Stack.ListenTCP(u.cfg.DescriptionPort)
	if err != nil {
		// Port taken (e.g. another INDISS instance): fall back.
		l, err = ctx.Stack.ListenTCP(0)
		if err != nil {
			u.conn.Close()
			return fmt.Errorf("upnp unit: %w", err)
		}
	}
	u.descAddr = l.Addr()
	descSrv := &httpx.Server{Handler: u.serveDescription}
	descSrv.Start(l)
	u.release = descSrv.Close
	u.run(u.readReplies, u.announceLoop)
	return nil
}

// HandleNative implements core.Unit: raw SSDP datagrams from the monitor.
func (u *UPnPUnit) HandleNative(det core.Detection) {
	ctx := u.context()
	if ctx == nil {
		return
	}
	msg, err := ssdp.Parse(det.Data)
	if err != nil {
		return
	}
	ctx.Profile.Delay()
	switch m := msg.(type) {
	case *ssdp.SearchRequest:
		u.parseSearch(m, det)
	case *ssdp.Notify:
		u.parseNotify(m)
	}
}

// parseSearch translates an M-SEARCH into a request stream, answering
// from the view when possible (Figure 9b's best case).
func (u *UPnPUnit) parseSearch(m *ssdp.SearchRequest, det core.Detection) {
	if isBridgeProduct(m.UserAgent) {
		return // a peer bridge's translated search: never answer it
	}
	ctx := u.context()
	kind := kindFromUPnPTarget(m.ST)
	p := pending{src: det.Src, kind: kind, st: m.ST}
	if !ctx.NoCache {
		if recs := ctx.View.FindForeign(core.SDPUPnP, kind, time.Now()); len(recs) > 0 {
			for _, rec := range recs {
				u.composeSearchResponse(&p, rec)
			}
			return
		}
	}
	p.reqID = "ssdp-" + det.Src.String() + "-" + m.ST
	if !u.addPending(p) {
		return
	}
	u.publish(requestStream(core.SDPUPnP, p.reqID, det.Src, true, kind,
		events.E(events.SearchMX, strconv.Itoa(m.MX)),
	))
}

// parseNotify feeds passively heard announcements into the view and the
// bus. Only device-type NTs carry a kind; rootdevice/uuid NTs of the same
// device are redundant for bridging. Alive announcements are resolved —
// the description is fetched so the record carries a usable service
// endpoint, not just a description URL.
func (u *UPnPUnit) parseNotify(m *ssdp.Notify) {
	if isBridgeProduct(m.Server) || strings.Contains(m.USN, bridgeUSNPrefix) {
		// A peer bridge's re-advertisement (byebyes carry no SERVER, so
		// the synthesized USN is checked too): absorbing it would echo
		// foreign knowledge back as UPnP knowledge.
		return
	}
	if strings.Contains(m.NT, ":service:") {
		// A device advertises each service type alongside its device
		// type; the device is the bridgeable unit (the paper maps
		// service:clock ↔ device:clock), so service-type NTs would
		// only produce duplicate records under the wrong kind.
		return
	}
	kind := kindFromUPnPTarget(m.NT)
	if kind == "" {
		return
	}
	ctx := u.context()
	if m.NTS == ssdp.NTSByeBye {
		// Records are keyed by resolved endpoint; find them by the
		// announced USN.
		for _, rec := range ctx.View.Find(kind, time.Now()) {
			if rec.Origin != core.SDPUPnP || rec.Attrs["usn"] != m.USN {
				continue
			}
			if ctx.View.Remove(core.SDPUPnP, rec.URL) {
				u.publish(byeStream(core.SDPUPnP, kind, rec.URL))
			}
		}
		return
	}
	rec := core.ServiceRecord{
		Origin:   core.SDPUPnP,
		Kind:     kind,
		URL:      m.USN,
		Location: m.Location,
		Attrs:    map[string]string{"server": m.Server, "usn": m.USN},
		Expires:  time.Now().Add(time.Duration(maxAgeOrDefault(m.MaxAge)) * time.Second),
	}
	if descEvents, attrs, err := u.fetchAndParseDescription(m.Location); err == nil {
		for k, v := range attrs {
			rec.Attrs[k] = v
		}
		if url := descEvents.FirstData(events.ResServURL); url != "" {
			rec.URL = url
		}
	}
	ctx.View.Put(rec)
	u.publish(aliveStream(core.SDPUPnP, rec))
}

func maxAgeOrDefault(maxAge int) int {
	if maxAge <= 0 {
		return 1800
	}
	return maxAge
}

// composeOther is the non-request composer half, dispatched by
// base.OnEvents (which owns the envelope release protocol).
func (u *UPnPUnit) composeOther(s events.Stream) {
	switch {
	case s.Has(events.ServiceResponse):
		u.composeFromResponse(s)
	case s.Has(events.ServiceAlive):
		u.onForeignAlive(s)
	case s.Has(events.ServiceByeBye):
		u.onForeignBye(s)
	}
}

// queryNative runs the paper's §2.4 choreography on behalf of a foreign
// requester: compose an M-SEARCH, send it from the unit's socket, parse
// the answer the reader routes back by search target, and — because "the
// UPnP unit did not get the location of the remote service" — fetch and
// XML-parse the description document until SDP_RES_SERV_URL is produced.
func (u *UPnPUnit) queryNative(s events.Stream) {
	ctx := u.context()
	reqID := s.FirstData(events.ReqID)
	kind := s.FirstData(events.ServiceType)

	// Compose the M-SEARCH of Figure 4 step ① — tagged as
	// bridge-composed so a peer gateway's unit does not translate it.
	// Like the paper's composed request, it asks for MX: 0.
	search := &ssdp.SearchRequest{
		ST:        upnpTargetFromKind(kind),
		UserAgent: "indiss-bridge/1.0",
	}
	w := u.replies.await(search.ST)
	defer u.replies.done(search.ST, w)
	ctx.Profile.Delay()
	if err := u.conn.WriteTo(search.Marshal(), netapi.Addr{IP: ssdp.MulticastGroup, Port: ssdp.Port}); err != nil {
		return
	}
	resp, ok := w.wait(u.stop)
	if !ok {
		return
	}
	ctx.Profile.Delay()

	inst := u.queryFSM.NewInstance()
	inst.SetVar("kind", kind)

	// Parse the search answer into events (Figure 4 step ②) and drive
	// the DFA.
	answer := events.NewStream(
		events.E(events.NetType, string(core.SDPUPnP)),
		events.E(events.ServiceType, kindFromUPnPTarget(resp.ST)),
		events.E(events.DeviceUSN, resp.USN),
		events.E(events.DeviceServer, resp.Server),
		events.E(events.MaxAge, strconv.Itoa(resp.MaxAge)),
		events.E(events.DeviceURLDesc, resp.Location),
	)
	if _, err := inst.FeedStream(answer); err != nil {
		return
	}

	var attrs map[string]string
	if inst.Current() == "need-desc" {
		// "The current parser generates a SDP_C_PARSER_SWITCH event to
		// ask its unit to switch to a XML parser" (paper §2.4).
		if _, err := inst.Feed(events.E(events.CParserSwitch, "xml")); err != nil {
			return
		}
		descEvents, descAttrs, err := u.fetchAndParseDescription(inst.Var("location"))
		if err != nil {
			return
		}
		attrs = descAttrs
		if _, err := inst.FeedStream(descEvents); err != nil {
			return
		}
		if _, err := inst.Feed(events.E(events.CStop, "")); err != nil {
			return
		}
	}
	if !inst.Accepting() {
		return
	}

	rec := core.ServiceRecord{
		Origin:   core.SDPUPnP,
		Kind:     orDefault(inst.Var("kind"), kind),
		URL:      orDefault(inst.Var("url"), resp.Location),
		Location: resp.Location,
		Attrs:    attrs,
		Expires:  time.Now().Add(time.Duration(maxAgeOrDefault(resp.MaxAge)) * time.Second),
	}
	ctx.View.Put(rec)
	u.publish(responseStream(core.SDPUPnP, reqID, rec))
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// readReplies hands each SSDP search response that arrives on the unit's
// socket to the query awaiting its search target, until Stop closes the
// socket. Queries waiting on one target are answered in the order they
// asked: SSDP carries no transaction id, and any native answer for the
// target serves any of them. A peer bridge's answer is not native
// knowledge; it, and a response nobody awaits, is dropped.
func (u *UPnPUnit) readReplies() {
	for {
		dg, err := u.conn.Recv(0)
		if err != nil {
			return
		}
		msg, err := ssdp.Parse(dg.Payload)
		if err != nil {
			continue
		}
		if resp, ok := msg.(*ssdp.SearchResponse); ok && !isBridgeProduct(resp.Server) {
			u.replies.deliver(resp.ST, resp)
		}
	}
}

// fetchAndParseDescription GETs the description document and walks it
// with the event-based XML scanner, producing the events of Figure 4 step
// ③: SDP_RES_ATTR per metadata element and finally SDP_RES_SERV_URL from
// the service control URL.
func (u *UPnPUnit) fetchAndParseDescription(location string) (events.Stream, map[string]string, error) {
	ctx := u.context()
	addr, path, err := upnp.ParseHTTPURL(location)
	if err != nil {
		return nil, nil, err
	}
	resp, err := httpx.Get(ctx.Stack, addr, path, queryTimeout)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != 200 {
		return nil, nil, fmt.Errorf("upnp unit: description status %d", resp.StatusCode)
	}
	ctx.Profile.Delay()
	ctx.Profile.DelayXML()

	sc := xmlx.NewScanner(resp.Body)
	var stream events.Stream
	attrs := make(map[string]string)
	var element string
	for {
		tok, err := sc.Next()
		if err != nil {
			return nil, nil, err
		}
		if tok.Kind == xmlx.KindEOF {
			break
		}
		switch tok.Kind {
		case xmlx.KindStart:
			element = tok.Name
		case xmlx.KindText:
			text := strings.TrimSpace(tok.Text)
			if text == "" {
				continue
			}
			switch element {
			case "friendlyName", "manufacturer", "manufacturerURL",
				"modelDescription", "modelName", "modelNumber", "modelURL":
				attrs[element] = text
				stream = append(stream, events.E(events.ResAttr, element+"="+text))
			case "deviceType":
				stream = append(stream, events.E(events.ServiceType, kindFromUPnPTarget(text)))
			case "UDN":
				stream = append(stream, events.E(events.DeviceUSN, text))
			case "controlURL":
				// The paper's reply carries
				// "service:clock:soap://host:port/path": the
				// SOAP endpoint derived from the control URL.
				stream = append(stream, events.E(events.ResServURL, soapURL(addr, text)))
			}
		case xmlx.KindEnd:
			element = ""
		}
	}
	return stream, attrs, nil
}

// soapURL renders the service endpoint the way the paper's example reply
// does.
func soapURL(descAddr netapi.Addr, controlURL string) string {
	if !strings.HasPrefix(controlURL, "/") {
		controlURL = "/" + controlURL
	}
	return "soap://" + descAddr.String() + controlURL
}

// composeFromResponse answers a pending M-SEARCH with a foreign service.
func (u *UPnPUnit) composeFromResponse(s events.Stream) {
	reqID := s.FirstData(events.ReqID)
	p, ok := u.takePending(reqID)
	if !ok {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.composeSearchResponse(p, rec)
}

// composeSearchResponse answers the search with the foreign service's
// synthesized device (UPnP clients require a LOCATION to dereference).
func (u *UPnPUnit) composeSearchResponse(p *pending, rec core.ServiceRecord) {
	ctx := u.context()
	location, usn := u.bridgeDevice(rec)
	st := p.st
	if st == "" || st == ssdp.TargetAll {
		st = upnpTargetFromKind(rec.Kind)
	}
	resp := &ssdp.SearchResponse{
		ST:       st,
		USN:      usn,
		Location: location,
		Server:   "indiss-bridge/1.0 UPnP/1.0",
		MaxAge:   ttlOrDefault(rec.Expires),
	}
	ctx.Profile.Delay()
	_ = u.conn.WriteTo(resp.Marshal(), p.src)
}

func ttlOrDefault(expires time.Time) int {
	secs := ttlSeconds(expires)
	if secs <= 0 {
		return 1800
	}
	return secs
}

// bridgeDevice returns the LOCATION and USN under which the unit presents
// a foreign record. Both are pure functions of the record's (origin, URL)
// identity: the LOCATION path carries it for serveDescription to resolve,
// and the device UUID hashes it.
func (u *UPnPUnit) bridgeDevice(rec core.ServiceRecord) (location, usn string) {
	return upnp.HTTPURL(u.descAddr, descPath(rec.Origin, rec.URL)),
		bridgeUDN(rec) + "::" + upnp.TypeURN(upnpKindBase(rec.Kind), 1)
}

func upnpKindBase(kind string) string {
	kindBase, _, _ := strings.Cut(kind, ":")
	if kindBase == "" {
		return "service"
	}
	return kindBase
}

func bridgeUDN(rec core.ServiceRecord) string {
	id := recordID(rec.Origin, rec.URL)
	return bridgeUSNPrefix + "-" + hex.EncodeToString(id[:])
}

// descPath is the description path of a bridged record: its view key,
// origin|URL, percent-escaped into one path segment.
func descPath(origin core.SDP, serviceURL string) string {
	return "/bridge/" + url.PathEscape(string(origin)+"|"+serviceURL) + "/description.xml"
}

// parseDescPath inverts descPath.
func parseDescPath(path string) (core.SDP, string, bool) {
	seg, ok := strings.CutPrefix(path, "/bridge/")
	if !ok {
		return "", "", false
	}
	seg, ok = strings.CutSuffix(seg, "/description.xml")
	if !ok {
		return "", "", false
	}
	key, err := url.PathUnescape(seg)
	if err != nil {
		return "", "", false
	}
	origin, serviceURL, ok := strings.Cut(key, "|")
	return core.SDP(origin), serviceURL, ok
}

// serveDescription renders the description of the bridged record a GET
// path names, from the view as it stands. A record the view no longer
// holds is 404, and so is a native UPnP one: its own device describes it.
func (u *UPnPUnit) serveDescription(req *httpx.Request) *httpx.Response {
	if req.Method != "GET" {
		return &httpx.Response{StatusCode: 501}
	}
	origin, serviceURL, ok := parseDescPath(req.Target)
	if !ok || origin == core.SDPUPnP {
		return &httpx.Response{StatusCode: 404}
	}
	rec, ok := u.context().View.Get(origin, serviceURL)
	if !ok {
		return &httpx.Response{StatusCode: 404}
	}
	kindBase := upnpKindBase(rec.Kind)
	friendly := rec.Attrs["friendlyName"]
	if friendly == "" {
		friendly = strings.Title(kindBase) + " (via " + string(rec.Origin) + ")"
	}
	desc := &upnp.DeviceDesc{
		DeviceType:       upnp.TypeURN(kindBase, 1),
		FriendlyName:     friendly,
		Manufacturer:     "INDISS bridge",
		ModelDescription: "Bridged " + string(rec.Origin) + " service at " + rec.URL,
		ModelName:        kindBase,
		ModelURL:         rec.URL,
		UDN:              bridgeUDN(rec),
		Services: []upnp.ServiceDesc{{
			ServiceType: upnp.ServiceURN(kindBase, 1),
			ServiceID:   "urn:upnp-org:serviceId:" + kindBase,
			SCPDURL:     strings.TrimSuffix(req.Target, "description.xml") + "scpd.xml",
			ControlURL:  rec.URL,
			EventSubURL: "",
		}},
	}
	return &httpx.Response{
		StatusCode: 200,
		Header:     httpx.NewHeader("CONTENT-TYPE", "text/xml", "SERVER", "indiss-bridge/1.0 UPnP/1.0"),
		Body:       upnp.MarshalDescription(desc),
	}
}

// onForeignAlive re-advertises a foreign service as an SSDP NOTIFY when
// active mode is on.
func (u *UPnPUnit) onForeignAlive(s events.Stream) {
	if !u.readvertising() {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.sendNotify(rec, ssdp.NTSAlive)
}

func (u *UPnPUnit) onForeignBye(s events.Stream) {
	if !u.readvertising() {
		return
	}
	rec := recordFromStream(originOf(s), s)
	u.sendNotify(rec, ssdp.NTSByeBye)
}

func (u *UPnPUnit) sendNotify(rec core.ServiceRecord, nts string) {
	ctx := u.context()
	location, usn := u.bridgeDevice(rec)
	kindBase, _, _ := strings.Cut(rec.Kind, ":")
	n := &ssdp.Notify{
		NT:       upnp.TypeURN(kindBase, 1),
		NTS:      nts,
		USN:      usn,
		Location: location,
		Server:   "indiss-bridge/1.0 UPnP/1.0",
		MaxAge:   ttlOrDefault(rec.Expires),
	}
	ctx.Profile.Delay()
	_ = u.conn.WriteTo(n.Marshal(), netapi.Addr{IP: ssdp.MulticastGroup, Port: ssdp.Port})
}

func (u *UPnPUnit) announceLoop() {
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
			for _, rec := range ctx.View.FindForeign(core.SDPUPnP, "", time.Now()) {
				u.sendNotify(rec, ssdp.NTSAlive)
			}
		}
	}
}

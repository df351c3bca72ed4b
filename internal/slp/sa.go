package slp

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/netapi"
)

// AgentConfig carries settings shared by the SLP entities.
type AgentConfig struct {
	// Scopes the agent operates in; defaults to {"DEFAULT"}.
	Scopes []string
	// ProcessingDelay models per-message library overhead (the OpenSLP
	// stack profile of DESIGN.md §5). Applied once per handled message.
	ProcessingDelay time.Duration
	// Lang is the RFC 1766 language tag of emitted messages.
	Lang string
	// AnnounceInterval, when positive, makes a ServiceAgent multicast
	// unsolicited SAAdverts — SLP's passive discovery model. Zero
	// disables announcements (pure active model).
	AnnounceInterval time.Duration
}

func (c AgentConfig) scopes() []string {
	if len(c.Scopes) == 0 {
		return []string{DefaultScope}
	}
	return c.Scopes
}

func (c AgentConfig) lang() string {
	if c.Lang == "" {
		return DefaultLang
	}
	return c.Lang
}

// groupAddr is the SLP multicast destination.
func groupAddr() netapi.Addr { return netapi.Addr{IP: MulticastGroup, Port: Port} }

// ServiceAgent advertises services and answers requests for them — the
// "service" role of the paper's discovery models. It supports both the
// active model (answering multicast SrvRqsts with unicast SrvRplys) and
// the passive model (periodic multicast SAAdverts). It registers with no
// directory agent: DAAdverts are parsed and ignored.
type ServiceAgent struct {
	host netapi.Stack
	conn netapi.PacketConn
	cfg  AgentConfig

	store *Store
	xid   atomic.Uint32

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewServiceAgent binds the SLP port on host and starts serving.
func NewServiceAgent(host netapi.Stack, cfg AgentConfig) (*ServiceAgent, error) {
	conn, err := host.ListenUDP(Port)
	if err != nil {
		return nil, fmt.Errorf("slp sa: %w", err)
	}
	if err := conn.JoinGroup(MulticastGroup); err != nil {
		conn.Close()
		return nil, fmt.Errorf("slp sa: %w", err)
	}
	sa := &ServiceAgent{
		host:  host,
		conn:  conn,
		cfg:   cfg,
		store: NewStore(),
		stop:  make(chan struct{}),
	}
	sa.wg.Add(1)
	go func() {
		defer sa.wg.Done()
		sa.serve()
	}()
	if cfg.AnnounceInterval > 0 {
		sa.wg.Add(1)
		go func() {
			defer sa.wg.Done()
			sa.announce()
		}()
	}
	return sa, nil
}

// Close stops the agent and releases its port.
func (sa *ServiceAgent) Close() {
	select {
	case <-sa.stop:
		return
	default:
	}
	close(sa.stop)
	sa.conn.Close()
	sa.wg.Wait()
}

// Register adds a local service.
func (sa *ServiceAgent) Register(serviceType, url string, lifetime time.Duration, attrs AttrList) error {
	reg := Registration{
		ServiceType: serviceType,
		URL:         url,
		Scopes:      sa.cfg.scopes(),
		Attrs:       attrs,
		Expires:     time.Now().Add(lifetime),
	}
	if code := sa.store.Register(reg); code != ErrNone {
		return fmt.Errorf("slp sa: register %s: %s", url, code)
	}
	return nil
}

// Deregister withdraws a local service.
func (sa *ServiceAgent) Deregister(url string) error {
	if code := sa.store.Deregister(url); code != ErrNone {
		return fmt.Errorf("slp sa: deregister %s: %s", url, code)
	}
	return nil
}

func (sa *ServiceAgent) nextXID() uint16 {
	return uint16(sa.xid.Add(1))
}

func (sa *ServiceAgent) delay() {
	if sa.cfg.ProcessingDelay > 0 {
		netapi.SleepPrecise(sa.cfg.ProcessingDelay)
	}
}

func (sa *ServiceAgent) serve() {
	for {
		dg, err := sa.conn.Recv(0)
		if err != nil {
			return
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue // not valid SLP; a real stack drops it silently
		}
		sa.delay()
		switch m := msg.(type) {
		case *SrvRqst:
			sa.handleSrvRqst(m, dg)
		case *AttrRqst:
			sa.handleAttrRqst(m, dg)
		case *SrvTypeRqst:
			sa.handleSrvTypeRqst(m, dg)
		}
	}
}

// answeredBefore reports whether this agent is listed in the request's
// previous-responder list and must stay silent (RFC 2608 §6.3).
func (sa *ServiceAgent) answeredBefore(prev []string) bool {
	for _, p := range prev {
		if p == sa.host.IP() {
			return true
		}
	}
	return false
}

func (sa *ServiceAgent) handleSrvRqst(m *SrvRqst, dg netapi.Datagram) {
	if sa.answeredBefore(m.PrevResponders) {
		return
	}
	// "service:directory-agent" requests are for DAs only; a SA must
	// not answer them. "service:service-agent" requests get an
	// SAAdvert (RFC 2608 §11.2).
	switch m.ServiceType {
	case "service:directory-agent":
		return
	case "service:service-agent":
		sa.sendSAAdvert(m, dg.Src)
		return
	}
	if !ScopesIntersect(m.Scopes, sa.cfg.scopes()) {
		// Multicast requests with no matching scope are silently
		// dropped; unicast ones earn an error reply (RFC 2608 §11.1).
		if m.Hdr.Multicast() {
			return
		}
		sa.send(&SrvRply{Hdr: replyHdr(m.Hdr, sa.cfg.lang()), Error: ErrScopeNotSupported}, dg.Src)
		return
	}
	pred, err := ParsePredicate(m.Predicate)
	if err != nil {
		if !m.Hdr.Multicast() {
			sa.send(&SrvRply{Hdr: replyHdr(m.Hdr, sa.cfg.lang()), Error: ErrParse}, dg.Src)
		}
		return
	}
	now := time.Now()
	regs := sa.store.Lookup(m.ServiceType, m.Scopes, pred, now)
	if len(regs) == 0 && m.Hdr.Multicast() {
		// Multicast requests are only answered on a match — silence
		// is the negative answer (RFC 2608 §7).
		return
	}
	rply := &SrvRply{Hdr: replyHdr(m.Hdr, sa.cfg.lang())}
	for _, reg := range regs {
		rply.URLs = append(rply.URLs, URLEntry{Lifetime: reg.Lifetime(now), URL: reg.URL})
	}
	sa.send(rply, dg.Src)
}

func (sa *ServiceAgent) handleAttrRqst(m *AttrRqst, dg netapi.Datagram) {
	if sa.answeredBefore(m.PrevResponders) {
		return
	}
	if !ScopesIntersect(m.Scopes, sa.cfg.scopes()) {
		if !m.Hdr.Multicast() {
			sa.send(&AttrRply{Hdr: replyHdr(m.Hdr, sa.cfg.lang()), Error: ErrScopeNotSupported}, dg.Src)
		}
		return
	}
	now := time.Now()
	var attrs AttrList
	if reg, ok := sa.store.Get(m.URL, now); ok {
		attrs = reg.Attrs
	} else {
		// The URL field may hold a service type: merge attributes of
		// all matching registrations (RFC 2608 §10.3).
		merged := make(map[string]struct{})
		for _, reg := range sa.store.Lookup(m.URL, m.Scopes, nil, now) {
			for _, a := range reg.Attrs {
				if _, dup := merged[a.Name]; dup {
					continue
				}
				merged[a.Name] = struct{}{}
				attrs = append(attrs, a)
			}
		}
	}
	if len(attrs) == 0 && m.Hdr.Multicast() {
		return
	}
	sa.send(&AttrRply{Hdr: replyHdr(m.Hdr, sa.cfg.lang()), Attrs: attrs.String()}, dg.Src)
}

func (sa *ServiceAgent) handleSrvTypeRqst(m *SrvTypeRqst, dg netapi.Datagram) {
	if sa.answeredBefore(m.PrevResponders) {
		return
	}
	if !ScopesIntersect(m.Scopes, sa.cfg.scopes()) {
		return
	}
	types := sa.store.Types(m.Scopes, time.Now())
	if len(types) == 0 && m.Hdr.Multicast() {
		return
	}
	sa.send(&SrvTypeRply{Hdr: replyHdr(m.Hdr, sa.cfg.lang()), Types: types}, dg.Src)
}

func (sa *ServiceAgent) sendSAAdvert(m *SrvRqst, dst netapi.Addr) {
	adv := &SAAdvert{
		Hdr:    replyHdr(m.Hdr, sa.cfg.lang()),
		URL:    "service:service-agent://" + sa.host.IP(),
		Scopes: sa.cfg.scopes(),
	}
	sa.send(adv, dst)
}

// announce periodically multicasts an SAAdvert: the passive discovery
// model where "services periodically send out multicast announcement of
// their existence" (paper §2).
func (sa *ServiceAgent) announce() {
	ticker := time.NewTicker(sa.cfg.AnnounceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-sa.stop:
			return
		case <-ticker.C:
			adv := &SAAdvert{
				Hdr:    Header{XID: sa.nextXID(), Lang: sa.cfg.lang()},
				URL:    "service:service-agent://" + sa.host.IP(),
				Scopes: sa.cfg.scopes(),
				Attrs:  sa.announcedAttrs(),
			}
			sa.send(adv, groupAddr())
		}
	}
}

// announcedAttrs summarizes local registrations into the SAAdvert
// attribute list so passive listeners learn concrete URLs. This follows
// the spirit of RFC 2608 SAAdverts (which carry the SA's attributes) while
// giving the paper's passive model something to translate. Each
// registration contributes a (service-url, service-type, service-lifetime)
// triple; the lifetime is the registration's *remaining* seconds, so a
// passive listener caches the knowledge exactly as long as the SA itself
// will hold it — without it, listeners had to assume the RFC default
// (hours) and a dead service lingered far past its registration.
func (sa *ServiceAgent) announcedAttrs() string {
	now := time.Now()
	var list AttrList
	for _, reg := range sa.store.Lookup("", nil, nil, now) {
		lt := int(reg.Lifetime(now))
		if lt < 1 {
			// A live registration in its final sub-second still has a
			// lifetime; announcing 0 would read as "no lifetime" and
			// fall back to the RFC default's hours.
			lt = 1
		}
		list = append(list, Attr{Name: "service-url", Values: []string{reg.URL}})
		list = append(list, Attr{Name: "service-type", Values: []string{reg.ServiceType}})
		list = append(list, Attr{Name: "service-lifetime", Values: []string{strconv.Itoa(lt)}})
	}
	return list.String()
}

func (sa *ServiceAgent) send(m Message, dst netapi.Addr) {
	data, err := m.Marshal()
	if err != nil {
		return
	}
	_ = sa.conn.WriteTo(data, dst)
}

// replyHdr builds a reply header echoing the request's XID and language
// (RFC 2608 §7).
func replyHdr(req Header, lang string) Header {
	if req.Lang != "" {
		lang = req.Lang
	}
	return Header{XID: req.XID, Lang: lang}
}

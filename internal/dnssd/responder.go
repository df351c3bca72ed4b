package dnssd

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"indiss/internal/netapi"
)

// ResponderConfig tunes a Responder.
type ResponderConfig struct {
	// Hostname is the responder's "host.local." name; empty derives one
	// from the host's IP ("host-10-0-0-2.local.").
	Hostname string
}

// Registration is one service instance a Responder advertises.
type Registration struct {
	// Instance is the instance label ("Clock").
	Instance string
	// Service is the service type name ("_clock._tcp.local.").
	Service string
	// Port the service listens on; the SRV record carries it.
	Port int
	// Text holds the instance's TXT metadata as name→value pairs.
	Text map[string]string
	// TTL is the advertisement lifetime in seconds (0 = DefaultTTL).
	TTL int
}

// Responder is a native mDNS/DNS-SD responder: it registers service
// instances, announces them, and answers PTR/SRV/TXT/A queries —
// including the RFC 6763 §9 meta-query — with known-answer suppression
// (RFC 6762 §7.1). It binds the shared multicast socket every mDNS stack
// on a host shares, so it coexists with the INDISS monitor.
type Responder struct {
	host netapi.Stack
	cfg  ResponderConfig
	conn netapi.PacketConn

	mu     sync.Mutex
	regs   []Registration
	closed bool

	wg sync.WaitGroup
}

// NewResponder starts a responder on host.
func NewResponder(host netapi.Stack, cfg ResponderConfig) (*Responder, error) {
	if cfg.Hostname == "" {
		cfg.Hostname = "host-" + strings.ReplaceAll(host.IP(), ".", "-") + "." + LocalDomain
	}
	cfg.Hostname = CanonicalName(cfg.Hostname)
	conn, err := host.ListenMulticastUDP(Port)
	if err != nil {
		return nil, fmt.Errorf("dnssd responder: %w", err)
	}
	if err := conn.JoinGroup(MulticastGroup); err != nil {
		conn.Close()
		return nil, fmt.Errorf("dnssd responder: %w", err)
	}
	r := &Responder{host: host, cfg: cfg, conn: conn}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.serve()
	}()
	return r, nil
}

// Close sends goodbye (TTL 0) announcements for every registration and
// stops the responder. Concurrent and repeated calls are safe; only the
// first performs the shutdown.
func (r *Responder) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	regs := r.regs
	r.regs = nil
	r.mu.Unlock()
	for i := range regs {
		r.announce(&regs[i], true)
	}
	r.conn.Close()
	r.wg.Wait()
}

// Hostname returns the responder's mDNS host name.
func (r *Responder) Hostname() string { return r.cfg.Hostname }

// Register adds a service instance and announces it (RFC 6762 §8.3).
func (r *Responder) Register(reg Registration) error {
	if reg.Instance == "" || reg.Service == "" {
		return fmt.Errorf("dnssd responder: registration needs Instance and Service")
	}
	reg.Service = CanonicalName(reg.Service)
	if reg.TTL <= 0 {
		reg.TTL = DefaultTTL
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return fmt.Errorf("dnssd responder: closed")
	}
	replaced := false
	for i := range r.regs {
		if nameEqual(r.regs[i].Service, reg.Service) && strings.EqualFold(r.regs[i].Instance, reg.Instance) {
			r.regs[i] = reg
			replaced = true
			break
		}
	}
	if !replaced {
		r.regs = append(r.regs, reg)
	}
	r.mu.Unlock()
	r.announce(&reg, false)
	return nil
}

// Unregister removes an instance and sends its goodbye.
func (r *Responder) Unregister(instance, service string) {
	r.mu.Lock()
	var gone *Registration
	for i := range r.regs {
		if nameEqual(r.regs[i].Service, service) && strings.EqualFold(r.regs[i].Instance, instance) {
			reg := r.regs[i]
			gone = &reg
			r.regs = append(r.regs[:i], r.regs[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
	if gone != nil {
		r.announce(gone, true)
	}
}

// serve is the receive loop: every multicast query on the group lands
// here.
func (r *Responder) serve() {
	for {
		dg, err := r.conn.Recv(0)
		if err != nil {
			return
		}
		msg, err := Parse(dg.Payload)
		if err != nil || msg.Response {
			continue
		}
		r.handleQuery(msg, dg.Src)
	}
}

// handleQuery answers the questions the responder is authoritative for.
// Responses go unicast to legacy one-shot queriers (source port not
// 5353, RFC 6762 §6.7) or when the QU bit asks for it; otherwise they
// are multicast to the group.
func (r *Responder) handleQuery(msg *Message, src netapi.Addr) {
	resp := &Message{Response: true, Authoritative: true}
	unicast := src.Port != Port
	for _, q := range msg.Questions {
		if q.UnicastResponse {
			unicast = true
		}
		r.answerQuestion(q, msg.Answers, resp)
	}
	if len(resp.Answers) == 0 {
		return
	}
	if msg.ID != 0 {
		resp.ID = msg.ID // legacy queriers match answers by id
	}
	dst := netapi.Addr{IP: MulticastGroup, Port: Port}
	if unicast {
		dst = src
	}
	_ = r.conn.WriteTo(resp.Marshal(), dst)
}

// answerQuestion appends the records answering q, honouring known-answer
// suppression: an instance the querier already lists with at least half
// the true TTL left is not repeated (RFC 6762 §7.1).
func (r *Responder) answerQuestion(q Question, known []Record, resp *Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case nameEqual(q.Name, MetaQuery) && (q.Type == TypePTR || q.Type == TypeANY):
		seen := map[string]bool{}
		for i := range r.regs {
			if len(resp.Answers) >= MaxAnswerInstances {
				break // keep the message decodable
			}
			reg := &r.regs[i]
			service := CanonicalName(reg.Service)
			key := strings.ToLower(service)
			if seen[key] || suppressed(known, MetaQuery, service, reg.TTL) {
				continue
			}
			seen[key] = true
			resp.Answers = append(resp.Answers, Record{
				Name: MetaQuery, Type: TypePTR, TTL: uint32(reg.TTL), Target: service,
			})
		}
	case q.Type == TypePTR || q.Type == TypeANY:
		for i := range r.regs {
			reg := &r.regs[i]
			if !nameEqual(reg.Service, q.Name) {
				continue
			}
			if suppressed(known, reg.Service, InstanceName(reg.Instance, reg.Service), reg.TTL) {
				continue
			}
			r.appendInstance(resp, reg)
		}
	}
	// Direct instance queries: RFC 6762 §6 wants the queried record type
	// in the Answer section, with the rest as additionals.
	if q.Type == TypeSRV || q.Type == TypeTXT || q.Type == TypeANY {
		for i := range r.regs {
			reg := &r.regs[i]
			if !nameEqual(InstanceName(reg.Instance, reg.Service), q.Name) {
				continue
			}
			if len(resp.Answers) >= MaxAnswerInstances {
				break
			}
			_, srv, txt, a := r.instanceRecords(reg, reg.TTL)
			switch q.Type {
			case TypeSRV:
				resp.Answers = append(resp.Answers, srv)
				resp.Additional = append(resp.Additional, txt, a)
			case TypeTXT:
				resp.Answers = append(resp.Answers, txt)
				resp.Additional = append(resp.Additional, srv, a)
			default: // ANY
				resp.Answers = append(resp.Answers, srv, txt)
				resp.Additional = append(resp.Additional, a)
			}
		}
	}
	if (q.Type == TypeA || q.Type == TypeANY) && nameEqual(q.Name, r.cfg.Hostname) {
		resp.Answers = append(resp.Answers, r.aRecord(DefaultTTL))
	}
}

// suppressed implements the known-answer check for one PTR answer.
func suppressed(known []Record, service, instance string, ttl int) bool {
	for i := range known {
		k := &known[i]
		if k.Type == TypePTR && nameEqual(k.Name, service) &&
			nameEqual(k.Target, instance) && KnownAnswerSuppresses(int(k.TTL), ttl) {
			return true
		}
	}
	return false
}

// KnownAnswerSuppresses is the RFC 6762 §7.1 rule: a known answer with
// at least half the true TTL left suppresses re-answering. Exported so
// the INDISS unit and the native Responder share one implementation.
func KnownAnswerSuppresses(knownTTL, trueTTL int) bool {
	return knownTTL >= trueTTL/2
}

// appendInstance adds the PTR answer plus the SRV/TXT/A additionals that
// let one response resolve the instance completely (RFC 6763 §12.1).
func (r *Responder) appendInstance(resp *Message, reg *Registration) {
	if len(resp.Answers) >= MaxAnswerInstances {
		return // keep the message decodable; queriers re-ask for the rest
	}
	name := InstanceName(reg.Instance, reg.Service)
	for i := range resp.Answers {
		if resp.Answers[i].Type == TypePTR && nameEqual(resp.Answers[i].Target, name) {
			return // already answered for another question
		}
	}
	r.appendRegistration(resp, reg, reg.TTL)
}

// instanceRecords builds one registration's PTR, SRV, TXT and A records
// with the given TTL — the single place the advertised record shape is
// defined. Callers place them in the sections their question calls for.
func (r *Responder) instanceRecords(reg *Registration, ttl int) (ptr, srv, txt, a Record) {
	name := InstanceName(reg.Instance, reg.Service)
	ptr = Record{
		Name: CanonicalName(reg.Service), Type: TypePTR, TTL: uint32(ttl), Target: name,
	}
	srv = Record{
		Name: name, Type: TypeSRV, TTL: uint32(ttl), CacheFlush: true,
		Port: uint16(reg.Port), Target: r.cfg.Hostname,
	}
	txt = Record{
		Name: name, Type: TypeTXT, TTL: uint32(ttl), CacheFlush: true,
		Text: txtStrings(reg.Text),
	}
	return ptr, srv, txt, r.aRecord(ttl)
}

// appendRegistration adds one registration's full PTR+SRV+TXT+A set —
// the browse-answer and announcement shape (PTR in Answers, the rest as
// additionals, RFC 6763 §12.1).
func (r *Responder) appendRegistration(resp *Message, reg *Registration, ttl int) {
	ptr, srv, txt, a := r.instanceRecords(reg, ttl)
	resp.Answers = append(resp.Answers, ptr)
	resp.Additional = append(resp.Additional, srv, txt, a)
}

func (r *Responder) aRecord(ttl int) Record {
	return Record{
		Name: r.cfg.Hostname, Type: TypeA, TTL: uint32(ttl), CacheFlush: true,
		IP: r.host.IP(),
	}
}

// announce multicasts an unsolicited response advertising (or, with
// goodbye, retracting) one registration.
func (r *Responder) announce(reg *Registration, goodbye bool) {
	ttl := reg.TTL
	if goodbye {
		ttl = 0
	}
	msg := &Message{Response: true, Authoritative: true}
	r.appendRegistration(msg, reg, ttl)
	_ = r.conn.WriteTo(msg.Marshal(), netapi.Addr{IP: MulticastGroup, Port: Port})
}

// txtStrings renders a text map as sorted "name=value" TXT strings, so
// composed records are deterministic.
func txtStrings(text map[string]string) []string {
	if len(text) == 0 {
		return nil
	}
	out := make([]string, 0, len(text))
	for k, v := range text {
		out = append(out, k+"="+v)
	}
	sort.Strings(out)
	return out
}

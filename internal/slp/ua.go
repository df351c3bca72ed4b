package slp

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"indiss/internal/netapi"
)

// UserAgent issues SLP requests on behalf of a client application — the
// "client" role of the paper's discovery models. Every request is
// multicast to the SLP group, with previous-responder accumulation and
// retransmission (RFC 2608 §6.3); the agent uses no directory agent.
type UserAgent struct {
	host netapi.Stack
	cfg  AgentConfig
	xid  atomic.Uint32
}

// NewUserAgent creates a user agent on host. It binds no permanent port;
// each request uses an ephemeral socket, like a real UA.
func NewUserAgent(host netapi.Stack, cfg AgentConfig) *UserAgent {
	return &UserAgent{host: host, cfg: cfg}
}

func (ua *UserAgent) nextXID() uint16 { return uint16(ua.xid.Add(1)) }

func (ua *UserAgent) delay() {
	if ua.cfg.ProcessingDelay > 0 {
		netapi.SleepPrecise(ua.cfg.ProcessingDelay)
	}
}

// FindFirst issues a service request and returns as soon as the first
// matching reply arrives — the paper's measured quantity ("the native
// client waiting time to get an answer", §4.3). timeout bounds the wait.
// Unanswered requests are retransmitted with doubling spacing (RFC 2608
// §6.3 multicast convergence), so a single lost datagram on a lossy
// fabric costs one retry interval, not the whole timeout.
func (ua *UserAgent) FindFirst(serviceType, predicate string, timeout time.Duration) ([]URLEntry, error) {
	conn, err := ua.host.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("slp ua: %w", err)
	}
	defer conn.Close()

	req := &SrvRqst{
		Hdr:         Header{XID: ua.nextXID(), Lang: ua.cfg.lang(), Flags: FlagRequestMcast},
		ServiceType: serviceType,
		Scopes:      ua.cfg.scopes(),
		Predicate:   predicate,
	}
	ua.delay()
	if err := ua.send(conn, req, groupAddr()); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	retry := RetryInterval
	nextSend := time.Now().Add(retry)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, netapi.ErrTimeout
		}
		wait := time.Until(nextSend)
		if wait > remaining {
			wait = remaining
		}
		if wait <= 0 {
			wait = time.Millisecond
		}
		dg, err := conn.Recv(wait)
		if errors.Is(err, netapi.ErrTimeout) {
			if time.Now().After(deadline) {
				return nil, netapi.ErrTimeout
			}
			if err := ua.send(conn, req, groupAddr()); err != nil {
				return nil, err
			}
			retry *= 2
			nextSend = time.Now().Add(retry)
			continue
		}
		if err != nil {
			return nil, err
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		rply, ok := msg.(*SrvRply)
		if !ok || rply.Hdr.XID != req.Hdr.XID {
			continue
		}
		ua.delay()
		if rply.Error != ErrNone {
			return nil, fmt.Errorf("slp ua: %s", rply.Error)
		}
		if len(rply.URLs) == 0 {
			continue
		}
		return rply.URLs, nil
	}
}

// FindServices runs a full multicast convergence round (RFC 2608 §6.3):
// the request is retransmitted with the accumulated previous-responder
// list until the convergence window closes or retransmissions stop
// producing new answers, and all distinct URLs are returned.
func (ua *UserAgent) FindServices(serviceType, predicate string) ([]URLEntry, error) {
	conn, err := ua.host.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("slp ua: %w", err)
	}
	defer conn.Close()

	xid := ua.nextXID()
	var responders []string
	seen := make(map[string]URLEntry)
	deadline := time.Now().Add(ConvergenceWait)
	ua.delay()

	for time.Now().Before(deadline) {
		req := &SrvRqst{
			Hdr:            Header{XID: xid, Lang: ua.cfg.lang(), Flags: FlagRequestMcast},
			PrevResponders: responders,
			ServiceType:    serviceType,
			Scopes:         ua.cfg.scopes(),
			Predicate:      predicate,
		}
		if err := ua.send(conn, req, groupAddr()); err != nil {
			return nil, err
		}
		newAnswers := ua.collectRound(conn, xid, &responders, seen, deadline)
		if !newAnswers && len(seen) > 0 {
			break // converged: a full round brought nothing new
		}
	}
	urls := make([]URLEntry, 0, len(seen))
	for _, e := range seen {
		urls = append(urls, e)
	}
	sort.Slice(urls, func(i, j int) bool { return urls[i].URL < urls[j].URL })
	return urls, nil
}

// collectRound gathers replies for one retransmission interval, recording
// responders and URLs. It reports whether any new URL arrived.
func (ua *UserAgent) collectRound(conn netapi.PacketConn, xid uint16, responders *[]string, seen map[string]URLEntry, deadline time.Time) bool {
	roundEnd := time.Now().Add(RetryInterval)
	if roundEnd.After(deadline) {
		roundEnd = deadline
	}
	gotNew := false
	for {
		remaining := time.Until(roundEnd)
		if remaining <= 0 {
			return gotNew
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return gotNew
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		rply, ok := msg.(*SrvRply)
		if !ok || rply.Hdr.XID != xid || rply.Error != ErrNone {
			continue
		}
		*responders = appendUnique(*responders, dg.Src.IP)
		for _, e := range rply.URLs {
			if _, dup := seen[e.URL]; !dup {
				seen[e.URL] = e
				gotNew = true
			}
		}
	}
}

// FindAttrs fetches the attributes of a service URL (or merged attributes
// of a service type).
func (ua *UserAgent) FindAttrs(url string, timeout time.Duration) (AttrList, error) {
	conn, err := ua.host.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("slp ua: %w", err)
	}
	defer conn.Close()

	req := &AttrRqst{
		Hdr:    Header{XID: ua.nextXID(), Lang: ua.cfg.lang(), Flags: FlagRequestMcast},
		URL:    url,
		Scopes: ua.cfg.scopes(),
	}
	ua.delay()
	if err := ua.send(conn, req, groupAddr()); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, netapi.ErrTimeout
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return nil, err
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		rply, ok := msg.(*AttrRply)
		if !ok || rply.Hdr.XID != req.Hdr.XID {
			continue
		}
		ua.delay()
		if rply.Error != ErrNone {
			return nil, fmt.Errorf("slp ua: %s", rply.Error)
		}
		return ParseAttrList(rply.Attrs)
	}
}

// FindTypes lists the service types visible in the agent's scopes.
func (ua *UserAgent) FindTypes(timeout time.Duration) ([]string, error) {
	conn, err := ua.host.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("slp ua: %w", err)
	}
	defer conn.Close()

	req := &SrvTypeRqst{
		Hdr:            Header{XID: ua.nextXID(), Lang: ua.cfg.lang(), Flags: FlagRequestMcast},
		AllAuthorities: true,
		Scopes:         ua.cfg.scopes(),
	}
	ua.delay()
	if err := ua.send(conn, req, groupAddr()); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	seen := make(map[string]struct{})
	var types []string
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			break
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			break
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		rply, ok := msg.(*SrvTypeRply)
		if !ok || rply.Hdr.XID != req.Hdr.XID || rply.Error != ErrNone {
			continue
		}
		for _, t := range rply.Types {
			if _, dup := seen[t]; !dup {
				seen[t] = struct{}{}
				types = append(types, t)
			}
		}
	}
	sort.Strings(types)
	if len(types) == 0 {
		return nil, netapi.ErrTimeout
	}
	return types, nil
}

func (ua *UserAgent) send(conn netapi.PacketConn, m Message, dst netapi.Addr) error {
	data, err := m.Marshal()
	if err != nil {
		return err
	}
	return conn.WriteTo(data, dst)
}

func appendUnique(list []string, item string) []string {
	for _, x := range list {
		if x == item {
			return list
		}
	}
	return append(list, item)
}

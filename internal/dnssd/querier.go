package dnssd

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"indiss/internal/netapi"
)

// Instance is one resolved service instance.
type Instance struct {
	// Name is the full instance name ("Clock._clock._tcp.local.").
	Name string
	// Service is the service type name ("_clock._tcp.local.").
	Service string
	// Host is the SRV target host name.
	Host string
	// IP is the target's address from its A record.
	IP string
	// Port is the SRV port.
	Port int
	// Text is the TXT metadata, parsed into name→value pairs.
	Text map[string]string
	// TTL is the remaining advertisement lifetime in seconds.
	TTL int
}

// cacheEntry is one cached instance plus its expiry.
type cacheEntry struct {
	inst    Instance
	origTTL int
	expires time.Time
}

// Querier browses DNS-SD service types. It keeps the standard mDNS
// known-answer cache: instances learned earlier are returned without
// re-asking, and repeated queries carry the cached PTR records in their
// answer section so responders suppress duplicates (RFC 6762 §7.1).
// Each query uses its own one-shot socket (§6.7), so responders answer
// unicast and concurrent browses never steal each other's replies. A
// passive group listener keeps the cache continuous between browses
// (§10.1): unsolicited announcements refresh entries and goodbyes evict
// them, so a departed service is not served from cache for its full
// TTL.
type Querier struct {
	host netapi.Stack

	listener netapi.PacketConn
	wg       sync.WaitGroup

	mu        sync.Mutex
	cache     map[string]map[string]*cacheEntry // service type → instance name → entry
	lastSweep time.Time
}

// NewQuerier builds a querier on host.
func NewQuerier(host netapi.Stack) *Querier {
	q := &Querier{host: host, cache: make(map[string]map[string]*cacheEntry)}
	// Best-effort passive listener; the purely-receiving socket emits
	// nothing, so it needs no self-marking. Without it the querier
	// still works, it just cannot hear goodbyes between browses.
	if conn, err := host.ListenMulticastUDP(Port); err == nil {
		if err := conn.JoinGroup(MulticastGroup); err != nil {
			conn.Close()
		} else {
			q.listener = conn
			q.wg.Add(1)
			go func() {
				defer q.wg.Done()
				q.listen(conn)
			}()
		}
	}
	return q
}

// Close stops the passive listener. The cache and one-shot Browse calls
// keep working after Close.
func (q *Querier) Close() {
	if q.listener != nil {
		q.listener.Close()
	}
	q.wg.Wait()
}

// listen absorbs multicast announcements into the cache: alives refresh,
// TTL-0 goodbyes evict.
func (q *Querier) listen(conn netapi.PacketConn) {
	for {
		dg, err := conn.Recv(0)
		if err != nil {
			return
		}
		msg, err := Parse(dg.Payload)
		if err != nil || !msg.Response {
			continue
		}
		for _, inst := range InstancesFromMessage(msg) {
			q.store(inst)
		}
	}
}

// Browse queries one service type ("_clock._tcp.local.") and returns
// every instance heard before the timeout, merged with still-live cached
// knowledge. It returns as soon as at least one instance is known, after
// a 10 ms drain so that same-link responders all land.
func (q *Querier) Browse(service string, timeout time.Duration) ([]Instance, error) {
	service = CanonicalName(service)
	known := q.cachedRecords(service)

	conn, err := q.host.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("dnssd querier: %w", err)
	}
	defer conn.Close()

	query := &Message{Questions: []Question{{Name: service, Type: TypePTR}}, Answers: known}
	if err := conn.WriteTo(query.Marshal(), netapi.Addr{IP: MulticastGroup, Port: Port}); err != nil {
		return nil, fmt.Errorf("dnssd querier: %w", err)
	}

	// Wait until at least one instance is known. With a warm cache that
	// is immediate — responders suppress what the query already listed,
	// so silence is expected and the cache is the answer.
	deadline := time.Now().Add(timeout)
	for len(known) == 0 && len(q.liveInstances(service)) == 0 {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, netapi.ErrTimeout
		}
		if !q.awaitOne(conn, service, remaining) {
			return nil, netapi.ErrTimeout
		}
	}
	// Drain the response burst so same-link responders all land.
	for q.awaitOne(conn, service, 10*time.Millisecond) {
	}
	insts := q.liveInstances(service)
	if len(insts) == 0 {
		return nil, netapi.ErrTimeout
	}
	return insts, nil
}

// awaitOne receives one datagram and absorbs any instances of the
// browsed service into the cache; it reports false on timeout or socket
// close.
func (q *Querier) awaitOne(conn netapi.PacketConn, service string, timeout time.Duration) bool {
	if timeout <= 0 {
		timeout = time.Millisecond
	}
	dg, err := conn.Recv(timeout)
	if err != nil {
		return false
	}
	msg, err := Parse(dg.Payload)
	if err != nil || !msg.Response {
		return true
	}
	for _, inst := range InstancesFromMessage(msg) {
		if nameEqual(inst.Service, service) {
			q.store(inst)
		}
	}
	return true
}

// store absorbs one instance into the known-answer cache; TTL 0 is a
// goodbye and evicts.
func (q *Querier) store(inst Instance) {
	key := strings.ToLower(CanonicalName(inst.Service))
	name := strings.ToLower(inst.Name)
	q.mu.Lock()
	defer q.mu.Unlock()
	if inst.TTL <= 0 {
		if byName := q.cache[key]; byName != nil {
			delete(byName, name)
		}
		return
	}
	byName := q.cache[key]
	if byName == nil {
		byName = make(map[string]*cacheEntry)
		q.cache[key] = byName
	}
	byName[name] = &cacheEntry{
		inst:    inst,
		origTTL: inst.TTL,
		expires: time.Now().Add(time.Duration(inst.TTL) * time.Second),
	}
	q.sweepLocked()
}

// sweepLocked periodically drops expired entries of every service type.
// liveInstances prunes only the browsed type; without this, a passive
// listener on a long-lived gateway would accumulate entries for types
// nobody browses (hosts that crash announce no goodbye).
func (q *Querier) sweepLocked() {
	now := time.Now()
	if now.Sub(q.lastSweep) < time.Minute {
		return
	}
	q.lastSweep = now
	for key, byName := range q.cache {
		for name, e := range byName {
			if !e.expires.After(now) {
				delete(byName, name)
			}
		}
		if len(byName) == 0 {
			delete(q.cache, key)
		}
	}
}

// liveInstances returns the unexpired cached instances of a type, TTLs
// rewritten to the remaining lifetime.
func (q *Querier) liveInstances(service string) []Instance {
	key := strings.ToLower(CanonicalName(service))
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	byName := q.cache[key]
	out := make([]Instance, 0, len(byName))
	for name, e := range byName {
		if !e.expires.After(now) {
			delete(byName, name)
			continue
		}
		inst := e.inst
		inst.TTL = int(e.expires.Sub(now) / time.Second)
		if inst.TTL < 1 {
			// The entry is unexpired, so never report 0 — TTL 0 means
			// goodbye everywhere else in the package.
			inst.TTL = 1
		}
		out = append(out, inst)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// minKnownAnswerTTL is the remaining lifetime below which a cache entry
// no longer rides in a query's known-answer section: an entry that
// expires during the browse would have told responders to stay silent
// and then vanished before the answer was read.
const minKnownAnswerTTL = 2

// cachedRecords renders the cache's PTR records for the known-answer
// section of an outgoing query.
func (q *Querier) cachedRecords(service string) []Record {
	insts := q.liveInstances(service)
	if len(insts) == 0 {
		return nil
	}
	out := make([]Record, 0, len(insts))
	for _, inst := range insts {
		if inst.TTL < minKnownAnswerTTL {
			continue
		}
		out = append(out, Record{
			Name:   CanonicalName(service),
			Type:   TypePTR,
			TTL:    uint32(inst.TTL),
			Target: inst.Name,
		})
	}
	return out
}

// Flush empties the known-answer cache (tests and cache-bypass paths).
func (q *Querier) Flush() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cache = make(map[string]map[string]*cacheEntry)
}

// InstancesFromMessage assembles resolved instances from one response:
// PTR answers select the instances, SRV/TXT/A records across all
// sections fill in host, port, address and metadata. Goodbye PTRs (TTL
// 0) yield instances with TTL 0. The sections are scanned in place —
// this runs for every datagram the unit's parser and the querier's
// listener receive, so no records are copied; Text stays nil (reads are
// nil-safe) until a TXT pair materializes it.
func InstancesFromMessage(msg *Message) []Instance {
	sections := [3][]Record{msg.Answers, msg.Authority, msg.Additional}
	var out []Instance
	for i := range msg.Answers {
		ptr := &msg.Answers[i]
		if ptr.Type != TypePTR || nameEqual(ptr.Name, MetaQuery) {
			continue
		}
		inst := Instance{
			Name:    CanonicalName(ptr.Target),
			Service: CanonicalName(ptr.Name),
			TTL:     int(ptr.TTL),
		}
		for _, sec := range sections {
			for j := range sec {
				r := &sec[j]
				switch {
				case r.Type == TypeSRV && nameEqual(r.Name, ptr.Target):
					inst.Host = r.Target
					inst.Port = int(r.Port)
				case r.Type == TypeTXT && nameEqual(r.Name, ptr.Target):
					for _, s := range r.Text {
						if name, value, ok := strings.Cut(s, "="); ok && name != "" {
							if inst.Text == nil {
								inst.Text = make(map[string]string, len(r.Text))
							}
							inst.Text[name] = value
						}
					}
				}
			}
		}
		for _, sec := range sections {
			for j := range sec {
				r := &sec[j]
				if r.Type == TypeA && nameEqual(r.Name, inst.Host) {
					inst.IP = r.IP
				}
			}
		}
		out = append(out, inst)
	}
	return out
}

package slp

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Registration is one stored service registration.
type Registration struct {
	// ServiceType is the full type, e.g. "service:printer:lpr".
	ServiceType string
	// URL is the service URL.
	URL string
	// Scopes the registration is visible in.
	Scopes []string
	// Attrs are the service's attributes.
	Attrs AttrList
	// Expires is when the registration lapses.
	Expires time.Time
}

// Lifetime returns the remaining lifetime clamped to the URL-entry field
// range.
func (r Registration) Lifetime(now time.Time) uint16 {
	secs := int64(r.Expires.Sub(now) / time.Second)
	if secs <= 0 {
		return 0
	}
	if secs > 0xFFFF {
		return 0xFFFF
	}
	return uint16(secs)
}

// TypeMatches implements RFC 2608 service type matching: a request for an
// abstract type ("service:printer") matches registrations of any of its
// concrete types ("service:printer:lpr"); a concrete request matches
// exactly. Matching is case-insensitive, and an empty requested type
// browses everything.
func TypeMatches(requested, registered string) bool {
	req := strings.ToLower(strings.TrimSpace(requested))
	reg := strings.ToLower(strings.TrimSpace(registered))
	if req == "" || req == reg {
		return true
	}
	return strings.HasPrefix(reg, req+":")
}

// ScopesIntersect reports whether the two scope lists share a scope.
// An empty request list means DEFAULT (RFC 2608 §6.4.1).
func ScopesIntersect(requested, registered []string) bool {
	if len(requested) == 0 {
		requested = []string{DefaultScope}
	}
	if len(registered) == 0 {
		registered = []string{DefaultScope}
	}
	for _, a := range requested {
		for _, b := range registered {
			if strings.EqualFold(a, b) {
				return true
			}
		}
	}
	return false
}

// Store holds registrations with lifetimes. It backs both Service Agents
// (their own services) and Directory Agents (everyone's services) — the
// paper's "repository" in the latter role.
type Store struct {
	mu   sync.Mutex
	regs map[string]*Registration // keyed by URL
}

// NewStore creates an empty registration store.
func NewStore() *Store {
	return &Store{regs: make(map[string]*Registration)}
}

// Register inserts or refreshes a registration. A zero lifetime is
// rejected as an invalid registration per RFC 2608 §9.3.
func (s *Store) Register(reg Registration) ErrorCode {
	if reg.URL == "" || reg.ServiceType == "" {
		return ErrInvalidRegistration
	}
	if !strings.HasPrefix(strings.ToLower(reg.ServiceType), "service:") {
		return ErrInvalidRegistration
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	copied := reg
	copied.Scopes = append([]string(nil), reg.Scopes...)
	copied.Attrs = append(AttrList(nil), reg.Attrs...)
	s.regs[reg.URL] = &copied
	return ErrNone
}

// Deregister removes the registration for url. Removing an unknown URL is
// an ErrInvalidRegistration per RFC 2608 §10.6.
func (s *Store) Deregister(url string) ErrorCode {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.regs[url]; !ok {
		return ErrInvalidRegistration
	}
	delete(s.regs, url)
	return ErrNone
}

// Lookup returns live registrations matching type, scopes and predicate,
// sorted by URL for determinism.
func (s *Store) Lookup(serviceType string, scopes []string, pred *Predicate, now time.Time) []Registration {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Registration
	for _, reg := range s.regs {
		if !reg.Expires.After(now) {
			continue
		}
		if !TypeMatches(serviceType, reg.ServiceType) {
			continue
		}
		if !ScopesIntersect(scopes, reg.Scopes) {
			continue
		}
		if pred != nil && !pred.Eval(reg.Attrs) {
			continue
		}
		out = append(out, *reg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// Get returns the live registration for url.
func (s *Store) Get(url string, now time.Time) (Registration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, ok := s.regs[url]
	if !ok || !reg.Expires.After(now) {
		return Registration{}, false
	}
	return *reg, true
}

// Types returns the distinct live service types in the given scopes.
func (s *Store) Types(scopes []string, now time.Time) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]struct{})
	for _, reg := range s.regs {
		if !reg.Expires.After(now) || !ScopesIntersect(scopes, reg.Scopes) {
			continue
		}
		seen[strings.ToLower(reg.ServiceType)] = struct{}{}
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

package slp

import (
	"testing"
	"time"
)

func reg(st, url string, scopes []string, attrs AttrList, ttl time.Duration) Registration {
	return Registration{
		ServiceType: st,
		URL:         url,
		Scopes:      scopes,
		Attrs:       attrs,
		Expires:     time.Now().Add(ttl),
	}
}

func TestTypeMatches(t *testing.T) {
	tests := []struct {
		req, registered string
		want            bool
	}{
		{"service:clock", "service:clock", true},
		{"SERVICE:CLOCK", "service:clock", true},
		{"service:printer", "service:printer:lpr", true},
		{"service:printer:lpr", "service:printer", false},
		{"service:printer:lpr", "service:printer:lpr", true},
		{"service:print", "service:printer:lpr", false},
		{"", "service:anything", true},
	}
	for _, tt := range tests {
		if got := TypeMatches(tt.req, tt.registered); got != tt.want {
			t.Errorf("TypeMatches(%q, %q) = %v, want %v", tt.req, tt.registered, got, tt.want)
		}
	}
}

func TestScopesIntersect(t *testing.T) {
	tests := []struct {
		a, b []string
		want bool
	}{
		{nil, nil, true}, // both default to DEFAULT
		{[]string{"DEFAULT"}, nil, true},
		{[]string{"default"}, []string{"DEFAULT"}, true},
		{[]string{"HOME"}, []string{"DEFAULT"}, false},
		{[]string{"HOME", "LAB"}, []string{"lab"}, true},
	}
	for _, tt := range tests {
		if got := ScopesIntersect(tt.a, tt.b); got != tt.want {
			t.Errorf("ScopesIntersect(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestStoreRegisterLookup(t *testing.T) {
	s := NewStore()
	if code := s.Register(reg("service:clock", "service:clock://10.0.0.2", nil, nil, time.Minute)); code != ErrNone {
		t.Fatalf("Register: %v", code)
	}
	if code := s.Register(reg("service:printer:lpr", "service:printer:lpr://10.0.0.3", nil,
		AttrList{{Name: "color", Values: []string{"true"}}}, time.Minute)); code != ErrNone {
		t.Fatalf("Register: %v", code)
	}

	now := time.Now()
	got := s.Lookup("service:clock", nil, nil, now)
	if len(got) != 1 || got[0].URL != "service:clock://10.0.0.2" {
		t.Errorf("Lookup clock = %+v", got)
	}
	got = s.Lookup("service:printer", nil, nil, now)
	if len(got) != 1 {
		t.Errorf("abstract type lookup = %+v", got)
	}
	pred := MustParsePredicate("(color=true)")
	got = s.Lookup("service:printer", nil, pred, now)
	if len(got) != 1 {
		t.Errorf("predicate lookup = %+v", got)
	}
	pred = MustParsePredicate("(color=false)")
	if got = s.Lookup("service:printer", nil, pred, now); len(got) != 0 {
		t.Errorf("false predicate matched: %+v", got)
	}
}

func TestStoreRejectsInvalid(t *testing.T) {
	s := NewStore()
	if code := s.Register(Registration{}); code != ErrInvalidRegistration {
		t.Errorf("empty registration: %v", code)
	}
	if code := s.Register(reg("notservice:x", "u", nil, nil, time.Minute)); code != ErrInvalidRegistration {
		t.Errorf("bad type prefix: %v", code)
	}
	if code := s.Deregister("nosuch"); code != ErrInvalidRegistration {
		t.Errorf("deregister unknown: %v", code)
	}
}

func TestStoreScopeFiltering(t *testing.T) {
	s := NewStore()
	s.Register(reg("service:clock", "service:clock://a", []string{"HOME"}, nil, time.Minute))
	now := time.Now()
	if got := s.Lookup("service:clock", []string{"DEFAULT"}, nil, now); len(got) != 0 {
		t.Errorf("scope mismatch matched: %+v", got)
	}
	if got := s.Lookup("service:clock", []string{"home"}, nil, now); len(got) != 1 {
		t.Errorf("case-insensitive scope failed: %+v", got)
	}
}

func TestStoreExpiry(t *testing.T) {
	s := NewStore()
	s.Register(reg("service:clock", "service:clock://a", nil, nil, 10*time.Millisecond))
	s.Register(reg("service:clock", "service:clock://b", nil, nil, time.Minute))

	future := time.Now().Add(50 * time.Millisecond)
	if got := s.Lookup("service:clock", nil, nil, future); len(got) != 1 || got[0].URL != "service:clock://b" {
		t.Errorf("expired registration returned: %+v", got)
	}
	if _, ok := s.Get("service:clock://a", future); ok {
		t.Error("Get returned expired registration")
	}
	if _, ok := s.Get("service:clock://b", future); !ok {
		t.Error("Get lost live registration")
	}
}

func TestStoreRefreshReplaces(t *testing.T) {
	s := NewStore()
	s.Register(reg("service:clock", "service:clock://a", nil, AttrList{{Name: "v", Values: []string{"1"}}}, time.Minute))
	s.Register(reg("service:clock", "service:clock://a", nil, AttrList{{Name: "v", Values: []string{"2"}}}, time.Minute))
	if got := s.Lookup("", nil, nil, time.Now()); len(got) != 1 {
		t.Fatalf("%d registrations after refresh, want 1", len(got))
	}
	got, ok := s.Get("service:clock://a", time.Now())
	if !ok || got.Attrs.First("v") != "2" {
		t.Errorf("refresh did not replace attrs: %+v", got)
	}
}

func TestStoreTypes(t *testing.T) {
	s := NewStore()
	s.Register(reg("service:clock", "service:clock://a", nil, nil, time.Minute))
	s.Register(reg("service:clock", "service:clock://b", nil, nil, time.Minute))
	s.Register(reg("service:printer:lpr", "service:printer:lpr://c", nil, nil, time.Minute))
	types := s.Types(nil, time.Now())
	if len(types) != 2 || types[0] != "service:clock" || types[1] != "service:printer:lpr" {
		t.Errorf("Types = %v", types)
	}
}

func TestRegistrationLifetimeClamped(t *testing.T) {
	now := time.Now()
	r := Registration{Expires: now.Add(200000 * time.Second)}
	if got := r.Lifetime(now); got != 0xFFFF {
		t.Errorf("Lifetime = %d, want clamp to 65535", got)
	}
	r = Registration{Expires: now.Add(-time.Second)}
	if got := r.Lifetime(now); got != 0 {
		t.Errorf("expired Lifetime = %d, want 0", got)
	}
	r = Registration{Expires: now.Add(90 * time.Second)}
	if got := r.Lifetime(now); got < 89 || got > 90 {
		t.Errorf("Lifetime = %d, want ~90", got)
	}
}

func TestStoreIsolationFromCaller(t *testing.T) {
	s := NewStore()
	attrs := AttrList{{Name: "v", Values: []string{"1"}}}
	scopes := []string{"DEFAULT"}
	s.Register(reg("service:clock", "service:clock://a", scopes, attrs, time.Minute))
	attrs[0].Name = "mutated"
	scopes[0] = "MUTATED"
	got, _ := s.Get("service:clock://a", time.Now())
	if got.Attrs[0].Name != "v" || got.Scopes[0] != "DEFAULT" {
		t.Error("store shares memory with caller")
	}
}

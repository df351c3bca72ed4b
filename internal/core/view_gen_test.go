package core

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// scanStub adds the KindScanner extension to stubStorage, so the view
// consults the spilled set the way it does over the real store.
type scanStub struct {
	*stubStorage
	gen atomic.Uint64
}

func (s *scanStub) Spill(recs []ServiceRecord) error {
	defer s.gen.Add(1)
	return s.stubStorage.Spill(recs)
}

func (s *scanStub) ScanKind(kind string, now time.Time, fn func(ServiceRecord) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.recs {
		if r.Expires.After(now) && (kind == "" || strings.EqualFold(r.Kind, kind)) && !fn(r) {
			return
		}
	}
}

func (s *scanStub) SpillGeneration() uint64 { return s.gen.Load() }

func (s *scanStub) SpilledKind(origin SDP, url string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.recs[viewKey(origin, url)]
	return strings.ToLower(r.Kind), ok
}

// TestViewGenerationContract pins which counters each mutation path
// moves: Generation on every mutation, KindGeneration only for the
// kinds whose answer the mutation can change, and neither on eviction,
// which moves a record's residence but not the answer set. Every
// spelling of a kind reads the counter Put files it under.
func TestViewGenerationContract(t *testing.T) {
	kinds := []string{"printer", "clock", "scanner", "äpfel"}
	stripes := map[uint32]string{}
	for _, k := range kinds {
		s := kindHash(k) % kindGenStripes
		if other, ok := stripes[s]; ok {
			t.Fatalf("kinds %q and %q share counter stripe %d; pick other names", k, other, s)
		}
		stripes[s] = k
	}
	base := time.Now()
	rec := func(kind string, remote bool) ServiceRecord {
		return ServiceRecord{Origin: SDPSLP, Kind: kind, URL: "service:x://10.0.0.1",
			Expires: base.Add(time.Hour), OriginGW: "gw-b", Remote: remote}
	}
	spill := func(v *ServiceView, kind string) {
		v.Put(rec(kind, true))
		if v.EnforceBudget(base) != 1 {
			t.Fatal("set-up: the record did not spill")
		}
	}

	for _, tc := range []struct {
		name  string
		setup func(v *ServiceView)
		do    func(v *ServiceView)
		moves []string // kinds whose KindGeneration moves
		gen   bool     // whether Generation moves
	}{
		{"Put", nil, func(v *ServiceView) { v.Put(rec("printer", false)) },
			[]string{"printer"}, true},
		{"kind-changing Put",
			func(v *ServiceView) { v.Put(rec("printer", false)) },
			func(v *ServiceView) { v.Put(rec("Clock", false)) },
			[]string{"printer", "clock"}, true},
		{"Remove",
			func(v *ServiceView) { v.Put(rec("printer", false)) },
			func(v *ServiceView) { v.Remove(SDPSLP, "service:x://10.0.0.1") },
			[]string{"printer"}, true},
		{"Remove of a spilled record",
			func(v *ServiceView) { spill(v, "printer") },
			func(v *ServiceView) { v.Remove(SDPSLP, "service:x://10.0.0.1") },
			[]string{"printer"}, true},
		{"kind-changing Put of a spilled record",
			func(v *ServiceView) { spill(v, "printer") },
			func(v *ServiceView) { v.Put(rec("scanner", true)) },
			[]string{"printer", "scanner"}, true},
		{"expiry sweep",
			func(v *ServiceView) { v.Put(rec("printer", false)) },
			func(v *ServiceView) { v.Find("printer", base.Add(2*time.Hour)) },
			[]string{"printer"}, true},
		{"EnforceBudget eviction",
			func(v *ServiceView) { v.Put(rec("printer", true)) },
			func(v *ServiceView) {
				if v.EnforceBudget(base) != 1 {
					t.Fatal("the record did not spill")
				}
			},
			nil, false},
		{"Put of a non-ASCII upper-case kind", nil,
			func(v *ServiceView) { v.Put(rec("ÄPFEL", false)) },
			[]string{"äpfel"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewServiceView()
			v.AttachStorage(&scanStub{stubStorage: newStubStorage()}, 1)
			if tc.setup != nil {
				tc.setup(v)
			}
			gen := v.Generation()
			before := map[string]uint64{}
			for _, k := range kinds {
				before[k] = v.KindGeneration(k)
			}
			tc.do(v)
			if moved := v.Generation() != gen; moved != tc.gen {
				t.Errorf("Generation moved = %v, want %v", moved, tc.gen)
			}
			for _, k := range kinds {
				want := false
				for _, m := range tc.moves {
					want = want || m == k
				}
				if moved := v.KindGeneration(k) != before[k]; moved != want {
					t.Errorf("KindGeneration(%q) moved = %v, want %v", k, moved, want)
				}
				if up := strings.ToUpper(k); v.KindGeneration(up) != v.KindGeneration(k) {
					t.Errorf("KindGeneration(%q) != KindGeneration(%q)", up, k)
				}
			}
			if v.KindGeneration("") != v.Generation() {
				t.Error(`KindGeneration("") is not Generation()`)
			}
		})
	}
}

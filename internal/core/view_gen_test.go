package core

import (
	"strings"
	"testing"
	"time"
)

// TestViewGenerationContract pins which counters each mutation path
// moves: Generation on every mutation, and KindGeneration only for the
// kinds whose answer the mutation can change. Every spelling of a kind
// reads the counter Put files it under.
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
	rec := func(kind string) ServiceRecord {
		return ServiceRecord{Origin: SDPSLP, Kind: kind, URL: "service:x://10.0.0.1",
			Expires: base.Add(time.Hour)}
	}

	for _, tc := range []struct {
		name  string
		setup func(v *ServiceView)
		do    func(v *ServiceView)
		moves []string // kinds whose KindGeneration moves
	}{
		{"Put", nil, func(v *ServiceView) { v.Put(rec("printer")) },
			[]string{"printer"}},
		{"kind-changing Put",
			func(v *ServiceView) { v.Put(rec("printer")) },
			func(v *ServiceView) { v.Put(rec("Clock")) },
			[]string{"printer", "clock"}},
		{"Remove",
			func(v *ServiceView) { v.Put(rec("printer")) },
			func(v *ServiceView) { v.Remove(SDPSLP, "service:x://10.0.0.1") },
			[]string{"printer"}},
		{"expiry sweep",
			func(v *ServiceView) { v.Put(rec("printer")) },
			func(v *ServiceView) { v.Find("printer", base.Add(2*time.Hour)) },
			[]string{"printer"}},
		{"Put of a non-ASCII upper-case kind", nil,
			func(v *ServiceView) { v.Put(rec("ÄPFEL")) },
			[]string{"äpfel"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := NewServiceView()
			if tc.setup != nil {
				tc.setup(v)
			}
			gen := v.Generation()
			before := map[string]uint64{}
			for _, k := range kinds {
				before[k] = v.KindGeneration(k)
			}
			tc.do(v)
			if v.Generation() == gen {
				t.Error("Generation did not move")
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

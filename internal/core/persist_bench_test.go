package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"indiss/internal/viewstore"
)

// BenchmarkLargeViewBudget holds a million-record view to a 64MB memory
// budget: remote records past the budget spill to the log store and are
// served from disk on point lookups. The reported metrics are the
// artifact PERF.md records — the view's own footprint estimate, the
// process heap after a GC, and the spilled count — and the timed loop
// is the worst case left after eviction: point Gets that fall through
// to the cold tier.
func BenchmarkLargeViewBudget(b *testing.B) {
	const (
		n      = 1 << 20
		budget = 64 << 20
	)
	st, err := viewstore.Open(b.TempDir(), viewstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	v := NewServiceView()
	v.AttachStorage(storeAdapter{st: st}, budget)

	url := func(i int) string { return fmt.Sprintf("soap://10.%d.%d.%d:4004/s%d", i>>16&255, i>>8&255, i&255, i) }
	exp := time.Now().Add(24 * time.Hour)
	for i := 0; i < n; i++ {
		rec := ServiceRecord{
			Origin:   SDPUPnP,
			Kind:     "kind-" + fmt.Sprint(i%4096),
			URL:      url(i),
			Expires:  exp,
			OriginGW: "gw-far",
			Hops:     1,
			Remote:   true,
		}
		v.Put(rec)
		// Log it as a System's delta pump would: Spill only moves
		// records the log already holds.
		logged := toStoreRecord(&rec)
		if err := st.Put(&logged); err != nil {
			b.Fatal(err)
		}
		// Enforce as a deployed system's maintenance tick would, so the
		// hot tier never balloons far past the budget mid-load.
		if i%65536 == 65535 {
			v.EnforceBudget(time.Now())
		}
	}
	for v.MemUsage() > budget {
		if v.EnforceBudget(time.Now()) == 0 {
			b.Fatalf("EnforceBudget stalled at MemUsage=%d", v.MemUsage())
		}
	}
	if err := st.Flush(); err != nil {
		b.Fatal(err)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := (i * 2654435761) % n
		if _, ok := v.Get(SDPUPnP, url(idx)); !ok {
			b.Fatalf("record %d unreachable", idx)
		}
	}
	b.StopTimer()

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heap-MB")
	b.ReportMetric(float64(v.MemUsage())/(1<<20), "view-mem-MB")
	b.ReportMetric(float64(st.SpilledCount()), "spilled")
}

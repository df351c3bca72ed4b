package query

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"indiss/internal/core"
)

// answerSet lists an answer's records as sorted origin|url|kind.
func answerSet(t *testing.T, wire []byte) []string {
	t.Helper()
	var out []string
	for _, s := range decodeAnswer(t, wire)["services"].([]any) {
		m := s.(map[string]any)
		out = append(out, m["origin"].(string)+"|"+m["url"].(string)+"|"+m["kind"].(string))
	}
	slices.Sort(out)
	return out
}

// sharedCounterKinds finds two kinds whose KindGeneration counters
// coincide, by watching which counters a Put and Remove move.
func sharedCounterKinds(t *testing.T) (string, string) {
	t.Helper()
	v := core.NewServiceView()
	var seen []string
	for i := 0; i < 4096; i++ {
		kind := "k" + strconv.Itoa(i)
		before := make([]uint64, len(seen))
		for j, k := range seen {
			before[j] = v.KindGeneration(k)
		}
		v.Put(core.ServiceRecord{Origin: core.SDPSLP, Kind: kind, URL: "service:x://probe", Expires: time.Now().Add(time.Hour)})
		v.Remove(core.SDPSLP, "service:x://probe")
		for j, k := range seen {
			if v.KindGeneration(k) != before[j] {
				return k, kind
			}
		}
		seen = append(seen, kind)
	}
	t.Fatal("no two of 4096 kinds share a generation counter")
	return "", ""
}

// TestAnswerCacheMatchesFreshEngine is the cache's model test: a view
// driven through random Puts (kind changes included), Removes, expiry
// sweeps and clock advances. After every step each cached answer must
// list exactly what a fresh Engine lists. The kinds include two that
// share a counter stripe and a non-ASCII upper-case one, queried under
// other spellings. The memory-only run keeps the subtest name tiered=false
// it had beside the cold-tier run, which went with the cold tier.
func TestAnswerCacheMatchesFreshEngine(t *testing.T) {
	t.Run("tiered=false", func(t *testing.T) {
		shareA, shareB := sharedCounterKinds(t)
		putKinds := []string{shareA, shareB, "printer", "Printer", "ÄPFEL", "Äpfel"}
		queryKinds := []string{shareA, shareB, "printer", "PRINTER", "äpfel", "ÄPFEL", ""}
		rng := rand.New(rand.NewSource(1))
		view := core.NewServiceView()
		e := NewEngine(view, "gw")
		now := time.Now()
		url := func() string { return "service:x://10.0.0." + strconv.Itoa(rng.Intn(12)) }
		check := func(step int, what string) {
			t.Helper()
			for _, k := range queryKinds {
				cached, _, err := e.AppendAnswer(nil, k, "", now)
				if err != nil {
					t.Fatal(err)
				}
				fresh, _, _ := NewEngine(view, "gw").AppendAnswer(nil, k, "", now)
				if got, want := answerSet(t, cached), answerSet(t, fresh); !slices.Equal(got, want) {
					t.Fatalf("step %d (%s), kind %q: cached answer lists %v, a fresh engine %v", step, what, k, got, want)
				}
			}
		}
		for step := 0; step < 1000; step++ {
			switch op := rng.Intn(8); {
			case op < 4:
				r := core.ServiceRecord{Origin: core.SDPSLP, Kind: putKinds[rng.Intn(len(putKinds))], URL: url(),
					Expires: now.Add(time.Duration(1+rng.Intn(60)) * time.Minute),
					Remote:  rng.Intn(2) == 0, OriginGW: "gw-b"}
				view.Put(r)
				check(step, "put "+r.Kind+" "+r.URL)
			case op < 6:
				u := url()
				view.Remove(core.SDPSLP, u)
				check(step, "remove "+u)
			case op < 7:
				now = now.Add(time.Duration(1+rng.Intn(20)) * time.Minute)
			default:
				// Another reader, on a later clock, sweeps what it finds
				// expired out from under this one's answers.
				view.Find("", now.Add(time.Duration(rng.Intn(30))*time.Minute))
			}
			check(step, "settled")
		}
	})
}

// TestUnrelatedChurnKeepsAnswersCached: Puts and Removes on one kind
// leave every cached answer of 64 other kinds a hit.
func TestUnrelatedChurnKeepsAnswersCached(t *testing.T) {
	view := core.NewServiceView()
	now := time.Now()
	kinds := make([]string, 64)
	for i := range kinds {
		kinds[i] = "kind" + strconv.Itoa(i)
		view.Put(rec(kinds[i], "service:x://10.0.0.1/"+kinds[i], nil, time.Hour, now))
	}
	// The churned kind must not share a counter stripe with any of them.
	sharesCounter := func(kind string) bool {
		before := make([]uint64, len(kinds))
		for j, k := range kinds {
			before[j] = view.KindGeneration(k)
		}
		view.Put(rec(kind, "service:x://probe", nil, time.Hour, now))
		view.Remove(core.SDPSLP, "service:x://probe")
		for j, k := range kinds {
			if view.KindGeneration(k) != before[j] {
				return true
			}
		}
		return false
	}
	churn := "churn0"
	for i := 1; i < 100 && sharesCounter(churn); i++ {
		churn = "churn" + strconv.Itoa(i)
	}

	e := NewEngine(view, "gw")
	for _, k := range kinds {
		if _, _, err := e.AppendAnswer(nil, k, "", now); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 500; i++ {
		u := "service:x://10.0.1.1/" + strconv.Itoa(i)
		view.Put(rec(churn, u, nil, time.Hour, now))
		view.Remove(core.SDPSLP, u)
	}
	for _, k := range kinds {
		if _, hit, _ := e.AppendAnswer(nil, k, "", now); !hit {
			t.Errorf("churn on %q flushed the cached answer for %q", churn, k)
		}
	}
}

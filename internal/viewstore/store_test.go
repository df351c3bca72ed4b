package viewstore

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func ms(d time.Duration) int64 { return time.Now().Add(d).UnixMilli() }

func testRec(url string, ttl time.Duration) Record {
	return Record{
		Origin: "UPnP", Kind: "clock", URL: url,
		Location: "http://10.0.0.2:5431/desc.xml",
		Attrs:    map[string]string{"friendlyName": "clock"},
		Expires:  ms(ttl), OriginGW: "gw-a", Hops: 1, Remote: true,
	}
}

func openStore(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	st, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestWarmBootRoundTrip: puts, erases, graves and epochs all survive a
// close/reopen with append-order reconciliation — an erased record
// stays dead, a re-put after an erase is alive again.
func TestWarmBootRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	a := testRec("soap://10.0.1.2:4004", time.Hour)
	b := testRec("soap://10.0.1.3:4004", time.Hour)
	c := testRec("soap://10.0.1.4:4004", time.Hour)
	for _, r := range []Record{a, b, c} {
		if err := st.Put(&r); err != nil {
			t.Fatal(err)
		}
	}
	// b is withdrawn; c is withdrawn then re-registered.
	if err := st.Erase(b.Origin, b.URL); err != nil {
		t.Fatal(err)
	}
	if err := st.Erase(c.Origin, c.URL); err != nil {
		t.Fatal(err)
	}
	c2 := c
	c2.Hops = 2
	if err := st.Put(&c2); err != nil {
		t.Fatal(err)
	}
	st.PersistGrave(Grave{OriginGW: "gw-a", Origin: b.Origin, Kind: b.Kind,
		URL: b.URL, Epoch: 7, Expires: ms(time.Hour)})
	st.PersistEpoch(Key(a.Origin, a.URL), 41)
	st.PersistEpoch(Key(b.Origin, b.URL), 7)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir, Options{})
	rec := st2.Recovered()
	if len(rec.Records) != 2 {
		t.Fatalf("recovered %d records, want 2 (a and re-put c): %+v", len(rec.Records), rec.Records)
	}
	got := map[string]Record{}
	for _, r := range rec.Records {
		got[r.URL] = r
	}
	if _, ok := got[b.URL]; ok {
		t.Fatal("erased record resurrected on replay")
	}
	if r, ok := got[c.URL]; !ok || r.Hops != 2 {
		t.Fatalf("re-put record wrong: %+v", r)
	}
	if r, ok := got[a.URL]; !ok || r.Attrs["friendlyName"] != "clock" || !r.Remote {
		t.Fatalf("record fields lost: %+v", r)
	}
	if len(rec.Graves) != 1 || rec.Graves[0].Epoch != 7 {
		t.Fatalf("graves wrong: %+v", rec.Graves)
	}
	if rec.Epochs[Key(a.Origin, a.URL)] != 41 || rec.Epochs[Key(b.Origin, b.URL)] != 7 {
		t.Fatalf("epochs wrong: %+v", rec.Epochs)
	}
}

// TestWarmBootDropsExpired: a record whose lifetime lapsed while the
// process was down must not come back, and an expired grave is
// forgotten.
func TestWarmBootDropsExpired(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	short := testRec("soap://10.0.1.2:4004", 50*time.Millisecond)
	long := testRec("soap://10.0.1.3:4004", time.Hour)
	if err := st.Put(&short); err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&long); err != nil {
		t.Fatal(err)
	}
	st.PersistGrave(Grave{OriginGW: "gw-a", Origin: "UPnP", Kind: "k",
		URL: "soap://dead", Epoch: 3, Expires: ms(50 * time.Millisecond)})
	st.PersistEpoch(Key(short.Origin, short.URL), 5)
	st.Close()
	time.Sleep(80 * time.Millisecond)

	st2 := openStore(t, dir, Options{})
	rec := st2.Recovered()
	if len(rec.Records) != 1 || rec.Records[0].URL != long.URL {
		t.Fatalf("recovered %+v, want only the long-lived record", rec.Records)
	}
	if rec.DroppedExpired != 1 {
		t.Fatalf("DroppedExpired = %d, want 1", rec.DroppedExpired)
	}
	if len(rec.Graves) != 0 {
		t.Fatalf("expired grave survived: %+v", rec.Graves)
	}
	// The expired record's epoch pin is pruned with it.
	if _, ok := rec.Epochs[Key(short.Origin, short.URL)]; ok {
		t.Fatal("epoch pin for expired record survived pruning")
	}
}

// TestTornTailTruncated: garbage appended past the durable prefix — a
// torn final write — is cut away on open and everything before it
// survives.
func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{})
	keep := testRec("soap://10.0.1.2:4004", time.Hour)
	if err := st.Put(&keep); err != nil {
		t.Fatal(err)
	}
	st.Close()

	seg := filepath.Join(dir, segName(0))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-looking but torn entry: a huge length and some junk.
	f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 1, 2, 3})
	f.Close()

	st2 := openStore(t, dir, Options{})
	rec := st2.Recovered()
	if len(rec.Records) != 1 || rec.Records[0].URL != keep.URL {
		t.Fatalf("recovered %+v after torn tail", rec.Records)
	}
	if rec.TruncatedBytes == 0 {
		t.Fatal("torn tail not reported as truncated")
	}
	// New appends after the truncation must still replay cleanly.
	more := testRec("soap://10.0.1.9:4004", time.Hour)
	if err := st2.Put(&more); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3 := openStore(t, dir, Options{})
	if n := len(st3.Recovered().Records); n != 2 {
		t.Fatalf("recovered %d records after post-truncation append, want 2", n)
	}
}

// TestRotationAndCompaction: heavy overwrite traffic across tiny
// segments must compact — fewer files, same answers.
func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir, Options{SegmentBytes: 2048})
	rec := testRec("soap://10.0.1.2:4004", time.Hour)
	const puts = 400
	for i := 0; i < puts; i++ {
		rec.Attrs = map[string]string{"rev": string(rune('a' + i%26))}
		if err := st.Put(&rec); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.Stats().Segments; n < 3 {
		t.Fatalf("only %d segments after 400 overwrites of a 2KB target", n)
	}
	for i := 0; i < 64; i++ {
		if err := st.Maintain(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatal("no compaction ran despite overwrite garbage")
	}
	if stats.Segments > 3 {
		t.Fatalf("%d segments survive compaction", stats.Segments)
	}
	st.Close()
	st2 := openStore(t, dir, Options{SegmentBytes: 2048})
	got := st2.Recovered().Records
	if want := string(rune('a' + (puts-1)%26)); len(got) != 1 || got[0].Attrs["rev"] != want {
		t.Fatalf("recovered %+v after compaction, want the one record at rev %s", got, want)
	}
}

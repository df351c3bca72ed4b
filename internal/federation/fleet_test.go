package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"indiss/internal/core"
	"indiss/internal/netapi"
	"indiss/internal/simnet"
)

// This file covers the fleet-scale machinery: anti-entropy jitter,
// digest-only quiescence, refusal of older-version peers, and records
// too large to share a frame.

// TestJitterIntervalSpreadsRounds: jittered intervals stay inside the
// ±20% band and actually vary — a fleet whose gateways all fire
// anti-entropy in lockstep floods itself every round.
func TestJitterIntervalSpreadsRounds(t *testing.T) {
	const base = time.Second
	lo, hi := time.Duration(float64(base)*0.8), time.Duration(float64(base)*1.2)
	seen := make(map[time.Duration]bool)
	for i := 0; i < 1000; i++ {
		d := jitterInterval(base)
		if d < lo || d > hi {
			t.Fatalf("jitterInterval(%v) = %v, outside [%v, %v]", base, d, lo, hi)
		}
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("1000 draws produced %d distinct intervals; jitter is not jittering", len(seen))
	}
	if jitterInterval(0) != 0 {
		t.Fatal("zero base must stay zero, not jitter")
	}
}

// TestQuiescentAntiEntropyDigestOnly: once two endpoints converge,
// anti-entropy rounds cost digest frames only — no record re-sends, no
// diff requests. This is the headline saving over re-sending the view
// every round, asserted through the Stats counters.
func TestQuiescentAntiEntropyDigestOnly(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA, viewB := core.NewServiceView(), core.NewServiceView()
	for i := 0; i < 10; i++ {
		viewA.Put(localRec("clock"+itoa(i), "soap://10.0.1."+itoa(10+i)+":4004", time.Hour))
	}
	ea := endpoint(t, hosts[0], viewA, fastCfg("gw-a"))
	eb := endpoint(t, hosts[1], viewB, fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort}))

	waitFor(t, 5*time.Second, "initial sync", func() bool {
		return len(viewB.Find("", time.Now())) == 10
	})
	// Let in-flight repairs from the connect storm settle, then snapshot.
	time.Sleep(400 * time.Millisecond)
	before := ea.Stats()

	// Several anti-entropy rounds at quiescence.
	time.Sleep(500 * time.Millisecond)
	after := ea.Stats()

	if after.DigestSent <= before.DigestSent {
		t.Fatalf("no digests sent across quiescent rounds: before=%d after=%d",
			before.DigestSent, after.DigestSent)
	}
	if d := after.BatchEntriesSent - before.BatchEntriesSent; d != 0 {
		t.Fatalf("%d record entries re-sent at quiescence; digests should carry the rounds", d)
	}
	if d := after.DigestDiffSent - before.DigestDiffSent; d != 0 {
		t.Fatalf("%d diff requests at quiescence; matching digests must not trigger pulls", d)
	}
	if after.DigestHits <= before.DigestHits {
		t.Fatalf("quiescent digests produced no bucket hits: before=%d after=%d",
			before.DigestHits, after.DigestHits)
	}
	if after.QueueDrops != 0 || after.PeersShed != 0 {
		t.Fatalf("backpressure fired on an idle two-node link: drops=%d shed=%d",
			after.QueueDrops, after.PeersShed)
	}
	_ = eb
}

// v3Hello renders a HELLO in the version-3 shape: the version byte and
// gateway id, then the listen address and an (empty) peer sample.
func v3Hello(id, listenAddr string) []byte {
	dst, at := appendHeader(nil, FrameHello)
	dst = append(dst, 3)
	dst = appendString(dst, id)
	dst = appendString(dst, listenAddr)
	dst = binary.AppendUvarint(dst, 0)
	return finishFrame(dst, at)
}

// TestOlderVersionHelloRefused: a peer whose HELLO carries a version
// below 4 gets no session, whatever the HELLO's shape: version 2's
// (version and gateway id, the same fields v4 sends), version 3's
// (with a listen address and a peer sample after them), or version 3
// in the current shape. The endpoint answers with its own HELLO and
// hangs up; the peer is never registered, the BATCH it sends after its
// HELLO is never read or absorbed, and none of the endpoint's records
// reach it.
func TestOlderVersionHelloRefused(t *testing.T) {
	for _, tc := range []struct {
		name  string
		hello []byte
	}{
		{"v2-shape", AppendHello(nil, Hello{Version: 2, GatewayID: "gw-old"})},
		{"v3-shape", v3Hello("gw-old", "10.0.2.9:7741")},
		{"v3-in-v4-shape", AppendHello(nil, Hello{Version: 3, GatewayID: "gw-old"})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, hosts := fedNet(t, 2)
			viewA := core.NewServiceView()
			viewA.Put(localRec("clock", "soap://10.0.1.2:4004", time.Hour))
			ea := endpoint(t, hosts[0], viewA, fastCfg("gw-a"))

			st, err := hosts[1].DialTCP(ea.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			out := append([]byte(nil), tc.hello...)
			out = AppendBatch(out, []BatchEntry{{Announce: &Announce{
				OriginGW: "gw-old", Origin: string(core.SDPUPnP), Kind: "printer",
				URL: "soap://10.0.2.2:4004", TTL: 3_600_000, Epoch: 1,
			}}})
			if _, err := st.Write(out); err != nil {
				t.Fatal(err)
			}

			// The endpoint sends its HELLO, then hangs up: nothing a
			// session would carry follows.
			st.SetReadTimeout(5 * time.Second)
			if ft, _, err := ReadFrame(st, nil); err != nil || ft != FrameHello {
				t.Fatalf("first frame = %v, %v; want the endpoint's HELLO", ft, err)
			}
			if ft, _, err := ReadFrame(st, nil); err == nil {
				t.Fatalf("endpoint sent frame type %v after its HELLO; want a hang-up", ft)
			} else if errors.Is(err, netapi.ErrTimeout) {
				t.Fatal("endpoint kept the connection open after its HELLO")
			}

			stats := ea.Stats()
			if stats.Sessions != 0 {
				t.Fatalf("older peer registered: sessions=%d", stats.Sessions)
			}
			if stats.DigestSent != 0 || stats.BatchSent != 0 || stats.BatchRecv != 0 || stats.BatchEntriesRecv != 0 {
				t.Fatalf("records crossed a refused handshake: %+v", stats)
			}
			if _, ok := viewA.Get(core.SDPUPnP, "soap://10.0.2.2:4004"); ok {
				t.Fatal("the older peer's announce was absorbed")
			}
		})
	}
}

// bigRec is a local record whose n attributes each carry a key and a
// value at the maxWireString cap, about 8 KB of wire per attribute.
func bigRec(name string, n int) core.ServiceRecord {
	attrs := make(map[string]string, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%04d", i)
		attrs[key+strings.Repeat("k", maxWireString-len(key))] = strings.Repeat("v", maxWireString)
	}
	return core.ServiceRecord{
		Origin:  core.SDPUPnP,
		Kind:    name,
		URL:     "soap://10.0.1.2:4004/" + name,
		Attrs:   attrs,
		Expires: time.Now().Add(time.Hour),
	}
}

// TestOversizedRecordsTravelAlone: records too large to share a frame
// still cross the federation, each in a frame of its own, while a
// record too large for any frame is dropped and counted instead of
// poisoning the frames of its neighbours.
func TestOversizedRecordsTravelAlone(t *testing.T) {
	_, hosts := fedNet(t, 2)
	viewA, viewB := core.NewServiceView(), core.NewServiceView()
	// Two records of ~640 KB fit a frame alone, not together; the
	// ~1.6 MB giant fits no frame.
	fitting := []core.ServiceRecord{bigRec("large-a", 80), bigRec("large-b", 80)}
	giant := bigRec("giant", 200)
	for _, rec := range append(fitting, giant) {
		viewA.Put(rec)
	}
	ea := endpoint(t, hosts[0], viewA, fastCfg("gw-a"))
	endpoint(t, hosts[1], viewB, fastCfg("gw-b", simnet.Addr{IP: hosts[0].IP(), Port: DefaultPort}))

	// gw-b keeps lacking the giant, so every digest or diff request it
	// sends makes gw-a push its records again and drop the giant again:
	// wait for the fitting records and a second counted drop, checking
	// each poll that the giant never crossed.
	waitFor(t, 10*time.Second, "both fitting records at gw-b and two dropped pushes of the giant", func() bool {
		if _, ok := viewB.Get(giant.Origin, giant.URL); ok {
			t.Fatal("gw-b absorbed a record larger than any frame")
		}
		for _, rec := range fitting {
			got, ok := viewB.Get(rec.Origin, rec.URL)
			if !ok || len(got.Attrs) != len(rec.Attrs) {
				return false
			}
		}
		return ea.Stats().QueueDrops >= 2
	})
}

package federation

import (
	"bytes"
	"testing"
)

// FuzzParseFrame feeds raw bytes through the frame header and the
// HELLO parser: neither may panic, the header never admits a retired
// frame type, and a HELLO that parses must re-marshal into a payload
// that parses back to the same value.
func FuzzParseFrame(f *testing.F) {
	f.Add(AppendHello(nil, Hello{Version: Version, GatewayID: "gw"}))
	f.Add(AppendHello(nil, Hello{Version: Version + 1, GatewayID: "gw"}))
	// v3 ANNOUNCE and WITHDRAW headers, types 2 and 3: retired in v4.
	f.Add([]byte{'I', 'F', 2, 0, 0, 0, 4, 1, 2, 3, 4})
	f.Add([]byte{'I', 'F', 3, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, n, err := ParseFrameHeader(data)
		if err != nil {
			return
		}
		if n > len(data)-frameHeaderLen {
			n = len(data) - frameHeaderLen
		}
		payload := data[frameHeaderLen : frameHeaderLen+n]
		switch ft {
		case 2, 3:
			t.Fatalf("header admitted retired frame type %d", ft)
		case FrameHello:
			h, err := ParseHello(payload)
			if err != nil {
				return
			}
			again, err := ParseHello(AppendHello(nil, h)[frameHeaderLen:])
			if err != nil || again != h {
				t.Fatalf("hello remarshal mismatch: %+v vs %+v (%v)", h, again, err)
			}
		}
		// Reading from a stream must agree with the direct parse.
		if _, _, err := ReadFrame(bytes.NewReader(data), nil); err != nil {
			_ = err // short payloads are fine; no panic is the contract
		}
	})
}

// FuzzParseBatchDigest exercises the batch/digest codec: BATCH, DIGEST
// and DIGEST-DIFF payloads must never panic, and any payload that
// parses must survive a remarshal round trip value-for-value.
func FuzzParseBatchDigest(f *testing.F) {
	a := Announce{OriginGW: "gw", Hops: 1, Origin: "UPnP", Kind: "clock",
		URL: "soap://10.0.1.2:4004", TTL: 60000, Epoch: 7,
		Attrs: map[string]string{"friendlyName": "clock"}}
	w := Withdraw{OriginGW: "gw", Origin: "SLP", Kind: "k", URL: "u", TTL: 500, Epoch: 9}
	f.Add(AppendBatch(nil, []BatchEntry{{Announce: &a}, {Withdraw: &w}}))
	f.Add(AppendDigest(nil, Digest{
		Origins: []OriginSummary{{OriginGW: "gw", LiveCount: 3, LiveHash: 0xdead,
			MaxEpoch: 42, GraveCount: 1, GraveHash: 0xbeef}},
	}))
	f.Add(AppendDigestDiff(nil, DigestDiff{Origins: []string{"gw", "gw2"}}))
	f.Add([]byte{'I', 'F', byte(FrameBatch), 0, 0, 0, 1, 0})
	f.Add([]byte{'I', 'F', byte(FrameDigest), 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		ft, n, err := ParseFrameHeader(data)
		if err != nil {
			return
		}
		if n > len(data)-frameHeaderLen {
			n = len(data) - frameHeaderLen
		}
		payload := data[frameHeaderLen : frameHeaderLen+n]
		switch ft {
		case FrameBatch:
			entries, err := ParseBatch(payload)
			if err != nil {
				return
			}
			again, err := ParseBatch(AppendBatch(nil, entries)[frameHeaderLen:])
			if err != nil || len(again) != len(entries) {
				t.Fatalf("batch remarshal: %d entries -> %d (%v)", len(entries), len(again), err)
			}
			for i := range entries {
				if (entries[i].Announce == nil) != (again[i].Announce == nil) ||
					(entries[i].Withdraw == nil) != (again[i].Withdraw == nil) {
					t.Fatalf("entry %d changed kind across remarshal", i)
				}
				if a1, a2 := entries[i].Announce, again[i].Announce; a1 != nil &&
					(a1.URL != a2.URL || a1.OriginGW != a2.OriginGW ||
						a1.Epoch != a2.Epoch || len(a1.Attrs) != len(a2.Attrs)) {
					t.Fatalf("entry %d announce mismatch: %+v vs %+v", i, a1, a2)
				}
				if w1, w2 := entries[i].Withdraw, again[i].Withdraw; w1 != nil && *w1 != *w2 {
					t.Fatalf("entry %d withdraw mismatch: %+v vs %+v", i, w1, w2)
				}
			}
		case FrameDigest:
			d, err := ParseDigest(payload)
			if err != nil {
				return
			}
			again, err := ParseDigest(AppendDigest(nil, d)[frameHeaderLen:])
			if err != nil || len(again.Origins) != len(d.Origins) {
				t.Fatalf("digest remarshal mismatch: %+v vs %+v (%v)", d, again, err)
			}
			for i := range d.Origins {
				if again.Origins[i] != d.Origins[i] {
					t.Fatalf("origin %d mismatch: %+v vs %+v", i, d.Origins[i], again.Origins[i])
				}
			}
		case FrameDigestDiff:
			d, err := ParseDigestDiff(payload)
			if err != nil {
				return
			}
			again, err := ParseDigestDiff(AppendDigestDiff(nil, d)[frameHeaderLen:])
			if err != nil || len(again.Origins) != len(d.Origins) {
				t.Fatalf("diff remarshal mismatch: %+v vs %+v (%v)", d, again, err)
			}
			for i := range d.Origins {
				if again.Origins[i] != d.Origins[i] {
					t.Fatalf("diff origin %d mismatch: %q vs %q", i, d.Origins[i], again.Origins[i])
				}
			}
		}
	})
}

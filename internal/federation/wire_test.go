package federation

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, GatewayID: "gw-a"}
	frame := AppendHello(nil, in)
	ft, n, err := ParseFrameHeader(frame)
	if err != nil || ft != FrameHello || n != len(frame)-frameHeaderLen {
		t.Fatalf("header: %v %v %v", ft, n, err)
	}
	h, err := ParseHello(frame[frameHeaderLen:])
	if err != nil || !reflect.DeepEqual(h, in) {
		t.Fatalf("hello = %+v, %v", h, err)
	}
}

// batchOfOne round-trips one delta through a BATCH frame, the form
// every announce and withdraw takes on the wire.
func batchOfOne(t *testing.T, in BatchEntry) BatchEntry {
	t.Helper()
	frame := AppendBatch(nil, []BatchEntry{in})
	ft, n, err := ParseFrameHeader(frame)
	if err != nil || ft != FrameBatch || n != len(frame)-frameHeaderLen {
		t.Fatalf("header: %v %v %v", ft, n, err)
	}
	out, err := ParseBatch(frame[frameHeaderLen:])
	if err != nil || len(out) != 1 {
		t.Fatalf("batch = %+v, %v", out, err)
	}
	return out[0]
}

func TestAnnounceRoundTrip(t *testing.T) {
	in := Announce{
		OriginGW: "gw-c",
		Hops:     3,
		Origin:   "UPnP",
		Kind:     "clock",
		URL:      "soap://10.0.3.2:4004/control",
		Location: "http://10.0.3.2:4004/description.xml",
		TTL:      1_800_000,
		Epoch:    42,
		Attrs:    map[string]string{"friendlyName": "Clock", "usn": "uuid:x"},
	}
	out := batchOfOne(t, BatchEntry{Announce: &in})
	if out.Withdraw != nil || out.Announce == nil || !reflect.DeepEqual(in, *out.Announce) {
		t.Fatalf("roundtrip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestAnnounceEmptyAttrs(t *testing.T) {
	in := Announce{OriginGW: "g", Origin: "SLP", Kind: "k", URL: "u", TTL: 1}
	out := batchOfOne(t, BatchEntry{Announce: &in})
	if out.Announce == nil || out.Announce.URL != "u" || len(out.Announce.Attrs) != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestWithdrawRoundTrip(t *testing.T) {
	in := Withdraw{OriginGW: "gw-a", Hops: 1, Origin: "SLP", Kind: "printer", URL: "service:printer://x", TTL: 500, Epoch: 9}
	out := batchOfOne(t, BatchEntry{Withdraw: &in})
	if out.Announce != nil || out.Withdraw == nil || *out.Withdraw != in {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", in, out)
	}
}

func TestReadFrameSequence(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, Hello{Version: Version, GatewayID: "a"})
	stream = AppendBatch(stream, []BatchEntry{
		{Announce: &Announce{OriginGW: "a", Origin: "SLP", Kind: "k", URL: "u", TTL: 5}},
		{Withdraw: &Withdraw{OriginGW: "a", Origin: "SLP", Kind: "k", URL: "v"}},
	})
	stream = AppendDigest(stream, Digest{Origins: []OriginSummary{{OriginGW: "a", LiveCount: 1}}})
	stream = AppendDigestDiff(stream, DigestDiff{Origins: []string{"a"}})

	r := bytes.NewReader(stream)
	var buf []byte
	want := []FrameType{FrameHello, FrameBatch, FrameDigest, FrameDigestDiff}
	for i, w := range want {
		ft, p, err := ReadFrame(r, buf)
		if err != nil || ft != w {
			t.Fatalf("frame %d: %v %v", i, ft, err)
		}
		buf = p
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{'X', 'F', 1, 0, 0, 0, 0},          // bad magic
		{'I', 'F', 2, 0, 0, 0, 0},          // retired ANNOUNCE (v3)
		{'I', 'F', 3, 0, 0, 0, 0},          // retired WITHDRAW (v3)
		{'I', 'F', 99, 0, 0, 0, 0},         // unknown type
		{'I', 'F', 4, 0xFF, 0xFF, 0xFF, 0}, // oversize payload
	}
	for i, c := range cases {
		if _, _, err := ParseFrameHeader(c); !errors.Is(err, ErrWire) {
			t.Errorf("case %d accepted: %v", i, err)
		}
	}
	if _, err := ParseHello([]byte{1}); err == nil {
		t.Error("truncated hello accepted")
	}
	if _, err := ParseBatch([]byte{1, batchOpAnnounce, 0, 0, 0}); err == nil {
		t.Error("truncated announce accepted")
	}
	if _, err := ParseBatch([]byte{1, batchOpWithdraw}); err == nil {
		t.Error("empty withdraw accepted")
	}
	// An announce without a URL is semantically invalid.
	noURL := Announce{OriginGW: "g", Origin: "SLP", Kind: "k", TTL: 1}
	if _, err := ParseBatch(AppendBatch(nil, []BatchEntry{{Announce: &noURL}})[frameHeaderLen:]); err == nil {
		t.Error("announce without URL accepted")
	}
	a := Announce{OriginGW: "g", Origin: "SLP", Kind: "k", URL: "u", TTL: 1}
	payload := AppendBatch(nil, []BatchEntry{{Announce: &a}})[frameHeaderLen:]
	if _, err := ParseBatch(append(payload, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// Package federation implements the gateway peering plane: INDISS
// gateways on different multicast segments exchange ServiceView deltas
// over unicast TCP, so a client on one segment discovers services bridged
// by a gateway several routed hops away — the scale-out the paper's §3
// gateway placement implies but never builds.
//
// A gateway peers exactly as configured: it dials its Peers and keeps
// them dialed, and it accepts whoever dials it. The protocol stays
// small: a version handshake (HELLO) that refuses peers older than
// Version, then BATCH frames carrying every announce and withdraw
// delta, and a jittered per-origin DIGEST each anti-entropy round. At
// quiescence a round costs one digest per link regardless of view size;
// records cross the wire only when a digest proves the peer missing or
// stale (the peer pushes, or answers a DIGEST-DIFF request). A directed
// withdraw-back repair, or a record too large to share a frame, travels
// as a BATCH of one entry.
//
// Loop safety in meshed peerings rests on the same guards at every
// hop: the originating gateway drops its own records coming back, a hop
// counter caps propagation radius, and a record is only accepted (and
// hence re-flooded) when it adds knowledge — a shorter path or a
// meaningfully extended lifetime. See DESIGN.md §7 and §10.
package federation

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Protocol constants.
const (
	// Version is the peering protocol version this build speaks, and
	// the oldest it accepts: a HELLO below it gets no session. A newer
	// peer is accepted and spoken to in this version.
	Version = 4

	// DefaultPort is the IANA-style default TCP port of the federation
	// endpoint.
	DefaultPort = 7741

	// frameHeaderLen is magic(2) + type(1) + payload length(4).
	frameHeaderLen = 7

	// MaxFramePayload bounds a frame's payload; larger frames poison
	// the connection and are refused at both ends.
	MaxFramePayload = 1 << 20

	// maxWireString bounds any single string field.
	maxWireString = 4096

	// maxWireAttrs bounds a record's attribute count.
	maxWireAttrs = 256

	// maxBatchEntries bounds the deltas one BATCH frame may carry.
	maxBatchEntries = 8192

	// maxDigestOrigins bounds the per-origin summaries in one DIGEST or
	// DIGEST-DIFF.
	maxDigestOrigins = 8192
)

// Frame magic bytes ("IF": INDISS Federation).
const (
	magic0 = 'I'
	magic1 = 'F'
)

// FrameType tags a frame.
type FrameType uint8

// Frame types. Types 2 and 3 were the standalone ANNOUNCE and WITHDRAW
// frames of protocol v3; they are retired, and ParseFrameHeader rejects
// them.
const (
	// FrameHello opens a session: version + gateway identity.
	FrameHello FrameType = 1
	// FrameBatch carries announce/withdraw deltas, one or many per
	// frame: one length-prefixed payload, one write, one read.
	FrameBatch FrameType = 4
	// FrameDigest carries a per-origin summary of the sender's view
	// (anti-entropy): the receiver pushes only what the digest proves
	// the sender is missing or holds stale.
	FrameDigest FrameType = 5
	// FrameDigestDiff requests full records for the listed origins:
	// sent when a digest names an origin the receiver lacks entirely or
	// disagrees about.
	FrameDigestDiff FrameType = 6
)

// ErrWire reports a malformed frame.
var ErrWire = errors.New("federation: malformed frame")

// Hello is the session-opening handshake.
type Hello struct {
	// Version is the sender's protocol version; a peer below Version is
	// refused.
	Version uint8
	// GatewayID is the sender's federation identity.
	GatewayID string
}

// Announce advertises one service record to a peer.
type Announce struct {
	// OriginGW is the gateway that first bridged the record into the
	// federation.
	OriginGW string
	// Hops is how many federation links the record crossed before this
	// send (0 when the sender is the origin gateway).
	Hops uint8
	// Origin is the SDP the service natively speaks.
	Origin string
	// Kind is the canonical service type.
	Kind string
	// URL is the service's native endpoint.
	URL string
	// Location is the description-document URL, when the SDP has one.
	Location string
	// TTL is the remaining record lifetime in milliseconds. Millisecond
	// granularity matters: the anti-entropy accept filter compares
	// re-derived expiry instants, and a coarser unit would make every
	// re-sync look like fresher knowledge and re-flood forever.
	TTL uint32
	// Epoch identifies the record *instance*: the origin gateway stamps
	// a strictly increasing value each time the record (re-)enters its
	// view after an absence, and every relay passes it through
	// unchanged. A withdrawal buries an epoch; an announce carrying a
	// greater one is a genuine re-registration no matter how its TTL
	// compares to the grave's. Zero means unknown.
	Epoch uint64
	// Attrs are the record's attributes.
	Attrs map[string]string
}

// Withdraw retracts one record. TTL (milliseconds) is the withdrawal's
// own remaining authority: the retracted record's outstanding lifetime,
// after which no cache anywhere can still hold a copy. Receivers keep a
// tombstone for at most that long, and relays re-send the *remaining*
// time — the absolute bound never grows, so withdrawal gossip cannot
// keep graves alive forever.
type Withdraw struct {
	OriginGW string
	Hops     uint8
	Origin   string
	Kind     string
	URL      string
	TTL      uint32
	// Epoch is the buried record instance (see Announce.Epoch): the
	// withdrawal retracts exactly this instance, and a later instance
	// of the same key sails past the grave. Zero means unknown.
	Epoch uint64
}

// Batch entry operation tags.
const (
	batchOpAnnounce = 1
	batchOpWithdraw = 2
)

// BatchEntry is one delta inside a BATCH frame. Exactly one of
// Announce/Withdraw is meaningful, selected by the op tag on the wire;
// entry order is preserved (the sender coalesces same-record updates,
// so order only matters across distinct records).
type BatchEntry struct {
	// Withdraw is set when the entry retracts a record.
	Withdraw *Withdraw
	// Announce is set when the entry inserts or refreshes a record.
	Announce *Announce
}

// OriginSummary is one origin gateway's bucket in a DIGEST: enough to
// prove two views agree about that origin's records without shipping
// them. The hashes are order-independent XORs of per-record FNV-1a-64
// over (key, epoch) — expiry is deliberately excluded, since TTLs are
// re-derived per hop and would never compare equal.
type OriginSummary struct {
	// OriginGW is the origin gateway the bucket summarizes.
	OriginGW string
	// LiveCount is how many live records from this origin the sender
	// holds.
	LiveCount uint64
	// LiveHash is the set hash over the live records.
	LiveHash uint64
	// MaxEpoch is the newest epoch seen from this origin, across live
	// records and graves.
	MaxEpoch uint64
	// GraveCount is how many unexpired tombstones for this origin the
	// sender holds.
	GraveCount uint64
	// GraveHash is the set hash over those tombstones.
	GraveHash uint64
}

// Digest is one anti-entropy round's summary: the sender's view rolled
// up per origin gateway.
type Digest struct {
	// Origins are the per-origin summaries, one per origin gateway the
	// sender knows (live records or graves).
	Origins []OriginSummary
}

// DigestDiff asks the peer for full records of the listed origins —
// sent when its digest names origins the sender lacks or disagrees
// about and the peer is the one holding the knowledge.
type DigestDiff struct {
	// Origins are the origin gateways whose records are requested.
	Origins []string
}

// --- marshalling (AppendTo style: whole frames appended to dst) ---

// appendHeader reserves a frame header, returning dst and the offset of
// the 4-byte length slot to be patched by finishFrame.
func appendHeader(dst []byte, t FrameType) ([]byte, int) {
	dst = append(dst, magic0, magic1, byte(t), 0, 0, 0, 0)
	return dst, len(dst) - 4
}

func finishFrame(dst []byte, lenAt int) []byte {
	binary.BigEndian.PutUint32(dst[lenAt:lenAt+4], uint32(len(dst)-lenAt-4))
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendHello appends a HELLO frame to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst, at := appendHeader(dst, FrameHello)
	dst = append(dst, h.Version)
	dst = appendString(dst, h.GatewayID)
	return finishFrame(dst, at)
}

// appendAnnounceBody appends an announce's fields to a BATCH entry.
// Attribute order on the wire follows map iteration; receivers rebuild
// a map, so the encoding stays deterministic in meaning if not in
// bytes.
func appendAnnounceBody(dst []byte, a *Announce) []byte {
	dst = appendString(dst, a.OriginGW)
	dst = append(dst, a.Hops)
	dst = appendString(dst, a.Origin)
	dst = appendString(dst, a.Kind)
	dst = appendString(dst, a.URL)
	dst = appendString(dst, a.Location)
	dst = binary.BigEndian.AppendUint32(dst, a.TTL)
	dst = binary.AppendUvarint(dst, a.Epoch)
	dst = binary.AppendUvarint(dst, uint64(len(a.Attrs)))
	for k, v := range a.Attrs {
		dst = appendString(dst, k)
		dst = appendString(dst, v)
	}
	return dst
}

// appendWithdrawBody appends a withdraw's fields to a BATCH entry.
func appendWithdrawBody(dst []byte, w *Withdraw) []byte {
	dst = appendString(dst, w.OriginGW)
	dst = append(dst, w.Hops)
	dst = appendString(dst, w.Origin)
	dst = appendString(dst, w.Kind)
	dst = appendString(dst, w.URL)
	dst = binary.BigEndian.AppendUint32(dst, w.TTL)
	dst = binary.AppendUvarint(dst, w.Epoch)
	return dst
}

// AppendBatch appends a BATCH frame carrying the entries to dst.
// Callers keep batches under maxBatchEntries and MaxFramePayload; the
// endpoint's flush loop splits larger backlogs across frames.
func AppendBatch(dst []byte, entries []BatchEntry) []byte {
	dst, at := appendHeader(dst, FrameBatch)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		switch e := &entries[i]; {
		case e.Announce != nil:
			dst = append(dst, batchOpAnnounce)
			dst = appendAnnounceBody(dst, e.Announce)
		case e.Withdraw != nil:
			dst = append(dst, batchOpWithdraw)
			dst = appendWithdrawBody(dst, e.Withdraw)
		}
	}
	return finishFrame(dst, at)
}

// AppendDigest appends a DIGEST frame to dst.
func AppendDigest(dst []byte, d Digest) []byte {
	dst, at := appendHeader(dst, FrameDigest)
	dst = binary.AppendUvarint(dst, uint64(len(d.Origins)))
	for _, o := range d.Origins {
		dst = appendString(dst, o.OriginGW)
		dst = binary.AppendUvarint(dst, o.LiveCount)
		dst = binary.BigEndian.AppendUint64(dst, o.LiveHash)
		dst = binary.AppendUvarint(dst, o.MaxEpoch)
		dst = binary.AppendUvarint(dst, o.GraveCount)
		dst = binary.BigEndian.AppendUint64(dst, o.GraveHash)
	}
	return finishFrame(dst, at)
}

// AppendDigestDiff appends a DIGEST-DIFF frame to dst.
func AppendDigestDiff(dst []byte, d DigestDiff) []byte {
	dst, at := appendHeader(dst, FrameDigestDiff)
	dst = binary.AppendUvarint(dst, uint64(len(d.Origins)))
	for _, o := range d.Origins {
		dst = appendString(dst, o)
	}
	return finishFrame(dst, at)
}

// --- parsing ---

// reader walks a payload with bounds checking.
type reader struct {
	b   []byte
	pos int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrWire
	}
}

func (r *reader) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *reader) uint32() uint32 {
	if r.err != nil || r.pos+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.pos:])
	r.pos += 4
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil || r.pos+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.pos:])
	r.pos += 8
	return v
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *reader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxWireString || r.pos+int(n) > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrWire, len(r.b)-r.pos)
	}
	return nil
}

// ParseHello decodes a HELLO payload. Trailing bytes are tolerated only
// from versions newer than this build, so a future version can extend
// HELLO without breaking the handshake. ParseHello decodes any version
// byte; refusing an older peer is the session's call.
func ParseHello(payload []byte) (Hello, error) {
	r := &reader{b: payload}
	h := Hello{Version: r.byte(), GatewayID: r.string()}
	if h.Version > Version {
		if r.err != nil {
			return Hello{}, r.err
		}
	} else if err := r.done(); err != nil {
		return Hello{}, err
	}
	if h.GatewayID == "" {
		return Hello{}, fmt.Errorf("%w: empty gateway id", ErrWire)
	}
	return h, nil
}

// parseAnnounceBody decodes a BATCH entry's announce fields from r.
func parseAnnounceBody(r *reader) (Announce, error) {
	a := Announce{OriginGW: r.string()}
	a.Hops = r.byte()
	a.Origin = r.string()
	a.Kind = r.string()
	a.URL = r.string()
	a.Location = r.string()
	a.TTL = r.uint32()
	a.Epoch = r.uvarint()
	n := r.uvarint()
	if r.err == nil && n > maxWireAttrs {
		return Announce{}, fmt.Errorf("%w: %d attributes", ErrWire, n)
	}
	if r.err == nil && n > 0 {
		a.Attrs = make(map[string]string, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			k := r.string()
			v := r.string()
			if r.err == nil {
				a.Attrs[k] = v
			}
		}
	}
	if r.err != nil {
		return Announce{}, r.err
	}
	if a.URL == "" {
		return Announce{}, fmt.Errorf("%w: announce without URL", ErrWire)
	}
	return a, nil
}

// parseWithdrawBody decodes a BATCH entry's withdraw fields from r.
func parseWithdrawBody(r *reader) (Withdraw, error) {
	w := Withdraw{OriginGW: r.string()}
	w.Hops = r.byte()
	w.Origin = r.string()
	w.Kind = r.string()
	w.URL = r.string()
	w.TTL = r.uint32()
	w.Epoch = r.uvarint()
	if r.err != nil {
		return Withdraw{}, r.err
	}
	if w.URL == "" {
		return Withdraw{}, fmt.Errorf("%w: withdraw without URL", ErrWire)
	}
	return w, nil
}

// ParseBatch decodes a BATCH payload into its entries.
func ParseBatch(payload []byte) ([]BatchEntry, error) {
	r := &reader{b: payload}
	n := r.uvarint()
	if r.err == nil && n > maxBatchEntries {
		return nil, fmt.Errorf("%w: %d batch entries", ErrWire, n)
	}
	var entries []BatchEntry
	if r.err == nil && n > 0 {
		entries = make([]BatchEntry, 0, min(n, 256))
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		switch op := r.byte(); op {
		case batchOpAnnounce:
			a, err := parseAnnounceBody(r)
			if err != nil {
				return nil, err
			}
			entries = append(entries, BatchEntry{Announce: &a})
		case batchOpWithdraw:
			w, err := parseWithdrawBody(r)
			if err != nil {
				return nil, err
			}
			entries = append(entries, BatchEntry{Withdraw: &w})
		default:
			if r.err == nil {
				return nil, fmt.Errorf("%w: batch op %d", ErrWire, op)
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return entries, nil
}

// ParseDigest decodes a DIGEST payload.
func ParseDigest(payload []byte) (Digest, error) {
	r := &reader{b: payload}
	n := r.uvarint()
	if r.err == nil && n > maxDigestOrigins {
		return Digest{}, fmt.Errorf("%w: %d digest origins", ErrWire, n)
	}
	var d Digest
	if r.err == nil && n > 0 {
		d.Origins = make([]OriginSummary, 0, min(n, 256))
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		o := OriginSummary{OriginGW: r.string()}
		o.LiveCount = r.uvarint()
		o.LiveHash = r.uint64()
		o.MaxEpoch = r.uvarint()
		o.GraveCount = r.uvarint()
		o.GraveHash = r.uint64()
		if r.err == nil {
			if o.OriginGW == "" {
				return Digest{}, fmt.Errorf("%w: empty digest origin", ErrWire)
			}
			d.Origins = append(d.Origins, o)
		}
	}
	if err := r.done(); err != nil {
		return Digest{}, err
	}
	return d, nil
}

// ParseDigestDiff decodes a DIGEST-DIFF payload.
func ParseDigestDiff(payload []byte) (DigestDiff, error) {
	r := &reader{b: payload}
	n := r.uvarint()
	if r.err == nil && n > maxDigestOrigins {
		return DigestDiff{}, fmt.Errorf("%w: %d diff origins", ErrWire, n)
	}
	var d DigestDiff
	if r.err == nil && n > 0 {
		d.Origins = make([]string, 0, min(n, 256))
	}
	for i := uint64(0); i < n && r.err == nil; i++ {
		o := r.string()
		if r.err == nil {
			if o == "" {
				return DigestDiff{}, fmt.Errorf("%w: empty diff origin", ErrWire)
			}
			d.Origins = append(d.Origins, o)
		}
	}
	if err := r.done(); err != nil {
		return DigestDiff{}, err
	}
	return d, nil
}

// ParseFrameHeader validates a frame header and returns its type and
// payload length.
func ParseFrameHeader(hdr []byte) (FrameType, int, error) {
	if len(hdr) < frameHeaderLen {
		return 0, 0, fmt.Errorf("%w: short header", ErrWire)
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return 0, 0, fmt.Errorf("%w: bad magic %x%x", ErrWire, hdr[0], hdr[1])
	}
	t := FrameType(hdr[2])
	if t != FrameHello && (t < FrameBatch || t > FrameDigestDiff) {
		return 0, 0, fmt.Errorf("%w: unknown frame type %d", ErrWire, hdr[2])
	}
	n := binary.BigEndian.Uint32(hdr[3:7])
	if n > MaxFramePayload {
		return 0, 0, fmt.Errorf("%w: payload %d exceeds cap", ErrWire, n)
	}
	return t, int(n), nil
}

// ReadFrame reads one frame from r, appending the payload into buf
// (reused across calls) and returning the frame type and payload slice.
func ReadFrame(r io.Reader, buf []byte) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	t, n, err := ParseFrameHeader(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return t, buf, nil
}

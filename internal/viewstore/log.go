// Package viewstore is the ServiceView's persistent log: a
// log-structured storage engine that makes the view survive a gateway
// restart.
//
// The design is deliberately boring — a Bitcask-shaped log, not a
// B-tree. Every mutation the view emits (record puts, expiries,
// withdrawals) and every piece of federation reconciliation state
// (record-instance epochs, tombstones) is appended to a checksummed
// segment file; an in-memory keydir maps each live key to its latest
// on-disk location. Warm boot is a sequential replay in append order:
// later entries supersede earlier ones, a grave or erase kills the
// record it follows, a record entry after a grave is a genuine
// re-registration, records whose lifetime lapsed while the process was
// down are dropped at the door. Sealed segments whose live fraction
// decays are folded into the active one and deleted.
//
// The package is a leaf: stdlib only, no core or federation imports.
// core adapts ServiceRecords to Record at the boundary; federation
// feeds epochs and graves through the Persistence hooks it defines.
package viewstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Log format constants.
const (
	// segMagic opens every segment file.
	segMagic = "IVSL"
	// segVersion is the current segment format version.
	segVersion = 1
	// segHeaderLen is magic(4) + version(1).
	segHeaderLen = 5
	// entryHeaderLen is crc32(4) + body length(4); the body is the kind
	// byte plus the payload.
	entryHeaderLen = 8
	// maxEntrySize bounds one entry's body. Larger lengths mark the
	// tail corrupt: a torn length field must not make replay try to
	// swallow gigabytes.
	maxEntrySize = 1 << 20
	// maxLogString bounds any single string field.
	maxLogString = 4096
	// maxLogAttrs bounds a record's attribute count.
	maxLogAttrs = 256
)

// Entry kinds.
const (
	// entryRecord is a full service record (insert or refresh).
	entryRecord = 1
	// entryErase removes a key: the record expired or was withdrawn.
	entryErase = 2
	// entryGrave is a federation tombstone: the buried record instance
	// (epoch) must not resurrect until the grave itself expires.
	entryGrave = 3
	// entryEpoch pins a key's record-instance epoch so a warm-booted
	// gateway's digests hash identically to its pre-crash ones.
	entryEpoch = 4
)

// ErrCorrupt reports a torn, truncated or bit-rotted log entry. Replay
// treats it as the end of the durable prefix, never as a fatal error.
var ErrCorrupt = errors.New("viewstore: corrupt log entry")

// Record is the persisted form of one service record. Times are unix
// milliseconds so the log is byte-stable across timezones and restarts.
type Record struct {
	// Origin is the SDP the service natively speaks.
	Origin string
	// Kind is the canonical service type.
	Kind string
	// URL is the service's native endpoint and half of its identity.
	URL string
	// Location is the description-document URL, when the SDP has one.
	Location string
	// Attrs are the record's attributes.
	Attrs map[string]string
	// Expires is the absolute expiry instant, unix milliseconds.
	Expires int64
	// OriginGW is the gateway that first bridged the record.
	OriginGW string
	// Hops is the federation path length at the time of persisting.
	Hops uint8
	// Remote marks records learned over the federation.
	Remote bool
}

// Grave is a persisted federation tombstone: the record instance that
// must stay dead until Expires.
type Grave struct {
	OriginGW string
	Origin   string
	Kind     string
	URL      string
	// Epoch is the buried record instance; a later epoch crosses the
	// grave.
	Epoch uint64
	// Expires is the grave's own expiry, unix milliseconds.
	Expires int64
}

// Key builds the store key for a record identity — the same
// origin-SDP|URL shape the view uses, so keys compare across layers.
func Key(origin, url string) string {
	return origin + "|" + url
}

// --- encoding (AppendTo style, shared with the wire codec's idiom) ---

func appendLogString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendEntry frames one body (kind byte already first) with its
// checksum and length.
func appendEntry(dst, body []byte) []byte {
	var hdr [entryHeaderLen]byte
	binary.BigEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(body))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(body)))
	dst = append(dst, hdr[:]...)
	return append(dst, body...)
}

// AppendRecord appends a record entry to dst.
func AppendRecord(dst []byte, rec *Record) []byte {
	body := make([]byte, 0, 64+len(rec.URL)+len(rec.Location)+16*len(rec.Attrs))
	body = append(body, entryRecord)
	body = appendLogString(body, rec.Origin)
	body = appendLogString(body, rec.Kind)
	body = appendLogString(body, rec.URL)
	body = appendLogString(body, rec.Location)
	body = binary.AppendUvarint(body, uint64(rec.Expires))
	body = appendLogString(body, rec.OriginGW)
	body = append(body, rec.Hops)
	if rec.Remote {
		body = append(body, 1)
	} else {
		body = append(body, 0)
	}
	body = binary.AppendUvarint(body, uint64(len(rec.Attrs)))
	for k, v := range rec.Attrs {
		body = appendLogString(body, k)
		body = appendLogString(body, v)
	}
	return appendEntry(dst, body)
}

// AppendErase appends an erase entry (expiry or withdrawal) to dst.
func AppendErase(dst []byte, origin, url string) []byte {
	body := make([]byte, 0, 16+len(origin)+len(url))
	body = append(body, entryErase)
	body = appendLogString(body, origin)
	body = appendLogString(body, url)
	return appendEntry(dst, body)
}

// AppendGrave appends a tombstone entry to dst.
func AppendGrave(dst []byte, g *Grave) []byte {
	body := make([]byte, 0, 48+len(g.URL))
	body = append(body, entryGrave)
	body = appendLogString(body, g.OriginGW)
	body = appendLogString(body, g.Origin)
	body = appendLogString(body, g.Kind)
	body = appendLogString(body, g.URL)
	body = binary.AppendUvarint(body, g.Epoch)
	body = binary.AppendUvarint(body, uint64(g.Expires))
	return appendEntry(dst, body)
}

// AppendEpoch appends an epoch-pin entry to dst.
func AppendEpoch(dst []byte, key string, epoch uint64) []byte {
	body := make([]byte, 0, 16+len(key))
	body = append(body, entryEpoch)
	body = appendLogString(body, key)
	body = binary.AppendUvarint(body, epoch)
	return appendEntry(dst, body)
}

// --- decoding ---

// logReader walks an entry body with bounds checking, mirroring the
// federation wire reader.
type logReader struct {
	b   []byte
	pos int
	err error
}

func (r *logReader) fail() {
	if r.err == nil {
		r.err = ErrCorrupt
	}
}

func (r *logReader) byte() byte {
	if r.err != nil || r.pos >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *logReader) uvarint() uint64 {
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

func (r *logReader) string() string {
	n := r.uvarint()
	if r.err != nil {
		return ""
	}
	if n > maxLogString || r.pos+int(n) > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s
}

func (r *logReader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.pos != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.b)-r.pos)
	}
	return nil
}

// parseRecord decodes a record entry body (kind byte already consumed).
func parseRecord(r *logReader) (Record, error) {
	rec := Record{Origin: r.string()}
	rec.Kind = r.string()
	rec.URL = r.string()
	rec.Location = r.string()
	rec.Expires = int64(r.uvarint())
	rec.OriginGW = r.string()
	rec.Hops = r.byte()
	rec.Remote = r.byte() != 0
	n := r.uvarint()
	if r.err == nil && n > maxLogAttrs {
		return Record{}, fmt.Errorf("%w: %d attributes", ErrCorrupt, n)
	}
	if r.err == nil && n > 0 {
		rec.Attrs = make(map[string]string, n)
		for i := uint64(0); i < n && r.err == nil; i++ {
			k := r.string()
			v := r.string()
			if r.err == nil {
				rec.Attrs[k] = v
			}
		}
	}
	if err := r.done(); err != nil {
		return Record{}, err
	}
	if rec.URL == "" {
		return Record{}, fmt.Errorf("%w: record without URL", ErrCorrupt)
	}
	return rec, nil
}

// parseGrave decodes a grave entry body.
func parseGrave(r *logReader) (Grave, error) {
	g := Grave{OriginGW: r.string()}
	g.Origin = r.string()
	g.Kind = r.string()
	g.URL = r.string()
	g.Epoch = r.uvarint()
	g.Expires = int64(r.uvarint())
	if err := r.done(); err != nil {
		return Grave{}, err
	}
	if g.URL == "" {
		return Grave{}, fmt.Errorf("%w: grave without URL", ErrCorrupt)
	}
	return g, nil
}

// entry is one decoded log entry; exactly one pointer is set, selected
// by kind.
type entry struct {
	kind  byte
	rec   *Record
	grave *Grave
	// erase fields.
	origin, url string
	// epoch fields.
	key   string
	epoch uint64
	// off/size locate the entry in its segment, header included.
	off  int64
	size int64
}

// decodeEntryBody decodes one framed body into an entry (offsets left
// to the caller).
func decodeEntryBody(body []byte) (entry, error) {
	if len(body) == 0 {
		return entry{}, fmt.Errorf("%w: empty body", ErrCorrupt)
	}
	r := &logReader{b: body, pos: 1}
	e := entry{kind: body[0]}
	switch body[0] {
	case entryRecord:
		rec, err := parseRecord(r)
		if err != nil {
			return entry{}, err
		}
		e.rec = &rec
	case entryErase:
		e.origin = r.string()
		e.url = r.string()
		if err := r.done(); err != nil {
			return entry{}, err
		}
		if e.url == "" {
			return entry{}, fmt.Errorf("%w: erase without URL", ErrCorrupt)
		}
	case entryGrave:
		g, err := parseGrave(r)
		if err != nil {
			return entry{}, err
		}
		e.grave = &g
	case entryEpoch:
		e.key = r.string()
		e.epoch = r.uvarint()
		if err := r.done(); err != nil {
			return entry{}, err
		}
		if e.key == "" {
			return entry{}, fmt.Errorf("%w: epoch without key", ErrCorrupt)
		}
	default:
		return entry{}, fmt.Errorf("%w: unknown entry kind %d", ErrCorrupt, body[0])
	}
	return e, nil
}

// ScanSegment walks one segment image, calling fn for each intact
// entry, and returns the length of the valid prefix. A bad header,
// torn tail, checksum mismatch or undecodable body ends the scan —
// everything before it is durable, everything after is discarded by
// the caller. fn's entry shares no memory with data except strings.
func ScanSegment(data []byte, fn func(e entry)) (valid int64, err error) {
	if len(data) < segHeaderLen || string(data[:4]) != segMagic || data[4] != segVersion {
		return 0, fmt.Errorf("%w: bad segment header", ErrCorrupt)
	}
	pos := int64(segHeaderLen)
	for {
		if pos+entryHeaderLen > int64(len(data)) {
			return pos, nil // clean end or torn header
		}
		crc := binary.BigEndian.Uint32(data[pos : pos+4])
		n := binary.BigEndian.Uint32(data[pos+4 : pos+8])
		if n == 0 || n > maxEntrySize || pos+entryHeaderLen+int64(n) > int64(len(data)) {
			return pos, nil // torn or insane length: truncate here
		}
		body := data[pos+entryHeaderLen : pos+entryHeaderLen+int64(n)]
		if crc32.ChecksumIEEE(body) != crc {
			return pos, nil // bit rot or torn write: truncate here
		}
		e, err := decodeEntryBody(body)
		if err != nil {
			return pos, nil // checksummed but undecodable: treat as tail
		}
		e.off = pos
		e.size = entryHeaderLen + int64(n)
		if fn != nil {
			fn(e)
		}
		pos += e.size
	}
}

package viewstore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Options tune a store. The zero value is usable.
type Options struct {
	// SegmentBytes seals the active segment once it grows past this
	// size. Default 4MB.
	SegmentBytes int64
	// CompactionGarbage is the dead-byte fraction past which a sealed
	// segment is folded into the active one. Default 0.5.
	CompactionGarbage float64
}

func (o *Options) segmentBytes() int64 {
	if o.SegmentBytes > 0 {
		return o.SegmentBytes
	}
	return 4 << 20
}

func (o *Options) compactionGarbage() float64 {
	if o.CompactionGarbage > 0 {
		return o.CompactionGarbage
	}
	return 0.5
}

// recLoc is one keydir slot: where the key's latest record entry lives
// and when it expires, so compaction keeps only live entries.
type recLoc struct {
	seg  uint32
	off  int64
	size int64
	// expires is the record's expiry, unix ms.
	expires int64
}

// segMeta tracks one segment's garbage ratio for compaction.
type segMeta struct {
	size    int64
	garbage int64
}

// Recovered summarizes a warm boot: what the replay found and what it
// discarded. Records/Graves/Epochs carry the reconciled state for the
// view and the federation endpoint to re-seed from.
type Recovered struct {
	// Records are the live, unexpired records in replay order.
	Records []Record
	// Graves are the unexpired tombstones.
	Graves []Grave
	// Epochs are the record-instance epochs for keys still live or
	// buried.
	Epochs map[string]uint64
	// Segments is how many segment files were replayed.
	Segments int
	// DroppedExpired counts records whose lifetime lapsed while the
	// process was down.
	DroppedExpired int
	// TruncatedBytes is how much torn or corrupt tail was cut away.
	TruncatedBytes int64
	// Elapsed is the replay wall time.
	Elapsed time.Duration
}

// storeCounters are the store's hot-path observability.
type storeCounters struct {
	appends      atomic.Uint64
	appendBytes  atomic.Uint64
	compactions  atomic.Uint64
	compactedIn  atomic.Uint64
	compactedOut atomic.Uint64
}

// Stats is a point-in-time snapshot of the store.
type Stats struct {
	// Segments is the current segment-file count, active included.
	Segments int
	// DiskBytes is the summed segment size on disk.
	DiskBytes int64
	// IndexKeys is the keydir size (every logged live key).
	IndexKeys int
	// Graves is the unexpired-tombstone count.
	Graves int
	// Epochs is the pinned-epoch count.
	Epochs int
	// Appends and AppendBytes count log writes since open.
	Appends, AppendBytes uint64
	// Compactions counts merge passes; CompactedIn/Out the bytes read
	// from dead segments and re-appended live.
	Compactions, CompactedIn, CompactedOut uint64
}

// String renders the snapshot in the compact form indiss-gw prints.
func (s Stats) String() string {
	return fmt.Sprintf(
		"viewstore: segments=%d disk-bytes=%d index-keys=%d graves=%d epochs=%d\n"+
			"  appends=%d append-bytes=%d compactions=%d compacted-in=%d compacted-out=%d",
		s.Segments, s.DiskBytes, s.IndexKeys, s.Graves, s.Epochs,
		s.Appends, s.AppendBytes, s.Compactions, s.CompactedIn, s.CompactedOut)
}

// Store is the view's append-only log and its keydir. All methods are
// safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu       sync.Mutex
	closed   bool
	active   *os.File
	bw       *bufio.Writer
	activeID uint32
	segs     map[uint32]*segMeta
	index    map[string]recLoc
	graves   map[string]Grave
	epochs   map[string]uint64

	recovered Recovered
	stats     storeCounters
	scratch   []byte
}

func segName(id uint32) string { return fmt.Sprintf("view-%08d.log", id) }

// Open opens (or creates) the store under dir and replays the log into
// the reconciled warm-boot state, truncating any torn tail. The
// returned Recovered snapshot is also kept on the store (Recovered()).
func Open(dir string, opt Options) (*Store, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("viewstore: %w", err)
	}
	st := &Store{
		dir:    dir,
		opt:    opt,
		segs:   make(map[uint32]*segMeta),
		index:  make(map[string]recLoc),
		graves: make(map[string]Grave),
		epochs: make(map[string]uint64),
	}

	names, err := filepath.Glob(filepath.Join(dir, "view-*.log"))
	if err != nil {
		return nil, fmt.Errorf("viewstore: %w", err)
	}
	sort.Strings(names)
	ids := make([]uint32, 0, len(names))
	for _, name := range names {
		var id uint32
		if _, err := fmt.Sscanf(filepath.Base(name), "view-%08d.log", &id); err != nil {
			continue
		}
		ids = append(ids, id)
	}

	// Replay in segment order; append order within a segment is the
	// reconciliation order (later entries supersede earlier ones).
	records := make(map[string]Record)
	for _, id := range ids {
		path := filepath.Join(dir, segName(id))
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("viewstore: replay %s: %w", path, err)
		}
		meta := &segMeta{}
		st.segs[id] = meta // registered up front so supersede accounting lands
		valid, err := ScanSegment(data, func(e entry) {
			switch e.kind {
			case entryRecord:
				key := Key(e.rec.Origin, e.rec.URL)
				if old, ok := st.index[key]; ok {
					st.addGarbage(old.seg, old.size)
				}
				st.index[key] = recLoc{seg: id, off: e.off, size: e.size, expires: e.rec.Expires}
				records[key] = *e.rec
			case entryErase:
				key := Key(e.origin, e.url)
				if old, ok := st.index[key]; ok {
					st.addGarbage(old.seg, old.size)
					delete(st.index, key)
					delete(records, key)
				}
				meta.garbage += e.size
			case entryGrave:
				key := Key(e.grave.Origin, e.grave.URL)
				st.graves[key] = *e.grave
				meta.garbage += e.size
			case entryEpoch:
				st.epochs[e.key] = e.epoch
				meta.garbage += e.size
			}
		})
		if err != nil {
			// Unreadable header: quarantine by renaming, start fresh past it.
			delete(st.segs, id)
			_ = os.Rename(path, path+".corrupt")
			continue
		}
		if valid < int64(len(data)) {
			st.recovered.TruncatedBytes += int64(len(data)) - valid
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("viewstore: truncate torn tail of %s: %w", path, err)
			}
		}
		meta.size = valid
		if id >= st.activeID {
			st.activeID = id
		}
		st.recovered.Segments++
	}

	// Reconcile: drop expired records and graves, prune epochs down to
	// keys that still matter.
	nowMs := time.Now().UnixMilli()
	for key, g := range st.graves {
		if g.Expires <= nowMs {
			delete(st.graves, key)
		}
	}
	for key, rec := range records {
		if _, ok := st.index[key]; !ok {
			continue
		}
		if rec.Expires <= nowMs {
			st.recovered.DroppedExpired++
			if loc, ok := st.index[key]; ok {
				st.addGarbage(loc.seg, loc.size)
			}
			delete(st.index, key)
			continue
		}
		st.recovered.Records = append(st.recovered.Records, rec)
	}
	for key := range st.epochs {
		_, live := st.index[key]
		_, buried := st.graves[key]
		if !live && !buried {
			delete(st.epochs, key)
		}
	}
	st.recovered.Graves = make([]Grave, 0, len(st.graves))
	for _, g := range st.graves {
		st.recovered.Graves = append(st.recovered.Graves, g)
	}
	st.recovered.Epochs = make(map[string]uint64, len(st.epochs))
	for k, v := range st.epochs {
		st.recovered.Epochs[k] = v
	}

	if err := st.openActive(); err != nil {
		return nil, err
	}
	st.recovered.Elapsed = time.Since(start)
	return st, nil
}

// openActive opens the highest-numbered segment for appending (or
// creates the first one), locked by the caller or at Open time.
func (st *Store) openActive() error {
	if len(st.segs) == 0 {
		return st.rotateLocked()
	}
	path := filepath.Join(st.dir, segName(st.activeID))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("viewstore: %w", err)
	}
	st.active = f
	st.bw = bufio.NewWriterSize(f, 64<<10)
	return nil
}

// rotateLocked seals the active segment and starts the next one.
func (st *Store) rotateLocked() error {
	if st.active != nil {
		if err := st.flushLocked(); err != nil {
			return err
		}
		_ = st.active.Sync()
		_ = st.active.Close()
		st.active = nil
		st.activeID++
	}
	path := filepath.Join(st.dir, segName(st.activeID))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("viewstore: %w", err)
	}
	if _, err := f.Write(append([]byte(segMagic), segVersion)); err != nil {
		f.Close()
		return fmt.Errorf("viewstore: %w", err)
	}
	st.active = f
	st.bw = bufio.NewWriterSize(f, 64<<10)
	st.segs[st.activeID] = &segMeta{size: segHeaderLen}
	return nil
}

func (st *Store) flushLocked() error {
	if st.bw == nil {
		return nil
	}
	if err := st.bw.Flush(); err != nil {
		return fmt.Errorf("viewstore: %w", err)
	}
	return nil
}

func (st *Store) addGarbage(seg uint32, n int64) {
	if m, ok := st.segs[seg]; ok {
		m.garbage += n
	}
}

// appendLocked writes one framed entry (already encoded into
// st.scratch by the caller) and returns its location.
func (st *Store) appendLocked(body []byte) (seg uint32, off int64, size int64, err error) {
	if st.closed {
		return 0, 0, 0, os.ErrClosed
	}
	meta := st.segs[st.activeID]
	if meta.size > st.opt.segmentBytes() {
		if err := st.rotateLocked(); err != nil {
			return 0, 0, 0, err
		}
		meta = st.segs[st.activeID]
	}
	off = meta.size
	if _, err := st.bw.Write(body); err != nil {
		return 0, 0, 0, fmt.Errorf("viewstore: %w", err)
	}
	n := int64(len(body))
	meta.size += n
	st.stats.appends.Add(1)
	st.stats.appendBytes.Add(uint64(n))
	return st.activeID, off, n, nil
}

// Put appends one record entry and points the keydir at it.
func (st *Store) Put(rec *Record) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	key := Key(rec.Origin, rec.URL)
	st.scratch = AppendRecord(st.scratch[:0], rec)
	seg, off, size, err := st.appendLocked(st.scratch)
	if err != nil {
		return err
	}
	if old, ok := st.index[key]; ok {
		st.addGarbage(old.seg, old.size)
	}
	st.index[key] = recLoc{seg: seg, off: off, size: size, expires: rec.Expires}
	return nil
}

// Erase appends an erase entry (expiry or withdrawal) and drops the
// key from the keydir.
func (st *Store) Erase(origin, url string) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return os.ErrClosed
	}
	key := Key(origin, url)
	st.scratch = AppendErase(st.scratch[:0], origin, url)
	_, _, size, err := st.appendLocked(st.scratch)
	if err != nil {
		return err
	}
	st.addGarbage(st.activeID, size)
	if old, ok := st.index[key]; ok {
		st.addGarbage(old.seg, old.size)
		delete(st.index, key)
	}
	return nil
}

// PersistGrave appends a tombstone entry. Part of the federation
// Persistence contract.
func (st *Store) PersistGrave(g Grave) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.scratch = AppendGrave(st.scratch[:0], &g)
	if _, _, size, err := st.appendLocked(st.scratch); err == nil {
		st.addGarbage(st.activeID, size)
	}
	st.graves[Key(g.Origin, g.URL)] = g
}

// PersistEpoch appends an epoch pin. Part of the federation
// Persistence contract.
func (st *Store) PersistEpoch(key string, epoch uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	if st.epochs[key] == epoch {
		return
	}
	st.scratch = AppendEpoch(st.scratch[:0], key, epoch)
	if _, _, size, err := st.appendLocked(st.scratch); err == nil {
		st.addGarbage(st.activeID, size)
	}
	st.epochs[key] = epoch
}

// Recovered returns the warm-boot snapshot taken at Open.
func (st *Store) Recovered() Recovered { return st.recovered }

// RecoveredEpochs returns the replayed epoch pins. Part of the
// federation Persistence contract.
func (st *Store) RecoveredEpochs() map[string]uint64 { return st.recovered.Epochs }

// RecoveredGraves returns the replayed unexpired tombstones. Part of
// the federation Persistence contract.
func (st *Store) RecoveredGraves() []Grave { return st.recovered.Graves }

// Flush pushes buffered appends to the OS.
func (st *Store) Flush() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	return st.flushLocked()
}

// Maintain runs one housekeeping pass: flush buffered writes, drop
// expired graves, and fold one garbage-heavy sealed segment into the
// active one. Called periodically by the owning
// System; cheap when there is nothing to do.
func (st *Store) Maintain(now time.Time) error {
	nowMs := now.UnixMilli()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	if err := st.flushLocked(); err != nil {
		return err
	}
	for key, g := range st.graves {
		if g.Expires <= nowMs {
			delete(st.graves, key)
		}
	}
	return st.compactOneLocked(nowMs)
}

// compactOneLocked rewrites the garbage-heaviest sealed segment's live
// entries into the active segment and deletes the file. One segment
// per pass keeps the pause bounded.
func (st *Store) compactOneLocked(nowMs int64) error {
	var victim uint32
	var found bool
	worst := st.opt.compactionGarbage()
	for id, meta := range st.segs {
		if id == st.activeID || meta.size <= segHeaderLen {
			continue
		}
		ratio := float64(meta.garbage) / float64(meta.size)
		if ratio > worst {
			worst, victim, found = ratio, id, true
		}
	}
	if !found {
		return nil
	}
	path := filepath.Join(st.dir, segName(victim))
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("viewstore: compact %s: %w", path, err)
	}
	st.stats.compactions.Add(1)
	st.stats.compactedIn.Add(uint64(len(data)))
	var moveErr error
	_, _ = ScanSegment(data, func(e entry) {
		if moveErr != nil {
			return
		}
		switch e.kind {
		case entryRecord:
			key := Key(e.rec.Origin, e.rec.URL)
			loc, ok := st.index[key]
			if !ok || loc.seg != victim || loc.off != e.off || loc.expires <= nowMs {
				return // superseded, erased or expired: drop
			}
			st.scratch = AppendRecord(st.scratch[:0], e.rec)
			seg, off, size, err := st.appendLocked(st.scratch)
			if err != nil {
				moveErr = err
				return
			}
			st.index[key] = recLoc{seg: seg, off: off, size: size, expires: loc.expires}
			st.stats.compactedOut.Add(uint64(size))
		case entryGrave:
			key := Key(e.grave.Origin, e.grave.URL)
			g, ok := st.graves[key]
			if !ok || g != *e.grave || g.Expires <= nowMs {
				return
			}
			st.scratch = AppendGrave(st.scratch[:0], e.grave)
			if _, _, size, err := st.appendLocked(st.scratch); err != nil {
				moveErr = err
			} else {
				st.addGarbage(st.activeID, size)
				st.stats.compactedOut.Add(uint64(size))
			}
		case entryEpoch:
			cur, ok := st.epochs[e.key]
			if !ok || cur != e.epoch {
				return
			}
			if _, live := st.index[e.key]; !live {
				if _, buried := st.graves[e.key]; !buried {
					return
				}
			}
			st.scratch = AppendEpoch(st.scratch[:0], e.key, e.epoch)
			if _, _, size, err := st.appendLocked(st.scratch); err != nil {
				moveErr = err
			} else {
				st.addGarbage(st.activeID, size)
				st.stats.compactedOut.Add(uint64(size))
			}
		}
	})
	if moveErr != nil {
		return moveErr
	}
	if err := st.flushLocked(); err != nil {
		return err
	}
	delete(st.segs, victim)
	if err := os.Remove(path); err != nil {
		return fmt.Errorf("viewstore: %w", err)
	}
	return nil
}

// Stats snapshots the store.
func (st *Store) Stats() Stats {
	st.mu.Lock()
	var disk int64
	for _, m := range st.segs {
		disk += m.size
	}
	s := Stats{
		Segments:  len(st.segs),
		DiskBytes: disk,
		IndexKeys: len(st.index),
		Graves:    len(st.graves),
		Epochs:    len(st.epochs),
	}
	st.mu.Unlock()
	s.Appends = st.stats.appends.Load()
	s.AppendBytes = st.stats.appendBytes.Load()
	s.Compactions = st.stats.compactions.Load()
	s.CompactedIn = st.stats.compactedIn.Load()
	s.CompactedOut = st.stats.compactedOut.Load()
	return s
}

// Close flushes, syncs and closes the log.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return nil
	}
	st.closed = true
	var first error
	if st.bw != nil {
		if err := st.bw.Flush(); err != nil && first == nil {
			first = err
		}
	}
	if st.active != nil {
		if err := st.active.Sync(); err != nil && first == nil {
			first = err
		}
		if err := st.active.Close(); err != nil && first == nil {
			first = err
		}
		st.active = nil
	}
	return first
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// String identifies the store in logs.
func (st *Store) String() string {
	return "viewstore(" + strings.TrimSuffix(st.dir, "/") + ")"
}

// Package core implements INDISS itself: the monitor component that
// detects service discovery protocols from raw multicast traffic (paper
// §2.1), the unit abstraction coupling a parser and a composer under a
// DFA (§2.2–2.3), the event bus composing units, the shared service view,
// the self-adaptive system that instantiates and composes units at run
// time (§3), and the configuration DSL of Figure 5a.
package core

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// SDP identifies a service discovery protocol.
type SDP string

// The SDPs of the paper's prototype and Figure 5 configuration, plus
// DNS-SD/mDNS (Zeroconf/Bonjour) — the post-paper protocol whose unit
// exercises the §2.2 claim that a new SDP costs exactly one new unit.
const (
	SDPSLP   SDP = "SLP"
	SDPUPnP  SDP = "UPnP"
	SDPJini  SDP = "JINI"
	SDPDNSSD SDP = "DNSSD"
)

// ScanPort is one entry of the monitor's static correspondence table:
// "any middleware based on IP support the monitor component, which simply
// maintains a static correspondence table between the IANA-registered
// permanent ports and their associated SDP" (paper §2.1).
type ScanPort struct {
	// Port is the IANA-registered UDP port.
	Port int
	// Groups are the multicast groups to join on that port.
	Groups []string
	// SDP is the protocol the (group, port) tag identifies.
	SDP SDP
}

// CorrespondenceTable maps ports to SDP identification tags.
type CorrespondenceTable struct {
	mu     sync.Mutex
	byPort map[int]ScanPort
}

// DefaultTable returns the correspondence table of the paper's prototype
// — SLP on 427 (plus the legacy 1846/1848 ports the paper's figures
// list), UPnP/SSDP on 1900, Jini on 4160 — extended with mDNS on 5353
// for the DNS-SD unit.
func DefaultTable() *CorrespondenceTable {
	t := NewTable()
	t.Add(ScanPort{Port: 427, Groups: []string{"239.255.255.253"}, SDP: SDPSLP})
	t.Add(ScanPort{Port: 1846, Groups: []string{"239.255.255.253"}, SDP: SDPSLP})
	t.Add(ScanPort{Port: 1848, Groups: []string{"239.255.255.253"}, SDP: SDPSLP})
	t.Add(ScanPort{Port: 1900, Groups: []string{"239.255.255.250"}, SDP: SDPUPnP})
	t.Add(ScanPort{Port: 4160, Groups: []string{"224.0.1.84", "224.0.1.85"}, SDP: SDPJini})
	t.Add(ScanPort{Port: 5353, Groups: []string{"224.0.0.251"}, SDP: SDPDNSSD})
	return t
}

// NewTable returns an empty correspondence table.
func NewTable() *CorrespondenceTable {
	return &CorrespondenceTable{byPort: make(map[int]ScanPort)}
}

// Add registers or replaces the entry for a port.
func (t *CorrespondenceTable) Add(entry ScanPort) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.byPort[entry.Port] = entry
}

// Lookup resolves a port to its SDP tag. Detection "only depends on which
// port raw data arrived" (paper §2.1) — no payload inspection.
func (t *CorrespondenceTable) Lookup(port int) (ScanPort, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	entry, ok := t.byPort[port]
	return entry, ok
}

// Ports returns the registered ports in ascending order.
func (t *CorrespondenceTable) Ports() []int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]int, 0, len(t.byPort))
	for p := range t.byPort {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Restrict returns a copy of the table containing only the given ports —
// how a Figure 5a "ScanPort = {…}" clause narrows the default table.
func (t *CorrespondenceTable) Restrict(ports []int) (*CorrespondenceTable, error) {
	out := NewTable()
	for _, p := range ports {
		entry, ok := t.Lookup(p)
		if !ok {
			return nil, fmt.Errorf("core: no SDP registered for port %d", p)
		}
		out.Add(entry)
	}
	return out, nil
}

// rateBuckets is how many slices a RateMeter cuts its window into: the
// rate moves in steps of window/rateBuckets (15.6 ms for a 1 s window).
const rateBuckets = 64

// RateMeter measures traffic rate over a sliding window, supporting the
// §4.2 adaptation policy ("a network traffic threshold below which INDISS
// … must become active"). It keeps a fixed ring of byte counts, one per
// window/rateBuckets tick counted on the monotonic clock from the meter's
// creation, so an observation costs O(1) and no allocation, and memory
// stays constant under any traffic.
type RateMeter struct {
	mu     sync.Mutex
	window time.Duration
	width  time.Duration // one tick
	epoch  time.Time
	ring   [rateBuckets]struct{ tick, bytes int64 }
	total  int64
}

// NewRateMeter creates a meter with the given sliding window.
func NewRateMeter(window time.Duration) *RateMeter {
	if window <= 0 {
		window = time.Second
	}
	return &RateMeter{window: window, width: max(window/rateBuckets, 1), epoch: time.Now()}
}

// tick numbers the window/rateBuckets slice at falls in, counted from
// the epoch. It floors, so an instant before the epoch gets a negative
// tick of its own instead of sharing tick 0.
func (m *RateMeter) tick(at time.Time) int64 {
	d := at.Sub(m.epoch)
	t := int64(d / m.width)
	if d%m.width < 0 {
		t--
	}
	return t
}

// Observe records size bytes at time now. A sample a whole window older
// than one the ring already holds in its slot counts toward Total only.
func (m *RateMeter) Observe(now time.Time, size int) {
	t := m.tick(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += int64(size)
	switch b := &m.ring[t&(rateBuckets-1)]; {
	case b.tick == t:
		b.bytes += int64(size)
	case b.tick < t || b.bytes == 0: // the slot is empty or a window behind
		b.tick, b.bytes = t, int64(size)
	}
}

// Rate returns the observed bytes/second over the window ending at now.
func (m *RateMeter) Rate(now time.Time) float64 {
	t := m.tick(now)
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum int64
	for _, b := range &m.ring {
		if b.tick > t-rateBuckets && b.tick <= t {
			sum += b.bytes
		}
	}
	return float64(sum) / m.window.Seconds()
}

// Total returns all bytes ever observed.
func (m *RateMeter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

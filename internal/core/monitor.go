package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/netapi"
)

// Detection is one raw message the monitor attributed to an SDP. The
// monitor does "no computation, data interpretation or data
// transformation" (paper §2.1): attribution rests solely on the arrival
// port, and the payload is forwarded untouched to the appropriate parser.
type Detection struct {
	// SDP is the detected protocol.
	SDP SDP
	// Port the data arrived on.
	Port int
	// Src is the sender.
	Src netapi.Addr
	// Dst is the address the data was sent to (a multicast group).
	Dst netapi.Addr
	// Data is the raw message, untouched.
	Data []byte
	// At is the arrival time.
	At time.Time
}

// DetectionHandler consumes detections, typically the System forwarding
// raw data to unit parsers (paper Figure 2, steps ① and ②).
type DetectionHandler func(Detection)

// Monitor passively scans the environment on the IANA-registered SDP
// multicast groups (paper §2.1, Figure 1). It binds shared multicast-only
// sockets, so native stacks on the same host are unaffected.
type Monitor struct {
	handler DetectionHandler
	epoch   time.Time
	// traffic holds one entry per SDP of the table, fixed at
	// construction: the scan loops record into it without a shared lock.
	traffic map[SDP]*sdpTraffic

	mu    sync.Mutex
	conns []netapi.PacketConn

	stop chan struct{}
	wg   sync.WaitGroup
}

// sdpTraffic is what the monitor knows of one SDP: its traffic rate over
// the last second, and when it was last seen.
type sdpTraffic struct {
	meter *RateMeter
	// last is the latest arrival in ns after the monitor's epoch, 0
	// until the first.
	last atomic.Int64
}

// MonitorConfig tunes a monitor.
type MonitorConfig struct {
	// Table is the port→SDP correspondence table; nil uses DefaultTable.
	Table *CorrespondenceTable
	// Handler receives every detection. Optional.
	Handler DetectionHandler
}

// NewMonitor starts scanning the table's ports on the given stack.
func NewMonitor(stack netapi.Stack, cfg MonitorConfig) (*Monitor, error) {
	table := cfg.Table
	if table == nil {
		table = DefaultTable()
	}
	m := &Monitor{
		handler: cfg.Handler,
		epoch:   time.Now(),
		traffic: make(map[SDP]*sdpTraffic),
		stop:    make(chan struct{}),
	}
	for _, port := range table.Ports() {
		entry, _ := table.Lookup(port)
		traffic := m.traffic[entry.SDP]
		if traffic == nil {
			traffic = &sdpTraffic{meter: NewRateMeter(time.Second)}
			m.traffic[entry.SDP] = traffic
		}
		conn, err := stack.ListenMulticastUDP(port)
		if err != nil {
			m.Close()
			return nil, fmt.Errorf("core monitor: port %d: %w", port, err)
		}
		for _, g := range entry.Groups {
			if err := conn.JoinGroup(g); err != nil {
				conn.Close()
				m.Close()
				return nil, fmt.Errorf("core monitor: join %s: %w", g, err)
			}
		}
		m.conns = append(m.conns, conn)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.scan(conn, entry, traffic)
		}()
	}
	return m, nil
}

// Close stops scanning.
func (m *Monitor) Close() {
	select {
	case <-m.stop:
		return
	default:
	}
	close(m.stop)
	m.mu.Lock()
	conns := m.conns
	m.conns = nil
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	m.wg.Wait()
}

// scan is the per-port loop: data arrival alone identifies the SDP.
func (m *Monitor) scan(conn netapi.PacketConn, entry ScanPort, traffic *sdpTraffic) {
	for {
		dg, err := conn.Recv(0)
		if err != nil {
			return
		}
		now := time.Now()
		traffic.meter.Observe(now, len(dg.Payload))
		traffic.last.Store(max(int64(now.Sub(m.epoch)), 1))
		if m.handler != nil {
			m.handler(Detection{
				SDP:  entry.SDP,
				Port: entry.Port,
				Src:  dg.Src,
				Dst:  dg.Dst,
				Data: dg.Payload,
				At:   now,
			})
		}
	}
}

// Detected returns the SDPs observed so far, with last-seen times.
func (m *Monitor) Detected() map[SDP]time.Time {
	out := make(map[SDP]time.Time)
	for sdp, traffic := range m.traffic {
		if last := traffic.last.Load(); last != 0 {
			out[sdp] = m.epoch.Add(time.Duration(last))
		}
	}
	return out
}

// Seen reports whether the SDP has been observed.
func (m *Monitor) Seen(sdp SDP) bool {
	traffic, ok := m.traffic[sdp]
	return ok && traffic.last.Load() != 0
}

// Rate returns the SDP's observed traffic rate in bytes/second.
func (m *Monitor) Rate(sdp SDP) float64 {
	traffic, ok := m.traffic[sdp]
	if !ok {
		return 0
	}
	return traffic.meter.Rate(time.Now())
}

// TotalRate sums the rates of every observed SDP — the "network traffic"
// input of the §4.2 threshold policy.
func (m *Monitor) TotalRate() float64 {
	now := time.Now()
	var sum float64
	for _, traffic := range m.traffic {
		sum += traffic.meter.Rate(now)
	}
	return sum
}

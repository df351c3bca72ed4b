package core

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/events"
	"indiss/internal/netapi"
	"indiss/internal/viewstore"
)

// Config defines one INDISS instance: "configuration of a INDISS instance
// is initially defined in terms of supported SDPs and the corresponding
// units that need be instantiated" (paper §3).
type Config struct {
	// Role is the deployment placement (client, service or gateway
	// side).
	Role Role
	// Table is the monitor's correspondence table; nil uses
	// DefaultTable.
	Table *CorrespondenceTable
	// Units lists the SDPs this instance may instantiate units for.
	// Empty means every SDP in the registry.
	Units []SDP
	// Dynamic delays unit instantiation until the monitor detects the
	// protocol — the run-time composition of paper Figure 5. When
	// false, all units start eagerly.
	Dynamic bool
	// ThresholdBps enables the §4.2 adaptation policy: on the service
	// side, when total observed traffic falls below the threshold,
	// units switch to active re-advertisement. Zero disables the
	// policy.
	ThresholdBps float64
	// PolicyInterval is how often the adaptation policy re-evaluates
	// (default 100ms).
	PolicyInterval time.Duration
	// Profile models INDISS's own translation cost.
	Profile TranslationProfile
	// NoCache disables view-cache answers (see UnitContext.NoCache).
	NoCache bool

	// DataDir, when non-empty, makes the service view persistent: the
	// system opens a log-structured store under the directory, replays
	// it into the view on start (warm boot), and mirrors every view
	// change back into it. Empty keeps the view memory-only.
	DataDir string

	// GatewayID names this instance in a gateway federation. Empty
	// defaults to the host name. Only meaningful with federation
	// enabled.
	GatewayID string
	// Federation builds the peering endpoint once the system is up. Nil
	// disables federation.
	Federation PlaneHook

	// Query builds the HTTP/JSON read plane once the system is up. Nil
	// disables the query plane.
	Query PlaneHook
}

// PlaneHook constructs one network plane — the federation peering
// endpoint or the HTTP/JSON query plane — for a running system. The
// hook indirection (set by the public indiss package) keeps core free of
// a dependency on the plane packages, which themselves import core for
// the view and records. Planes start after the monitor and units, in
// the order federation, query; System.Close shuts them down in reverse,
// before the monitor and units: in-flight reads drain against a view
// whose writers are still orderly, and no remote knowledge flows into
// (or out of) an instance whose units are stopping.
type PlaneHook func(*System) (io.Closer, error)

// Plane slots, in start order.
const (
	planeFederation = iota
	planeQuery
	numPlanes
)

var planeNames = [numPlanes]string{"federation", "query plane"}

// ErrSystemClosed reports use of a closed system.
var ErrSystemClosed = errors.New("core: system closed")

// Ingress lanes carry detections from the monitor to the units. Each
// detection goes to the lane its (SDP, source IP, source port) hashes to:
// a FIFO drained in arrival order by one long-lived goroutine. So one
// source's datagrams reach its unit in order, a source whose handler
// blocks (a UPnP alive's description fetch) or that floods holds up only
// its own lane, and the monitor's scan loops never wait on a handler.
const (
	// ingressLanes is the number of lanes, and so the most native
	// messages handled at once.
	ingressLanes = 64
	// laneDepth bounds a lane's backlog; a detection that finds its lane
	// full is dropped and counted (IngressDropped). It is the capacity of
	// a socket's receive queue (udpQueueCap in simnet and realnet), so a
	// lane holds any burst the monitor's socket could.
	laneDepth = 256
	// laneKeep is the largest buffer an idle lane keeps: one that grew
	// past it for a burst gives the memory back once drained.
	laneKeep = 64
)

// ingress is one queued detection and the unit it goes to.
type ingress struct {
	unit Unit
	det  Detection
}

// lane is one ordered ingress queue. It holds values in a buffer that
// grows with the backlog, so once the buffer has grown a handoff
// allocates nothing.
type lane struct {
	mu    sync.Mutex
	queue []ingress // queue[head:] waits, oldest first
	head  int
	idle  bool          // the drain goroutine waits on wake
	wake  chan struct{} // one slot; made when the goroutine starts
}

// System is a running INDISS instance: monitor + dynamically composed
// units around an event bus (paper Figure 5).
type System struct {
	stack    netapi.Stack
	registry *Registry
	cfg      Config

	bus     *events.Bus
	view    *ServiceView
	self    *SelfFilter
	monitor *Monitor

	store       *viewstore.Store
	storeCancel func()

	mu        sync.Mutex
	units     map[SDP]Unit
	allowed   map[SDP]struct{}
	closed    bool
	closeErr  error
	closeDone chan struct{}
	reAdv     bool
	planes    [numPlanes]io.Closer

	lanes   [ingressLanes]lane
	dropped atomic.Uint64

	// stop ends the policy loop and the lane goroutines; wg counts them
	// and the store pump.
	stop chan struct{}
	wg   sync.WaitGroup
}

// NewSystem starts an INDISS instance on the given network stack using
// units from the registry. The stack may be a *simnet.Host (simulated
// fabric) or a realnet stack (live sockets) — the system never knows the
// difference.
func NewSystem(stack netapi.Stack, registry *Registry, cfg Config) (*System, error) {
	if cfg.PolicyInterval <= 0 {
		cfg.PolicyInterval = 100 * time.Millisecond
	}
	allowed := cfg.Units
	if len(allowed) == 0 {
		allowed = registry.SDPs()
	}
	s := &System{
		stack:    stack,
		registry: registry,
		cfg:      cfg,
		bus:      events.NewBus(),
		view:     NewServiceView(),
		self:     NewSelfFilter(),
		units:    make(map[SDP]Unit),
		allowed:  make(map[SDP]struct{}, len(allowed)),
		stop:     make(chan struct{}),
	}
	for _, sdp := range allowed {
		s.allowed[sdp] = struct{}{}
	}

	if cfg.DataDir != "" {
		// Storage opens (and the warm boot replays) before the monitor
		// or any unit: the first native request already answers from
		// the recovered view.
		if err := s.openStorage(); err != nil {
			s.bus.Close()
			return nil, err
		}
	}

	monitor, err := NewMonitor(stack, MonitorConfig{
		Table:   cfg.Table,
		Handler: s.onDetection,
	})
	if err != nil {
		// A scan loop may have started a lane before the failing port.
		close(s.stop)
		if s.store != nil {
			s.storeCancel()
		}
		s.wg.Wait()
		if s.store != nil {
			s.store.Close()
		}
		s.bus.Close()
		return nil, err
	}
	s.monitor = monitor

	if !cfg.Dynamic {
		for _, sdp := range allowed {
			if _, err := s.ensureUnit(sdp); err != nil {
				s.Close()
				return nil, err
			}
		}
	}
	if cfg.ThresholdBps > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.policyLoop()
		}()
	}
	for i, hook := range [numPlanes]PlaneHook{cfg.Federation, cfg.Query} {
		if hook == nil {
			continue
		}
		p, err := hook(s)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("core: %s: %w", planeNames[i], err)
		}
		s.mu.Lock()
		s.planes[i] = p
		s.mu.Unlock()
	}
	return s, nil
}

// GatewayID returns this instance's federation identity: the configured
// GatewayID, defaulting to the host name.
func (s *System) GatewayID() string {
	if s.cfg.GatewayID != "" {
		return s.cfg.GatewayID
	}
	return s.stack.Name()
}

// Federation returns the running peering endpoint, or nil when
// federation is disabled. Callers needing more than io.Closer — the
// federation package's *Endpoint with its Stats() — type-assert the
// result; core itself stays free of that dependency.
func (s *System) Federation() io.Closer { return s.plane(planeFederation) }

// QueryPlane returns the running HTTP/JSON query server, or nil when
// the query plane is disabled. Callers needing more than io.Closer —
// the query package's *Server with its Addr() and Stats() —
// type-assert the result; core itself stays free of that dependency.
func (s *System) QueryPlane() io.Closer { return s.plane(planeQuery) }

func (s *System) plane(i int) io.Closer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.planes[i]
}

// Close stops the monitor, every unit and the bus. It is idempotent and
// safe to call concurrently: the first call runs the shutdown sequence
// exactly once and returns the first error any component reported;
// every later (or concurrent) call waits for that sequence to finish
// and returns the same error. Gateway binaries lean on this — a
// SIGTERM path and a deferred cleanup may both close the system, and
// only one shutdown may actually run.
func (s *System) Close() error {
	s.mu.Lock()
	if s.closed {
		done := s.closeDone
		s.mu.Unlock()
		<-done
		s.mu.Lock()
		err := s.closeErr
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.closeDone = make(chan struct{})
	defer close(s.closeDone)
	units := make([]Unit, 0, len(s.units))
	for _, u := range s.units {
		units = append(units, u)
	}
	s.units = make(map[SDP]Unit)
	planes := s.planes
	s.planes = [numPlanes]io.Closer{}
	s.mu.Unlock()

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	close(s.stop)
	// Planes go first, in reverse start order (see PlaneHook).
	for i := numPlanes - 1; i >= 0; i-- {
		if planes[i] != nil {
			keep(planes[i].Close())
		}
	}
	s.monitor.Close()
	for _, u := range units {
		u.Stop()
	}
	if s.storeCancel != nil {
		// Units have stopped mutating: release the pump so it drains
		// whatever the feed still holds and exits.
		s.storeCancel()
	}
	s.wg.Wait()
	if s.store != nil {
		// Last out: everything that could write the log has stopped.
		keep(s.store.Close())
	}
	s.bus.Close()

	s.mu.Lock()
	s.closeErr = firstErr
	s.mu.Unlock()
	return firstErr
}

// Stack returns the network stack the instance runs on — the
// transport-neutral successor of the former Host accessor, which leaked
// the simulated-network type through the public API.
func (s *System) Stack() netapi.Stack { return s.stack }

// Monitor returns the system's monitor component.
func (s *System) Monitor() *Monitor { return s.monitor }

// View returns the shared service view.
func (s *System) View() *ServiceView { return s.view }

// Bus returns the event bus (exposed for tracing: the paper's control
// events let upper layers observe "a dynamic representation of the
// run-time interoperability architecture").
func (s *System) Bus() *events.Bus { return s.bus }

// Role returns the deployment role.
func (s *System) Role() Role { return s.cfg.Role }

// Units returns the currently instantiated units' SDPs, sorted — the
// run-time composition of Figure 5.
func (s *System) Units() []SDP {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SDP, 0, len(s.units))
	for sdp := range s.units {
		out = append(out, sdp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Unit returns the instantiated unit for the SDP, if any.
func (s *System) Unit(sdp SDP) (Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.units[sdp]
	return u, ok
}

// EnsureUnit instantiates the unit for the SDP if allowed and not yet
// running — the dynamic composition entry point.
func (s *System) EnsureUnit(sdp SDP) (Unit, error) {
	return s.ensureUnit(sdp)
}

func (s *System) ensureUnit(sdp SDP) (Unit, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrSystemClosed
	}
	if u, ok := s.units[sdp]; ok {
		s.mu.Unlock()
		return u, nil
	}
	if _, ok := s.allowed[sdp]; !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("core: SDP %s not in this instance's configuration", sdp)
	}
	reAdv := s.reAdv
	s.mu.Unlock()

	u, err := s.registry.New(sdp)
	if err != nil {
		return nil, err
	}
	ctx := &UnitContext{
		Stack:         s.stack,
		Bus:           s.bus,
		Role:          s.cfg.Role,
		View:          s.view,
		Self:          s.self,
		NoCache:       s.cfg.NoCache,
		Profile:       s.cfg.Profile,
		BeforePublish: s.beforePublish,
	}
	if err := u.Start(ctx); err != nil {
		return nil, fmt.Errorf("core: start %s unit: %w", sdp, err)
	}
	u.SetReadvertise(reAdv)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		u.Stop()
		return nil, ErrSystemClosed
	}
	if existing, raced := s.units[sdp]; raced {
		s.mu.Unlock()
		u.Stop()
		return existing, nil
	}
	s.units[sdp] = u
	s.mu.Unlock()
	return u, nil
}

// onDetection routes one raw message from the monitor to the appropriate
// unit, instantiating it first when running dynamically (Figure 2 steps
// ①–②). It queues the message on its source's lane and returns without
// waiting for the unit.
func (s *System) onDetection(det Detection) {
	if s.self.Has(det.Src) {
		return // our own emission echoed back by multicast loopback
	}
	u, err := s.ensureUnit(det.SDP)
	if err != nil {
		return // protocol seen but not configured: ignore, per §3
	}
	l := &s.lanes[laneOf(&det)]
	l.mu.Lock()
	if len(l.queue)-l.head >= laneDepth {
		l.mu.Unlock()
		s.dropped.Add(1)
		return
	}
	if len(l.queue) == cap(l.queue) && l.head > 0 {
		// Reuse the slots already drained before growing the buffer.
		n := copy(l.queue, l.queue[l.head:])
		clear(l.queue[n:])
		l.queue, l.head = l.queue[:n], 0
	}
	l.queue = append(l.queue, ingress{unit: u, det: det})
	start, wake := l.wake == nil, l.idle
	if start {
		l.wake = make(chan struct{}, 1)
	}
	l.idle = false
	l.mu.Unlock()
	if start {
		s.wg.Add(1)
		go s.drain(l)
	} else if wake {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
}

// drain is a lane's goroutine: it hands the lane's detections to their
// units one at a time, oldest first, until the system stops. What is
// still queued then is discarded.
func (s *System) drain(l *lane) {
	defer s.wg.Done()
	for {
		l.mu.Lock()
		if l.head == len(l.queue) {
			if cap(l.queue) > laneKeep {
				l.queue = nil
			} else {
				l.queue = l.queue[:0]
			}
			l.head, l.idle = 0, true
			l.mu.Unlock()
			select {
			case <-l.wake:
				continue
			case <-s.stop:
				return
			}
		}
		in := l.queue[l.head]
		l.queue[l.head] = ingress{}
		l.head++
		l.mu.Unlock()
		select {
		case <-s.stop:
			return
		default:
		}
		in.unit.HandleNative(in.det)
	}
}

// laneOf hashes a detection's (SDP, source IP, source port) to its lane
// with the view's FNV-1a kindHash, without allocating.
func laneOf(det *Detection) int {
	h := (kindHash(string(det.SDP))*16777619 ^ kindHash(det.Src.IP)) * 16777619
	h = (h ^ uint32(det.Src.Port)) * 16777619
	return int((h ^ h>>16) % ingressLanes)
}

// IngressDropped counts the detections dropped because their lane already
// held laneDepth others.
func (s *System) IngressDropped() uint64 { return s.dropped.Load() }

// beforePublish makes request translation reliable under dynamic
// composition: a request stream needs its translation targets subscribed
// before it flows, so every configured unit is instantiated first. Other
// stream kinds (advertisements) do not force instantiation — the paper's
// dynamism is preserved for passive traffic.
func (s *System) beforePublish(stream events.Stream) {
	if !s.cfg.Dynamic || !stream.Has(events.ServiceRequest) {
		return
	}
	s.mu.Lock()
	missing := make([]SDP, 0, len(s.allowed))
	for sdp := range s.allowed {
		if _, ok := s.units[sdp]; !ok {
			missing = append(missing, sdp)
		}
	}
	s.mu.Unlock()
	for _, sdp := range missing {
		_, _ = s.ensureUnit(sdp)
	}
}

// policyLoop implements the §4.2 adaptation: "define a network traffic
// threshold below which INDISS, hosted on the service host, must become
// active so as to intercept messages generated from the local services in
// order to translate them to any known SDPs."
func (s *System) policyLoop() {
	ticker := time.NewTicker(s.cfg.PolicyInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			if s.cfg.Role != RoleServiceSide {
				continue
			}
			active := s.monitor.TotalRate() < s.cfg.ThresholdBps
			s.setReadvertise(active)
		}
	}
}

func (s *System) setReadvertise(enabled bool) {
	s.mu.Lock()
	if s.reAdv == enabled {
		s.mu.Unlock()
		return
	}
	s.reAdv = enabled
	units := make([]Unit, 0, len(s.units))
	for _, u := range s.units {
		units = append(units, u)
	}
	s.mu.Unlock()
	for _, u := range units {
		u.SetReadvertise(enabled)
	}
}

// Readvertising reports whether active re-advertisement is currently
// enabled.
func (s *System) Readvertising() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reAdv
}

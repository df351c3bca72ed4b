package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"indiss/internal/events"
	"indiss/internal/fsm"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
)

func TestCorrespondenceTableDefaults(t *testing.T) {
	table := DefaultTable()
	tests := []struct {
		port int
		sdp  SDP
	}{
		{427, SDPSLP},
		{1846, SDPSLP},
		{1848, SDPSLP},
		{1900, SDPUPnP},
		{4160, SDPJini},
		{5353, SDPDNSSD},
	}
	for _, tt := range tests {
		entry, ok := table.Lookup(tt.port)
		if !ok || entry.SDP != tt.sdp {
			t.Errorf("Lookup(%d) = %v %v, want %v", tt.port, entry.SDP, ok, tt.sdp)
		}
	}
	if _, ok := table.Lookup(9999); ok {
		t.Error("unregistered port resolved")
	}
	if ports := table.Ports(); len(ports) != 6 || ports[0] != 427 {
		t.Errorf("Ports = %v", ports)
	}
}

func TestTableRestrict(t *testing.T) {
	table := DefaultTable()
	small, err := table.Restrict([]int{1900, 427})
	if err != nil {
		t.Fatalf("Restrict: %v", err)
	}
	if ports := small.Ports(); len(ports) != 2 {
		t.Errorf("Ports = %v", ports)
	}
	if _, err := table.Restrict([]int{5}); err == nil {
		t.Error("unknown port accepted")
	}
}

func TestRateMeter(t *testing.T) {
	m := NewRateMeter(time.Second)
	now := time.Now()
	m.Observe(now, 500)
	m.Observe(now.Add(100*time.Millisecond), 500)
	if rate := m.Rate(now.Add(200 * time.Millisecond)); rate != 1000 {
		t.Errorf("rate = %v, want 1000 B/s", rate)
	}
	// After the window slides past the samples, rate decays to zero.
	if rate := m.Rate(now.Add(2 * time.Second)); rate != 0 {
		t.Errorf("decayed rate = %v, want 0", rate)
	}
	if m.Total() != 1000 {
		t.Errorf("total = %d", m.Total())
	}
}

// TestRateMeterFlood: 50 000 datagrams inside one window cost the meter
// no allocation, and the rate is their bytes over the window until the
// window has passed them.
func TestRateMeterFlood(t *testing.T) {
	const n, size = 50000, 100
	var m *RateMeter
	var now time.Time
	// Goroutines other tests left winding down allocate too, so keep the
	// least growth of three floods.
	grew := ^uint64(0)
	for try := 0; try < 3; try++ {
		m, now = NewRateMeter(time.Second), time.Now()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			m.Observe(now.Add(time.Duration(i)*100*time.Nanosecond), size) // 5 ms in all
		}
		runtime.ReadMemStats(&after)
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if grew >= 4<<10 {
		t.Errorf("%d observations allocated %d bytes, want under 4 KiB", n, grew)
	}
	if rate := m.Rate(now.Add(5 * time.Millisecond)); rate != n*size {
		t.Errorf("rate = %v, want %d B/s", rate, n*size)
	}
	if rate := m.Rate(now.Add(time.Second + time.Second/rateBuckets)); rate != 0 {
		t.Errorf("rate a window and a bucket later = %v, want 0", rate)
	}
}

// TestRateMeterWindowEdges: a late timestamp still inside the window
// counts, one older than the window does not, and one from before the
// meter existed is only added to the total.
func TestRateMeterWindowEdges(t *testing.T) {
	m := NewRateMeter(time.Second)
	now := time.Now()
	m.Observe(now.Add(1500*time.Millisecond), 1000)
	m.Observe(now.Add(1200*time.Millisecond), 10) // out of order, inside the window
	m.Observe(now.Add(500*time.Millisecond), 100) // a window older, in a slot that moved on
	m.Observe(now.Add(200*time.Millisecond), 100) // a window older, in an idle slot
	m.Observe(time.Time{}, 1)                     // long before the epoch
	m.Observe(now.Add(-time.Hour), 1)
	if rate := m.Rate(now.Add(1500 * time.Millisecond)); rate != 1010 {
		t.Errorf("rate = %v, want 1010 B/s", rate)
	}
	if m.Total() != 1212 {
		t.Errorf("total = %d, want 1212", m.Total())
	}
}

// TestMonitorConcurrentRecordAndRead: scan loops on three ports record
// while readers poll every accessor; run it under -race.
func TestMonitorConcurrentRecordAndRead(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	mon, err := NewMonitor(b, MonitorConfig{})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	defer mon.Close()

	targets := map[SDP]simnet.Addr{
		SDPSLP:  {IP: "239.255.255.253", Port: 427},
		SDPUPnP: {IP: "239.255.255.250", Port: 1900},
		SDPJini: {IP: "224.0.1.85", Port: 4160},
	}
	stop := make(chan struct{})
	var readers, senders sync.WaitGroup
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mon.TotalRate()
				mon.Detected()
				for sdp := range targets {
					mon.Rate(sdp)
					mon.Seen(sdp)
				}
			}
		}()
	}
	for _, dst := range targets {
		send, err := a.ListenUDP(0)
		if err != nil {
			t.Fatal(err)
		}
		senders.Add(1)
		go func() {
			defer senders.Done()
			for i := 0; i < 200; i++ {
				if err := send.WriteTo(make([]byte, 64), dst); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	senders.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for len(mon.Detected()) < len(targets) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	readers.Wait()
	for sdp := range targets {
		if !mon.Seen(sdp) || mon.Rate(sdp) <= 0 {
			t.Errorf("%s: seen %v, rate %v; want seen with a positive rate", sdp, mon.Seen(sdp), mon.Rate(sdp))
		}
	}
}

func TestMonitorDetectsByPortOnly(t *testing.T) {
	// Paper §2.1: detection "is not based on the data content but on the
	// data existence at the specified UDP/TCP ports inside the
	// corresponding groups". Garbage payloads must be detected too.
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	var mu sync.Mutex
	var got []Detection
	mon, err := NewMonitor(b, MonitorConfig{Handler: func(d Detection) {
		mu.Lock()
		got = append(got, d)
		mu.Unlock()
	}})
	if err != nil {
		t.Fatalf("NewMonitor: %v", err)
	}
	defer mon.Close()

	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	// SLP group: arbitrary bytes, not a valid SLP message.
	if err := send.WriteTo([]byte{0xde, 0xad}, simnet.Addr{IP: "239.255.255.253", Port: 427}); err != nil {
		t.Fatal(err)
	}
	// UPnP group.
	if err := send.WriteTo([]byte("M-SEARCH * HTTP/1.1\r\n\r\n"), simnet.Addr{IP: "239.255.255.250", Port: 1900}); err != nil {
		t.Fatal(err)
	}
	// Jini request group.
	if err := send.WriteTo([]byte{1, 1}, simnet.Addr{IP: "224.0.1.85", Port: 4160}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		count := len(got)
		mu.Unlock()
		if count >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("detections = %d, want 3", count)
		}
		time.Sleep(time.Millisecond)
	}

	if !mon.Seen(SDPSLP) || !mon.Seen(SDPUPnP) || !mon.Seen(SDPJini) {
		t.Errorf("Detected = %v", mon.Detected())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, d := range got {
		entry, ok := DefaultTable().Lookup(d.Port)
		if !ok || entry.SDP != d.SDP {
			t.Errorf("detection %+v does not match table", d)
		}
	}
}

func TestMonitorCoexistsWithNativeStack(t *testing.T) {
	// The monitor must not steal traffic from a native SLP agent on the
	// same host (paper: interoperability "without altering the existing
	// applications and services").
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	clientHost := n.MustAddHost("client", "10.0.0.1")
	serviceHost := n.MustAddHost("service", "10.0.0.2")

	sa, err := slp.NewServiceAgent(serviceHost, slp.AgentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if err := sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil); err != nil {
		t.Fatal(err)
	}

	detections := 0
	var mu sync.Mutex
	mon, err := NewMonitor(serviceHost, MonitorConfig{Handler: func(Detection) {
		mu.Lock()
		detections++
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	// The native exchange still works with the monitor attached.
	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", time.Second)
	if err != nil {
		t.Fatalf("FindFirst with monitor attached: %v", err)
	}
	if len(urls) != 1 {
		t.Errorf("urls = %+v", urls)
	}
	// And the monitor saw the multicast request.
	deadline := time.Now().Add(time.Second)
	for {
		mu.Lock()
		d := detections
		mu.Unlock()
		if d >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("monitor saw nothing")
		}
		time.Sleep(time.Millisecond)
	}
	if !mon.Seen(SDPSLP) {
		t.Error("SLP not detected")
	}
	if mon.Rate(SDPSLP) <= 0 {
		t.Error("rate meter not fed")
	}
}

func TestServiceView(t *testing.T) {
	v := NewServiceView()
	now := time.Now()
	v.Put(ServiceRecord{
		Origin: SDPUPnP, Kind: "clock",
		URL:     "http://10.0.0.2:4004/description.xml",
		Attrs:   map[string]string{"friendlyName": "Clock"},
		Expires: now.Add(time.Minute),
	})
	v.Put(ServiceRecord{
		Origin: SDPSLP, Kind: "printer",
		URL:     "service:printer:lpr://10.0.0.3",
		Expires: now.Add(time.Minute),
	})
	v.Put(ServiceRecord{
		Origin: SDPSLP, Kind: "clock",
		URL:     "service:clock://10.0.0.4",
		Expires: now.Add(-time.Minute), // already expired
	})

	if got := v.Find("clock", now); len(got) != 1 || got[0].Origin != SDPUPnP {
		t.Errorf("Find(clock) = %+v", got)
	}
	if got := v.Find("", now); len(got) != 2 {
		t.Errorf("Find(all) = %+v", got)
	}
	if got := v.FindForeign(SDPUPnP, "clock", now); len(got) != 0 {
		t.Errorf("FindForeign should exclude own origin: %+v", got)
	}
	if got := v.FindForeign(SDPSLP, "clock", now); len(got) != 1 {
		t.Errorf("FindForeign(SLP, clock) = %+v", got)
	}
	if !v.Remove(SDPSLP, "service:printer:lpr://10.0.0.3") {
		t.Error("Remove failed")
	}
	if v.Remove(SDPSLP, "nosuch") {
		t.Error("Remove of unknown succeeded")
	}
	// The view must not alias the producer's map: mutating the record a
	// caller Put must not leak into stored records, and an explicit
	// Clone of a returned record must be independent. (Returned records
	// share their Attrs map with the view read-only — the Figure 9b hot
	// path contract — so callers clone before mutating.)
	src := ServiceRecord{
		Origin: SDPUPnP, Kind: "camera",
		URL:     "http://10.0.0.5:4004/description.xml",
		Attrs:   map[string]string{"friendlyName": "Cam"},
		Expires: now.Add(time.Minute),
	}
	v.Put(src)
	src.Attrs["friendlyName"] = "mutated-by-producer"
	if v.Find("camera", now)[0].Attrs["friendlyName"] != "Cam" {
		t.Error("view aliases the producer's attr map")
	}
	clone := v.Find("camera", now)[0].Clone()
	clone.Attrs["friendlyName"] = "mutated-clone"
	if v.Find("camera", now)[0].Attrs["friendlyName"] != "Cam" {
		t.Error("Clone is not independent of the view")
	}
}

// stubUnit records calls for system tests.
type stubUnit struct {
	sdp SDP

	mu          sync.Mutex
	started     bool
	stopped     bool
	handled     []Detection
	streams     []events.Envelope
	readv       bool
	failOnStart bool
	ctx         *UnitContext
}

func (u *stubUnit) SDP() SDP { return u.sdp }

func (u *stubUnit) Start(ctx *UnitContext) error {
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.failOnStart {
		return errors.New("stub start failure")
	}
	u.started = true
	u.ctx = ctx
	ctx.Bus.Subscribe(string(u.sdp), events.ListenerFunc(u.OnEvents))
	return nil
}

func (u *stubUnit) HandleNative(det Detection) {
	u.mu.Lock()
	u.handled = append(u.handled, det)
	ctx := u.ctx
	u.mu.Unlock()
	if ctx != nil {
		// Republish as a minimal advertisement stream so peers see
		// it. (A request stream would force peer instantiation —
		// covered separately by TestSystemRequestForcesPeers.)
		_ = ctx.Publish(string(u.sdp), events.NewStream(
			events.E(events.NetType, string(u.sdp)),
			events.E(events.ServiceAlive, ""),
		))
	}
}

func (u *stubUnit) OnEvents(env events.Envelope) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.streams = append(u.streams, env)
}

func (u *stubUnit) SetReadvertise(enabled bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.readv = enabled
}

func (u *stubUnit) Stop() {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.stopped = true
}

func (u *stubUnit) snapshot() (handled int, streams int, readv, started, stopped bool) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.handled), len(u.streams), u.readv, u.started, u.stopped
}

func stubRegistry(units map[SDP]*stubUnit) *Registry {
	r := NewRegistry()
	for sdp, u := range units {
		captured := u
		r.Register(sdp, func() Unit { return captured })
	}
	return r
}

func TestSystemDynamicInstantiation(t *testing.T) {
	// Paper §3: "at run-time, embedded units of different types are
	// instantiated and dynamically composed depending on the
	// environment."
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	units := map[SDP]*stubUnit{
		SDPSLP:  {sdp: SDPSLP},
		SDPUPnP: {sdp: SDPUPnP},
	}
	sys, err := NewSystem(b, stubRegistry(units), Config{Role: RoleGateway, Dynamic: true})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	defer sys.Close()

	if got := sys.Units(); len(got) != 0 {
		t.Fatalf("dynamic system started units eagerly: %v", got)
	}

	// SLP traffic appears: the SLP unit must materialize and receive it.
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := send.WriteTo([]byte("raw"), simnet.Addr{IP: "239.255.255.253", Port: 427}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if h, _, _, started, _ := units[SDPSLP].snapshot(); h >= 1 && started {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("SLP unit never received the detection")
		}
		time.Sleep(time.Millisecond)
	}
	if got := sys.Units(); len(got) != 1 || got[0] != SDPSLP {
		t.Errorf("Units = %v, want [SLP]", got)
	}
	if _, _, _, started, _ := units[SDPUPnP].snapshot(); started {
		t.Error("UPnP unit instantiated without traffic")
	}
}

func TestSystemRequestForcesPeers(t *testing.T) {
	// A request stream published under dynamic composition must bring
	// up its translation targets before it flows: otherwise a foreign
	// request detected before the peer's protocol would be lost.
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	b := n.MustAddHost("b", "10.0.0.2")

	units := map[SDP]*stubUnit{
		SDPSLP:  {sdp: SDPSLP},
		SDPUPnP: {sdp: SDPUPnP},
	}
	sys, err := NewSystem(b, stubRegistry(units), Config{Role: RoleGateway, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	slpUnit, err := sys.EnsureUnit(SDPSLP)
	if err != nil {
		t.Fatal(err)
	}
	ctx := units[SDPSLP].ctx
	_ = slpUnit
	if err := ctx.Publish(string(SDPSLP), events.NewStream(
		events.E(events.NetType, string(SDPSLP)),
		events.E(events.ServiceRequest, ""),
		events.E(events.ServiceType, "clock"),
	)); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, streams, _, started, _ := units[SDPUPnP].snapshot(); started && streams >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request stream did not instantiate and reach the peer unit")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSystemEagerInstantiation(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	b := n.MustAddHost("b", "10.0.0.2")

	units := map[SDP]*stubUnit{
		SDPSLP:  {sdp: SDPSLP},
		SDPUPnP: {sdp: SDPUPnP},
	}
	sys, err := NewSystem(b, stubRegistry(units), Config{Role: RoleClientSide})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if got := sys.Units(); len(got) != 2 {
		t.Errorf("Units = %v", got)
	}
	if u, ok := sys.Unit(SDPSLP); !ok || u.SDP() != SDPSLP {
		t.Error("Unit lookup failed")
	}
}

func TestSystemRestrictedToConfiguredUnits(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	units := map[SDP]*stubUnit{
		SDPSLP:  {sdp: SDPSLP},
		SDPUPnP: {sdp: SDPUPnP},
	}
	sys, err := NewSystem(b, stubRegistry(units), Config{
		Role:    RoleGateway,
		Dynamic: true,
		Units:   []SDP{SDPUPnP}, // SLP traffic must be ignored
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := send.WriteTo([]byte("raw"), simnet.Addr{IP: "239.255.255.253", Port: 427}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if h, _, _, _, _ := units[SDPSLP].snapshot(); h != 0 {
		t.Error("unconfigured SLP unit received traffic")
	}
	if _, err := sys.EnsureUnit(SDPSLP); err == nil {
		t.Error("EnsureUnit for unconfigured SDP succeeded")
	}
}

func TestSystemBusConnectsUnits(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	units := map[SDP]*stubUnit{
		SDPSLP:  {sdp: SDPSLP},
		SDPUPnP: {sdp: SDPUPnP},
	}
	sys, err := NewSystem(b, stubRegistry(units), Config{Role: RoleGateway})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := send.WriteTo([]byte("raw"), simnet.Addr{IP: "239.255.255.253", Port: 427}); err != nil {
		t.Fatal(err)
	}

	// The SLP stub republished the detection as a stream; the UPnP stub
	// must receive it (and the SLP stub must not echo itself).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, streams, _, _, _ := units[SDPUPnP].snapshot(); streams >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stream never crossed the bus")
		}
		time.Sleep(time.Millisecond)
	}
	if _, streams, _, _, _ := units[SDPSLP].snapshot(); streams != 0 {
		t.Error("unit received its own stream")
	}
}

func TestSystemThresholdAdaptation(t *testing.T) {
	// Paper §4.2 / Figure 6: on the service side, quiet networks flip
	// INDISS to active re-advertisement; traffic flips it back.
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	units := map[SDP]*stubUnit{SDPSLP: {sdp: SDPSLP}}
	sys, err := NewSystem(b, stubRegistry(units), Config{
		Role:           RoleServiceSide,
		ThresholdBps:   1000,
		PolicyInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	// Quiet network → active.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, readv, _, _ := units[SDPSLP].snapshot(); readv {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-advertisement never enabled on quiet network")
		}
		time.Sleep(time.Millisecond)
	}
	if !sys.Readvertising() {
		t.Error("system does not report re-advertising")
	}

	// Blast traffic → passive again.
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	stopTraffic := make(chan struct{})
	var trafficWG sync.WaitGroup
	trafficWG.Add(1)
	go func() {
		defer trafficWG.Done()
		payload := make([]byte, 400)
		for {
			select {
			case <-stopTraffic:
				return
			default:
				_ = send.WriteTo(payload, simnet.Addr{IP: "239.255.255.253", Port: 427})
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	defer func() {
		close(stopTraffic)
		trafficWG.Wait()
	}()

	deadline = time.Now().Add(2 * time.Second)
	for {
		if _, _, readv, _, _ := units[SDPSLP].snapshot(); !readv {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("re-advertisement never disabled under load")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSystemCloseStopsUnits(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	b := n.MustAddHost("b", "10.0.0.2")
	u := &stubUnit{sdp: SDPSLP}
	sys, err := NewSystem(b, stubRegistry(map[SDP]*stubUnit{SDPSLP: u}), Config{Role: RoleGateway})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()
	sys.Close() // idempotent
	if _, _, _, _, stopped := u.snapshot(); !stopped {
		t.Error("unit not stopped")
	}
	if _, err := sys.EnsureUnit(SDPSLP); !errors.Is(err, ErrSystemClosed) {
		t.Errorf("EnsureUnit after close: %v", err)
	}
}

func TestSystemUnitStartFailure(t *testing.T) {
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	b := n.MustAddHost("b", "10.0.0.2")
	u := &stubUnit{sdp: SDPSLP, failOnStart: true}
	if _, err := NewSystem(b, stubRegistry(map[SDP]*stubUnit{SDPSLP: u}), Config{Role: RoleGateway}); err == nil {
		t.Error("eager system with failing unit should error")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Register(SDPSLP, func() Unit { return &stubUnit{sdp: SDPSLP} })
	r.Register(SDPJini, func() Unit { return &stubUnit{sdp: SDPJini} })
	if got := r.SDPs(); len(got) != 2 || got[0] != SDPJini {
		t.Errorf("SDPs = %v", got)
	}
	u, err := r.New(SDPSLP)
	if err != nil || u.SDP() != SDPSLP {
		t.Errorf("New = %v %v", u, err)
	}
	if _, err := r.New(SDPUPnP); err == nil {
		t.Error("unregistered SDP instantiated")
	}
}

func TestRoleString(t *testing.T) {
	roles := map[Role]string{
		RoleClientSide:  "client-side",
		RoleServiceSide: "service-side",
		RoleGateway:     "gateway",
		Role(99):        "unknown",
	}
	for r, want := range roles {
		if got := r.String(); got != want {
			t.Errorf("%d.String() = %q", r, got)
		}
	}
}

func TestUnitContextPublishValidates(t *testing.T) {
	bus := events.NewBus()
	defer bus.Close()
	ctx := &UnitContext{Bus: bus}
	if err := ctx.Publish("x", events.Stream{events.E(events.ServiceAlive, "")}); err == nil {
		t.Error("unframed stream accepted")
	}
	if err := ctx.Publish("x", events.NewStream(events.E(events.ServiceAlive, ""))); err != nil {
		t.Errorf("valid stream rejected: %v", err)
	}
}

func TestTranslationProfileDelays(t *testing.T) {
	p := TranslationProfile{PerMessage: 5 * time.Millisecond, XMLParse: 5 * time.Millisecond}
	start := time.Now()
	p.Delay()
	p.DelayXML()
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Errorf("delays took %v", elapsed)
	}
	// Zero profile is free.
	var zero TranslationProfile
	start = time.Now()
	zero.Delay()
	zero.DelayXML()
	if elapsed := time.Since(start); elapsed > time.Millisecond {
		t.Errorf("zero profile slept %v", elapsed)
	}
}

// Compile-time checks that the native stacks' ports agree with the
// correspondence table (catching drift between packages).
func TestTableMatchesNativeStacks(t *testing.T) {
	if entry, _ := DefaultTable().Lookup(slp.Port); entry.SDP != SDPSLP {
		t.Error("SLP port mismatch")
	}
	if entry, _ := DefaultTable().Lookup(ssdp.Port); entry.SDP != SDPUPnP {
		t.Error("SSDP port mismatch")
	}
}

func TestFSMBuildFromSpec(t *testing.T) {
	spec := FSMSpec{
		Name: "UPnP",
		Tuples: []TupleSpec{
			{From: "Idle", Trigger: "SDP_C_START", Guard: "", To: "Open"},
			{From: "Open", Trigger: "SDP_SERVICE_TYPE", Guard: "isClock", To: "Matched", Actions: []string{"record"}},
			{From: "Matched", Trigger: "SDP_C_STOP", Guard: "", To: "Done"},
		},
	}
	recorded := ""
	m, err := BuildFSM(spec, "Idle",
		map[string]fsm.Guard{
			"isClock": func(ev events.Event, _ fsm.Vars) bool { return ev.Data == "clock" },
		},
		map[string]fsm.Action{
			"record": func(ev events.Event, _ fsm.Vars) error {
				recorded = ev.Data
				return nil
			},
		},
		"Done")
	if err != nil {
		t.Fatalf("BuildFSM: %v", err)
	}
	inst := m.NewInstance()
	if _, err := inst.FeedStream(events.NewStream(events.E(events.ServiceType, "clock"))); err != nil {
		t.Fatal(err)
	}
	if !inst.Accepting() || recorded != "clock" {
		t.Errorf("state=%s recorded=%q", inst.Current(), recorded)
	}

	// Unknown trigger name fails.
	bad := FSMSpec{Name: "x", Tuples: []TupleSpec{{From: "a", Trigger: "SDP_NOSUCH", To: "b"}}}
	if _, err := BuildFSM(bad, "a", nil, nil); !errors.Is(err, ErrSpec) {
		t.Errorf("err = %v, want ErrSpec", err)
	}
}

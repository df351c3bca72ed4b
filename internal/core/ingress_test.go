package core

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"indiss/internal/events"
	"indiss/internal/netapi"
	"indiss/internal/simnet"
)

// laneUnit is a stub SLP unit for the ingress-lane tests. It records every
// detection it starts on and notes when two handlers of one source
// overlap. A handler that held() selects waits until release is closed
// or the unit stops.
type laneUnit struct {
	held    func(Detection) bool
	release chan struct{}
	stopped chan struct{}
	stop    sync.Once

	mu      sync.Mutex
	running map[netapi.Addr]int
	overlap bool
	handled []Detection
}

func newLaneUnit(held func(Detection) bool) *laneUnit {
	return &laneUnit{
		held:    held,
		release: make(chan struct{}),
		stopped: make(chan struct{}),
		running: make(map[netapi.Addr]int),
	}
}

func (u *laneUnit) SDP() SDP                     { return SDPSLP }
func (u *laneUnit) Start(ctx *UnitContext) error { return nil }
func (u *laneUnit) OnEvents(env events.Envelope) { env.Release() }
func (u *laneUnit) SetReadvertise(enabled bool)  {}
func (u *laneUnit) Stop()                        { u.stop.Do(func() { close(u.stopped) }) }

func (u *laneUnit) HandleNative(det Detection) {
	u.mu.Lock()
	u.running[det.Src]++
	if u.running[det.Src] > 1 {
		u.overlap = true
	}
	u.handled = append(u.handled, det)
	u.mu.Unlock()
	if u.held != nil && u.held(det) {
		select {
		case <-u.release:
		case <-u.stopped:
		}
	}
	u.mu.Lock()
	u.running[det.Src]--
	u.mu.Unlock()
}

// seqs returns the sequence numbers of the detections handled from src,
// in the order their handlers started.
func (u *laneUnit) seqs(src netapi.Addr) []int {
	u.mu.Lock()
	defer u.mu.Unlock()
	var out []int
	for _, det := range u.handled {
		if det.Src == src {
			n, _ := strconv.Atoi(string(det.Data))
			out = append(out, n)
		}
	}
	return out
}

func (u *laneUnit) count() int {
	u.mu.Lock()
	defer u.mu.Unlock()
	return len(u.handled)
}

// newLaneSystem starts a system whose only unit is u. The tests feed it
// through onDetection, the monitor's handler, exactly as a scan loop
// does.
func newLaneSystem(t *testing.T, u Unit) *System {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	host := n.MustAddHost("gw", "10.0.0.9")
	reg := NewRegistry()
	reg.Register(SDPSLP, func() Unit { return u })
	sys, err := NewSystem(host, reg, Config{Role: RoleGateway, Units: []SDP{SDPSLP}})
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func slpDetection(src netapi.Addr, seq int) Detection {
	return Detection{
		SDP:  SDPSLP,
		Port: 427,
		Src:  src,
		Dst:  netapi.Addr{IP: "239.255.255.253", Port: 427},
		Data: []byte(strconv.Itoa(seq)),
		At:   time.Now(),
	}
}

// otherLane returns a source on the host of src whose detections hash to
// a lane other than src's.
func otherLane(t *testing.T, src netapi.Addr) netapi.Addr {
	t.Helper()
	want := laneOf(&Detection{SDP: SDPSLP, Src: src})
	for port := src.Port + 1; port < src.Port+1000; port++ {
		other := netapi.Addr{IP: src.IP, Port: port}
		if laneOf(&Detection{SDP: SDPSLP, Src: other}) != want {
			return other
		}
	}
	t.Fatal("no source on another lane")
	return netapi.Addr{}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func isSeq(got []int, from, n int) bool {
	if len(got) != n {
		return false
	}
	for i, v := range got {
		if v != from+i {
			return false
		}
	}
	return true
}

// TestIngressPerSourceOrder: one source's datagrams reach its unit one at
// a time and in arrival order. A handler that blocks holds back the
// source's next datagram, not just delays it.
func TestIngressPerSourceOrder(t *testing.T) {
	a := netapi.Addr{IP: "10.0.0.1", Port: 5000}
	u := newLaneUnit(func(det Detection) bool { return det.Src == a && string(det.Data) == "0" })
	sys := newLaneSystem(t, u)

	sys.onDetection(slpDetection(a, 0))
	waitUntil(t, "the first handler starts", func() bool { return u.count() == 1 })
	sys.onDetection(slpDetection(a, 1))
	time.Sleep(20 * time.Millisecond)
	if got := u.seqs(a); len(got) != 1 {
		t.Fatalf("handlers started for %v while the first was blocked, want only [0]", got)
	}
	close(u.release)
	waitUntil(t, "the second handler starts", func() bool { return u.count() == 2 })

	// Two interleaved sources: each keeps its own order, and no two
	// handlers of one source ever run at once.
	b := otherLane(t, a)
	const n = 200
	for i := 2; i < n; i++ {
		sys.onDetection(slpDetection(a, i))
		sys.onDetection(slpDetection(b, i))
	}
	waitUntil(t, "every datagram is handled", func() bool { return u.count() == 2+2*(n-2) })
	if got := u.seqs(a); !isSeq(got, 0, n) {
		t.Errorf("source a handled in order %v, want 0..%d", got, n-1)
	}
	if got := u.seqs(b); !isSeq(got, 2, n-2) {
		t.Errorf("source b handled in order %v, want 2..%d", got, n-1)
	}
	u.mu.Lock()
	overlap := u.overlap
	u.mu.Unlock()
	if overlap {
		t.Error("two handlers of one source ran at once")
	}
}

// TestIngressIsolation: a source whose handler blocks, and which keeps
// sending past the number of lanes, holds up only its own lane. Another
// source on the same port is still handled, and the feeding scan loop
// never blocks.
func TestIngressIsolation(t *testing.T) {
	a := netapi.Addr{IP: "10.0.0.1", Port: 5000}
	b := otherLane(t, a)
	u := newLaneUnit(func(det Detection) bool { return det.Src == a })
	sys := newLaneSystem(t, u)

	const flood = 2 * ingressLanes
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		for i := 0; i < flood; i++ {
			sys.onDetection(slpDetection(a, i))
		}
		sys.onDetection(slpDetection(b, 0))
	}()
	deadline := time.After(5 * time.Second)
	for len(u.seqs(b)) == 0 {
		select {
		case <-deadline:
			close(u.release)
			<-fed
			t.Fatalf("source b was not handled while source a's %d datagrams waited behind a blocked handler", flood)
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-fed:
	case <-time.After(5 * time.Second):
		t.Fatal("the feeding scan loop blocked on ingress")
	}
	if got := u.seqs(a); len(got) != 1 {
		t.Errorf("source a: %d handlers started while the first was blocked, want 1", len(got))
	}
	close(u.release)
	waitUntil(t, "source a drains", func() bool { return len(u.seqs(a)) == flood })
	if got := sys.IngressDropped(); got != 0 {
		t.Errorf("IngressDropped = %d, want 0", got)
	}
}

// TestIngressOverflowDrops: behind a blocked handler, a lane queues
// laneDepth datagrams and drops the rest, counting each; once released it
// handles what it queued, in order.
func TestIngressOverflowDrops(t *testing.T) {
	a := netapi.Addr{IP: "10.0.0.1", Port: 5000}
	u := newLaneUnit(func(det Detection) bool { return string(det.Data) == "0" })
	sys := newLaneSystem(t, u)

	sys.onDetection(slpDetection(a, 0))
	waitUntil(t, "the first handler starts", func() bool { return u.count() == 1 })
	const k = 5
	for i := 1; i <= laneDepth+k; i++ {
		sys.onDetection(slpDetection(a, i))
	}
	if got := sys.IngressDropped(); got != k {
		t.Fatalf("IngressDropped = %d after %d datagrams behind a blocked handler, want %d", got, laneDepth+k, k)
	}
	close(u.release)
	waitUntil(t, "the queued datagrams drain", func() bool { return u.count() == 1+laneDepth })
	if got := u.seqs(a); !isSeq(got, 0, 1+laneDepth) {
		t.Errorf("handled %v, want 0..%d in order", got, laneDepth)
	}
	time.Sleep(20 * time.Millisecond)
	if got := u.count(); got != 1+laneDepth {
		t.Errorf("%d handled, want %d: a dropped datagram was handled", got, 1+laneDepth)
	}
}

// TestIngressClose: Close returns while detections are queued behind a
// blocked handler, discards them, and no handler starts after it.
func TestIngressClose(t *testing.T) {
	a := netapi.Addr{IP: "10.0.0.1", Port: 5000}
	u := newLaneUnit(func(det Detection) bool { return string(det.Data) == "0" })
	sys := newLaneSystem(t, u)

	sys.onDetection(slpDetection(a, 0))
	waitUntil(t, "the first handler starts", func() bool { return u.count() == 1 })
	for i := 1; i <= 10; i++ {
		sys.onDetection(slpDetection(a, i))
	}
	closed := make(chan error, 1)
	go func() { closed <- sys.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with detections queued")
	}
	if got := u.count(); got != 1 {
		t.Fatalf("%d handlers started by the time Close returned, want 1", got)
	}
	time.Sleep(20 * time.Millisecond)
	if got := u.count(); got != 1 {
		t.Errorf("%d handlers started after Close returned, want 1", got)
	}
}

// signalUnit reports each handled detection on done, allocating nothing.
type signalUnit struct{ done chan struct{} }

func (u *signalUnit) SDP() SDP                     { return SDPSLP }
func (u *signalUnit) Start(ctx *UnitContext) error { return nil }
func (u *signalUnit) HandleNative(det Detection)   { u.done <- struct{}{} }
func (u *signalUnit) OnEvents(env events.Envelope) { env.Release() }
func (u *signalUnit) SetReadvertise(enabled bool)  {}
func (u *signalUnit) Stop()                        {}

// TestIngressHandoffAllocFree: once a lane has started and its buffer
// has grown, handing a detection to it allocates nothing: no goroutine,
// no closure, no queue node.
func TestIngressHandoffAllocFree(t *testing.T) {
	u := &signalUnit{done: make(chan struct{})}
	sys := newLaneSystem(t, u)
	det := slpDetection(netapi.Addr{IP: "10.0.0.1", Port: 5000}, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		sys.onDetection(det)
		<-u.done
	})
	if allocs != 0 {
		t.Errorf("handoff allocates %.1f times per detection, want 0", allocs)
	}
}

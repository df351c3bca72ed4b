package simnet

import (
	"errors"
	"io"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"indiss/internal/netapi"
)

func newTestNet(t *testing.T, cfg Config) *Network {
	t.Helper()
	n := New(cfg)
	t.Cleanup(n.Close)
	return n
}

func TestAddHostDuplicate(t *testing.T) {
	n := newTestNet(t, Config{})
	if _, err := n.AddHost("a", "10.0.0.1"); err != nil {
		t.Fatalf("AddHost: %v", err)
	}
	if _, err := n.AddHost("b", "10.0.0.1"); !errors.Is(err, ErrDuplicateHost) {
		t.Fatalf("duplicate IP: got %v, want ErrDuplicateHost", err)
	}
	if _, err := n.AddHost("a", "10.0.0.2"); !errors.Is(err, ErrDuplicateHost) {
		t.Fatalf("duplicate name: got %v, want ErrDuplicateHost", err)
	}
}

func TestUnicastDelivery(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	recv, err := b.ListenUDP(5000)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := send.WriteTo([]byte("hello"), Addr{IP: "10.0.0.2", Port: 5000}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	dg, err := recv.Recv(time.Second)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(dg.Payload) != "hello" {
		t.Errorf("payload = %q, want %q", dg.Payload, "hello")
	}
	if dg.Src.IP != "10.0.0.1" {
		t.Errorf("src = %v, want 10.0.0.1", dg.Src)
	}
	if dg.Dst != (Addr{IP: "10.0.0.2", Port: 5000}) {
		t.Errorf("dst = %v", dg.Dst)
	}
}

func TestUnicastNoRoute(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	err = send.WriteTo([]byte("x"), Addr{IP: "10.9.9.9", Port: 1})
	if !errors.Is(err, ErrNoRoute) {
		t.Fatalf("got %v, want ErrNoRoute", err)
	}
}

func TestUnicastUnboundPortSilentlyDropped(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	n.MustAddHost("b", "10.0.0.2")
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := send.WriteTo([]byte("x"), Addr{IP: "10.0.0.2", Port: 999}); err != nil {
		t.Fatalf("WriteTo to unbound port should not error, got %v", err)
	}
}

func TestMulticastMembership(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	c := n.MustAddHost("c", "10.0.0.3")

	const group = "239.255.255.253"
	const port = 427

	member, err := b.ListenUDP(port)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := member.JoinGroup(group); err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	nonMember, err := c.ListenUDP(port)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}

	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := send.WriteTo([]byte("mc"), Addr{IP: group, Port: port}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}

	if _, err := member.Recv(time.Second); err != nil {
		t.Errorf("member should receive: %v", err)
	}
	if _, err := nonMember.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("non-member should not receive, got err=%v", err)
	}
}

func TestMulticastLoopback(t *testing.T) {
	// A sender that is also a member must hear its own datagrams: the
	// monitor component depends on observing same-host traffic.
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	const group = "239.255.255.250"

	self, err := a.ListenUDP(1900)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := self.JoinGroup(group); err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	if err := self.WriteTo([]byte("notify"), Addr{IP: group, Port: 1900}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	dg, err := self.Recv(time.Second)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if string(dg.Payload) != "notify" {
		t.Errorf("payload = %q", dg.Payload)
	}
}

func TestLeaveGroupStopsDelivery(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	const group = "239.0.0.1"

	recv, err := b.ListenUDP(100)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := recv.JoinGroup(group); err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	recv.LeaveGroup(group)

	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := send.WriteTo([]byte("x"), Addr{IP: group, Port: 100}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := recv.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("got err=%v, want timeout after leave", err)
	}
}

func TestJoinGroupRejectsUnicast(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	conn, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := conn.JoinGroup("10.0.0.9"); !errors.Is(err, ErrBadAddr) {
		t.Errorf("got %v, want ErrBadAddr", err)
	}
}

func TestUDPOrderingPreserved(t *testing.T) {
	n := newTestNet(t, Config{LANLatency: 100 * time.Microsecond})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	recv, err := b.ListenUDP(7)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	const count = 50
	for i := 0; i < count; i++ {
		if err := send.WriteTo([]byte{byte(i)}, Addr{IP: "10.0.0.2", Port: 7}); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	for i := 0; i < count; i++ {
		dg, err := recv.Recv(time.Second)
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if dg.Payload[0] != byte(i) {
			t.Fatalf("packet %d arrived out of order (got %d)", i, dg.Payload[0])
		}
	}
}

func TestPortInUse(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	if _, err := a.ListenUDP(1900); err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if _, err := a.ListenUDP(1900); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("got %v, want ErrPortInUse", err)
	}
	// Rebinding after close must succeed.
	c, err := a.ListenUDP(4160)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	c.Close()
	if _, err := a.ListenUDP(4160); err != nil {
		t.Fatalf("rebind after close: %v", err)
	}
}

func TestRecvAfterClose(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	c, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	c.Close()
	if _, err := c.Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestLatencyApplied(t *testing.T) {
	const lat = 5 * time.Millisecond
	n := newTestNet(t, Config{LANLatency: lat})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	recv, err := b.ListenUDP(9)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	start := time.Now()
	if err := send.WriteTo([]byte("x"), Addr{IP: "10.0.0.2", Port: 9}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := recv.Recv(time.Second); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if elapsed := time.Since(start); elapsed < lat {
		t.Errorf("delivery took %v, want >= %v", elapsed, lat)
	}
}

func TestSerializationCost(t *testing.T) {
	// 10 kB at 10 Mb/s is 8 ms of serialization on top of propagation.
	n := newTestNet(t, Config{LANLatency: time.Millisecond, BandwidthBps: 10_000_000})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	recv, err := b.ListenUDP(9)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	payload := make([]byte, 10_000)
	start := time.Now()
	if err := send.WriteTo(payload, Addr{IP: "10.0.0.2", Port: 9}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := recv.Recv(time.Second); err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 9*time.Millisecond {
		t.Errorf("delivery took %v, want >= 9ms (1ms prop + 8ms serialization)", elapsed)
	}
}

func TestLossInjectionDropsRoughlyAtRate(t *testing.T) {
	n := newTestNet(t, Config{LossRate: 0.5, Seed: 42})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	recv, err := b.ListenUDP(9)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	const count = 200
	for i := 0; i < count; i++ {
		if err := send.WriteTo([]byte{1}, Addr{IP: "10.0.0.2", Port: 9}); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	got := 0
	for {
		if _, err := recv.Recv(50 * time.Millisecond); err != nil {
			break
		}
		got++
	}
	if got == 0 || got == count {
		t.Fatalf("got %d/%d packets; loss rate 0.5 should drop some but not all", got, count)
	}
	if drops := n.Metrics().Port(9).DroppedPackets; drops != int64(count-got) {
		t.Errorf("metrics drops = %d, want %d", drops, count-got)
	}
}

func TestLoopbackNeverDropped(t *testing.T) {
	n := newTestNet(t, Config{LossRate: 1.0, Seed: 7})
	a := n.MustAddHost("a", "10.0.0.1")
	const group = "239.0.0.7"
	self, err := a.ListenUDP(70)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := self.JoinGroup(group); err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	if err := self.WriteTo([]byte("x"), Addr{IP: group, Port: 70}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if _, err := self.Recv(time.Second); err != nil {
		t.Fatalf("loopback packet lost despite LossRate=1: %v", err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	n := newTestNet(t, Config{LANLatency: time.Millisecond})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	l, err := b.ListenTCP(8080)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	type result struct {
		data []byte
		err  error
	}
	echoDone := make(chan result, 1)
	go func() {
		s, err := l.Accept()
		if err != nil {
			echoDone <- result{err: err}
			return
		}
		buf := make([]byte, 64)
		nr, err := s.Read(buf)
		if err != nil {
			echoDone <- result{err: err}
			return
		}
		if _, err := s.Write(buf[:nr]); err != nil {
			echoDone <- result{err: err}
			return
		}
		s.Close()
		echoDone <- result{data: buf[:nr]}
	}()

	s, err := a.DialTCP(Addr{IP: "10.0.0.2", Port: 8080})
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	if _, err := s.Write([]byte("ping")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 64)
	nr, err := s.Read(buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(buf[:nr]) != "ping" {
		t.Errorf("echo = %q", buf[:nr])
	}
	r := <-echoDone
	if r.err != nil {
		t.Fatalf("server: %v", r.err)
	}
	// After peer close, further reads reach EOF.
	if _, err := s.Read(buf); !errors.Is(err, io.EOF) {
		t.Errorf("got %v, want io.EOF", err)
	}
}

func TestTCPConnRefused(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	n.MustAddHost("b", "10.0.0.2")
	if _, err := a.DialTCP(Addr{IP: "10.0.0.2", Port: 80}); !errors.Is(err, ErrConnRefused) {
		t.Fatalf("got %v, want ErrConnRefused", err)
	}
	if _, err := a.DialTCP(Addr{IP: "10.9.9.9", Port: 80}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("got %v, want ErrNoRoute", err)
	}
}

func TestTCPReadTimeout(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	s, err := a.DialTCP(Addr{IP: "10.0.0.2", Port: 80})
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	if _, err := l.AcceptTimeout(time.Second); err != nil {
		t.Fatalf("Accept: %v", err)
	}
	s.SetReadTimeout(10 * time.Millisecond)
	buf := make([]byte, 8)
	if _, err := s.Read(buf); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

func TestNetworkCloseStopsEverything(t *testing.T) {
	n := New(Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	conn, err := a.ListenUDP(5)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	n.Close()
	if _, err := conn.Recv(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after network close: got %v, want ErrClosed", err)
	}
	if err := conn.WriteTo([]byte("x"), Addr{IP: "10.0.0.1", Port: 5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("WriteTo after network close: got %v, want ErrClosed", err)
	}
	// Double close must be safe.
	n.Close()
}

func TestMetricsAccounting(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")

	recv, err := b.ListenUDP(427)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := recv.JoinGroup("239.255.255.253"); err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := send.WriteTo(make([]byte, 100), Addr{IP: "239.255.255.253", Port: 427}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if err := send.WriteTo(make([]byte, 50), Addr{IP: "10.0.0.2", Port: 427}); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	for i := 0; i < 2; i++ {
		if _, err := recv.Recv(time.Second); err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
	}
	st := n.Metrics().Port(427)
	if st.Packets != 2 || st.Bytes != 150 || st.MulticastBytes != 100 {
		t.Errorf("stat = %+v, want 2 packets, 150 bytes, 100 multicast", st)
	}
	n.Metrics().Reset()
	if st := n.Metrics().Port(427); st.Packets != 0 {
		t.Errorf("after reset: %+v", st)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	recv, err := b.ListenUDP(9)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	// Nothing reads recv, so the queue must eventually overflow without
	// blocking the sender or the scheduler.
	total := udpQueueCap * 2
	for i := 0; i < total; i++ {
		if err := send.WriteTo([]byte{1}, Addr{IP: "10.0.0.2", Port: 9}); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
	}
	// Metrics count a packet at send time, but the scheduler delivers it
	// later: drain only once every overflowing packet has been dropped,
	// or in-flight ones would refill the slots the drain frees.
	want := int64(total - udpQueueCap)
	deadline := time.Now().Add(2 * time.Second)
	for n.Metrics().Port(9).DroppedPackets < want {
		if time.Now().After(deadline) {
			t.Fatalf("dropped %d packets after queue overflow, want %d",
				n.Metrics().Port(9).DroppedPackets, want)
		}
		time.Sleep(time.Millisecond)
	}
	got := 0
	for {
		if _, err := recv.Recv(20 * time.Millisecond); err != nil {
			break
		}
		got++
	}
	if got != udpQueueCap {
		t.Errorf("received %d packets, want exactly queue capacity %d", got, udpQueueCap)
	}
}

func TestParseAddr(t *testing.T) {
	tests := []struct {
		in      string
		want    Addr
		wantErr bool
	}{
		{"10.0.0.1:427", Addr{IP: "10.0.0.1", Port: 427}, false},
		{"239.255.255.250:1900", Addr{IP: "239.255.255.250", Port: 1900}, false},
		{"nope", Addr{}, true},
		{":80", Addr{}, true},
		{"10.0.0.1:notaport", Addr{}, true},
		{"10.0.0.1:70000", Addr{}, true},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseAddr(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a, b, c, d uint8, port uint16) bool {
		addr := Addr{
			IP:   "10.0.0.1",
			Port: int(port),
		}
		_ = a
		_ = b
		_ = c
		_ = d
		back, err := ParseAddr(addr.String())
		return err == nil && back == addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsMulticastIP(t *testing.T) {
	tests := []struct {
		ip   string
		want bool
	}{
		{"224.0.0.1", true},
		{"239.255.255.253", true},
		{"223.255.255.255", false},
		{"240.0.0.1", false},
		{"10.0.0.1", false},
		{"garbage", false},
		{"", false},
	}
	for _, tt := range tests {
		if got := IsMulticastIP(tt.ip); got != tt.want {
			t.Errorf("IsMulticastIP(%q) = %v, want %v", tt.ip, got, tt.want)
		}
	}
}

func TestSharedMulticastListener(t *testing.T) {
	// A monitor-style shared binder coexists with an exclusive binder on
	// the same port: both hear multicast; only the exclusive binder hears
	// unicast.
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	const group, port = "239.255.255.253", 427

	exclusive, err := b.ListenUDP(port)
	if err != nil {
		t.Fatalf("ListenUDP: %v", err)
	}
	if err := exclusive.JoinGroup(group); err != nil {
		t.Fatal(err)
	}
	shared, err := b.ListenMulticastUDP(port)
	if err != nil {
		t.Fatalf("ListenMulticastUDP: %v", err)
	}
	if err := shared.JoinGroup(group); err != nil {
		t.Fatal(err)
	}

	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := send.WriteTo([]byte("mc"), Addr{IP: group, Port: port}); err != nil {
		t.Fatal(err)
	}
	if _, err := exclusive.Recv(time.Second); err != nil {
		t.Errorf("exclusive missed multicast: %v", err)
	}
	if _, err := shared.Recv(time.Second); err != nil {
		t.Errorf("shared missed multicast: %v", err)
	}

	if err := send.WriteTo([]byte("uc"), Addr{IP: "10.0.0.2", Port: port}); err != nil {
		t.Fatal(err)
	}
	if _, err := exclusive.Recv(time.Second); err != nil {
		t.Errorf("exclusive missed unicast: %v", err)
	}
	if _, err := shared.Recv(20 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("shared should not hear unicast, got %v", err)
	}

	// Shared binder close releases only itself.
	shared.Close()
	if _, err := b.ListenMulticastUDP(port); err != nil {
		t.Errorf("rebind shared after close: %v", err)
	}
	if _, err := b.ListenMulticastUDP(0); err == nil {
		t.Error("shared bind to port 0 should fail")
	}
}

func TestSharedMulticastManyBinders(t *testing.T) {
	n := newTestNet(t, Config{})
	a := n.MustAddHost("a", "10.0.0.1")
	const group, port = "239.0.0.9", 1900

	var conns []netapi.PacketConn
	for i := 0; i < 3; i++ {
		c, err := a.ListenMulticastUDP(port)
		if err != nil {
			t.Fatalf("binder %d: %v", i, err)
		}
		if err := c.JoinGroup(group); err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := send.WriteTo([]byte("x"), Addr{IP: group, Port: port}); err != nil {
		t.Fatal(err)
	}
	for i, c := range conns {
		if _, err := c.Recv(time.Second); err != nil {
			t.Errorf("binder %d missed multicast: %v", i, err)
		}
	}
}

func TestSleepPreciseAccuracy(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts wall-clock precision")
	}
	// The experiments depend on sub-millisecond delay fidelity; allow
	// generous absolute error but catch millisecond-scale overshoot.
	for _, d := range []time.Duration{200 * time.Microsecond, 1 * time.Millisecond, 5 * time.Millisecond} {
		start := time.Now()
		SleepPrecise(d)
		got := time.Since(start)
		if got < d {
			t.Errorf("SleepPrecise(%v) woke early after %v", d, got)
		}
		if got > d+800*time.Microsecond {
			t.Errorf("SleepPrecise(%v) overshot to %v", d, got)
		}
	}
	SleepPrecise(0)  // no-op
	SleepPrecise(-1) // no-op
}

func TestSchedulerSubMillisecondDelivery(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation distorts wall-clock precision")
	}
	n := newTestNet(t, Config{LANLatency: 300 * time.Microsecond})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	recv, err := b.ListenUDP(9)
	if err != nil {
		t.Fatal(err)
	}
	send, err := a.ListenUDP(0)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]time.Duration, 0, 20)
	for i := 0; i < 20; i++ {
		start := time.Now()
		if err := send.WriteTo([]byte{1}, Addr{IP: "10.0.0.2", Port: 9}); err != nil {
			t.Fatal(err)
		}
		if _, err := recv.Recv(time.Second); err != nil {
			t.Fatal(err)
		}
		elapsed := time.Since(start)
		if elapsed < 300*time.Microsecond {
			t.Fatalf("delivered before the link delay: %v", elapsed)
		}
		samples = append(samples, elapsed)
	}
	// The 19th of 20 sorted samples: one delivery may lose its time slice
	// on a shared machine without the scheduler having lost precision.
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	if p95 := samples[len(samples)-2]; p95 > 2*time.Millisecond {
		t.Errorf("19th of 20 sub-ms deliveries took %v; scheduler precision lost", p95)
	}
}

func TestTCPLargeTransferOrdering(t *testing.T) {
	// A big write followed by small writes and a close must arrive in
	// order: the FIN may not overtake data despite its smaller link
	// delay (the send-clock invariant).
	n := newTestNet(t, Config{LANLatency: 200 * time.Microsecond, BandwidthBps: 10_000_000})
	a := n.MustAddHost("a", "10.0.0.1")
	b := n.MustAddHost("b", "10.0.0.2")
	l, err := b.ListenTCP(80)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 1)
	go func() {
		s, err := l.Accept()
		if err != nil {
			return
		}
		var all []byte
		buf := make([]byte, 4096)
		for {
			nr, err := s.Read(buf)
			all = append(all, buf[:nr]...)
			if err != nil {
				break
			}
		}
		got <- all
	}()
	s, err := a.DialTCP(Addr{IP: "10.0.0.2", Port: 80})
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 20_000)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := s.Write(big); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	all := <-got
	if len(all) != len(big)+4 {
		t.Fatalf("received %d bytes, want %d (EOF overtook data?)", len(all), len(big)+4)
	}
	if string(all[len(big):]) != "tail" {
		t.Error("segments reordered")
	}
}

package main

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"indiss/internal/netapi"
)

// span is one timed stage of a request, recorded by the benchmark around
// its calls into the system. Spans of one request share Req; Parent
// indexes the run's span list, -1 for a request's root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
}

// appendLookupSpans records one lookup: the root spans its due time to
// its answer, with the queueing, marshal, wait, parse and check stages
// as children. epoch anchors the run's nanosecond clock.
func appendLookupSpans(spans []span, epoch time.Time, req uint64, due, dequeued time.Time, st *stamps, done time.Time) []span {
	ns := func(t time.Time) int64 { return t.Sub(epoch).Nanoseconds() }
	root := len(spans)
	return append(spans,
		span{"lookup", ns(due), ns(done), -1, req},
		span{"queue", ns(due), ns(dequeued), root, req},
		span{"client.marshal", ns(st.start), ns(st.sent), root, req},
		span{"wait", ns(st.sent), ns(st.recv), root, req},
		span{"client.parse", ns(st.recv), ns(st.parsed), root, req},
		span{"check", ns(st.parsed), ns(st.checked), root, req},
	)
}

// mergeSpans concatenates per-loop span lists, rebasing parent indexes.
func mergeSpans(lists ...[]span) []span {
	var out []span
	for _, l := range lists {
		base := len(out)
		for _, s := range l {
			if s.Parent >= 0 {
				s.Parent += base
			}
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns every span's self time by name: its duration minus
// the part of its interval its children's union covers.
func selfTimes(spans []span) map[string][]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make(map[string][]time.Duration)
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-covered(iv)))
	}
	return out
}

// covered is the total length of the union of intervals (sorted in
// place).
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}

// netTap wraps the gateway's network stack: it counts what the gateway
// sends and, while timing, how long each send spends in the fabric. A
// saving that shows up only here is a fabric saving, not a product one.
type netTap struct {
	netapi.Stack

	udpTx    atomic.Uint64
	tcpBytes atomic.Uint64
	timing   atomic.Bool

	mu   sync.Mutex
	txNs []time.Duration
}

func (t *netTap) observe(d time.Duration) {
	t.mu.Lock()
	t.txNs = append(t.txNs, d)
	t.mu.Unlock()
}

// timed runs one send, timing it while the tap is timing.
func (t *netTap) timed(send func()) {
	if !t.timing.Load() {
		send()
		return
	}
	t0 := time.Now()
	send()
	t.observe(time.Since(t0))
}

func (t *netTap) ListenUDP(port int) (netapi.PacketConn, error) {
	c, err := t.Stack.ListenUDP(port)
	if err != nil {
		return nil, err
	}
	return &tapConn{c, t}, nil
}

func (t *netTap) ListenMulticastUDP(port int) (netapi.PacketConn, error) {
	c, err := t.Stack.ListenMulticastUDP(port)
	if err != nil {
		return nil, err
	}
	return &tapConn{c, t}, nil
}

func (t *netTap) ListenTCP(port int) (netapi.Listener, error) {
	l, err := t.Stack.ListenTCP(port)
	if err != nil {
		return nil, err
	}
	return &tapListener{l, t}, nil
}

func (t *netTap) DialTCP(addr netapi.Addr) (netapi.Stream, error) {
	s, err := t.Stack.DialTCP(addr)
	if err != nil {
		return nil, err
	}
	return &tapStream{s, t}, nil
}

type tapConn struct {
	netapi.PacketConn
	tap *netTap
}

func (c *tapConn) WriteTo(payload []byte, dst netapi.Addr) (err error) {
	c.tap.udpTx.Add(1)
	c.tap.timed(func() { err = c.PacketConn.WriteTo(payload, dst) })
	return err
}

type tapListener struct {
	netapi.Listener
	tap *netTap
}

func (l *tapListener) Accept() (netapi.Stream, error) {
	s, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapStream{s, l.tap}, nil
}

func (l *tapListener) AcceptTimeout(timeout time.Duration) (netapi.Stream, error) {
	s, err := l.Listener.AcceptTimeout(timeout)
	if err != nil {
		return nil, err
	}
	return &tapStream{s, l.tap}, nil
}

type tapStream struct {
	netapi.Stream
	tap *netTap
}

func (s *tapStream) Write(p []byte) (n int, err error) {
	s.tap.timed(func() { n, err = s.Stream.Write(p) })
	s.tap.tcpBytes.Add(uint64(n))
	return n, err
}

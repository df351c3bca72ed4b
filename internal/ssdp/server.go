package ssdp

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"indiss/internal/netapi"
)

// Advertisement is one (NT, USN) pair a server announces and answers
// searches for. A UPnP root device advertises several: upnp:rootdevice,
// its uuid, its device type, and each service type (UDA 1.0 §1.1.2).
type Advertisement struct {
	NT       string
	USN      string
	Location string
}

// ServerConfig tunes an SSDP server.
type ServerConfig struct {
	// Server is the product token sent in SERVER headers.
	Server string
	// MaxAge is the advertised cache lifetime in seconds.
	MaxAge int
	// NotifyInterval spaces periodic ssdp:alive bursts. Zero announces
	// only once at startup.
	NotifyInterval time.Duration
	// ProcessingDelay models stack overhead per handled datagram — the
	// CyberLink profile of DESIGN.md §5.
	ProcessingDelay time.Duration
	// Seed makes MX jitter reproducible; zero picks a fixed default.
	Seed int64
}

// Server is the device-side SSDP engine: it answers M-SEARCHes for its
// advertisements and multicasts alive/byebye notifications.
type Server struct {
	host netapi.Stack
	conn netapi.PacketConn
	cfg  ServerConfig

	ads []Advertisement // fixed at construction, so read without a lock

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewServer binds the SSDP port on host, announces the advertisements,
// and starts serving searches. When another stack on the host already
// holds 1900 exclusively, the server falls back to a shared
// multicast-only binder — the SO_REUSEADDR pattern real UPnP stacks use
// so several devices coexist on one machine. Searches arrive by
// multicast either way; only unicast M-SEARCH (rare, and unused by the
// bridge) needs the exclusive socket.
func NewServer(host netapi.Stack, cfg ServerConfig, ads []Advertisement) (*Server, error) {
	conn, err := host.ListenUDP(Port)
	if errors.Is(err, netapi.ErrPortInUse) {
		conn, err = host.ListenMulticastUDP(Port)
	}
	if err != nil {
		return nil, fmt.Errorf("ssdp server: %w", err)
	}
	if err := conn.JoinGroup(MulticastGroup); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ssdp server: %w", err)
	}
	if cfg.MaxAge <= 0 {
		cfg.MaxAge = 1800
	}
	if cfg.Server == "" {
		cfg.Server = "simnet/1.0 UPnP/1.0 indiss/1.0"
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	s := &Server{
		host: host,
		conn: conn,
		cfg:  cfg,
		ads:  append([]Advertisement(nil), ads...),
		rng:  rand.New(rand.NewSource(seed)),
		stop: make(chan struct{}),
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.serve()
	}()
	s.notifyAll(NTSAlive)
	if cfg.NotifyInterval > 0 {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.announce()
		}()
	}
	return s, nil
}

// Close sends byebye for every advertisement and stops the server.
func (s *Server) Close() {
	select {
	case <-s.stop:
		return
	default:
	}
	s.notifyAll(NTSByeBye)
	close(s.stop)
	s.conn.Close()
	s.wg.Wait()
}

func (s *Server) serve() {
	for {
		dg, err := s.conn.Recv(0)
		if err != nil {
			return
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		search, ok := msg.(*SearchRequest)
		if !ok {
			continue
		}
		if s.cfg.ProcessingDelay > 0 {
			netapi.SleepPrecise(s.cfg.ProcessingDelay)
		}
		s.answer(search, dg.Src)
	}
}

// answer sends one unicast response per matching advertisement, after a
// random delay within MX seconds (UDA 1.0 §1.2.3).
func (s *Server) answer(search *SearchRequest, dst netapi.Addr) {
	for _, ad := range s.ads {
		if !TargetMatches(search.ST, ad.NT) {
			continue
		}
		st := search.ST
		if st == TargetAll {
			st = ad.NT
		}
		resp := &SearchResponse{
			ST:       st,
			USN:      ad.USN,
			Location: ad.Location,
			Server:   s.cfg.Server,
			MaxAge:   s.cfg.MaxAge,
		}
		s.jitter(search.MX)
		_ = s.conn.WriteTo(resp.Marshal(), dst)
	}
}

// jitter sleeps a random duration within mx seconds. MX 0 — which the
// paper's composed M-SEARCH uses ("MX: 0") — responds immediately.
func (s *Server) jitter(mx int) {
	if mx <= 0 {
		return
	}
	s.mu.Lock()
	d := time.Duration(s.rng.Int63n(int64(mx) * int64(time.Second)))
	s.mu.Unlock()
	netapi.SleepPrecise(d)
}

func (s *Server) announce() {
	ticker := time.NewTicker(s.cfg.NotifyInterval)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
			s.notifyAll(NTSAlive)
		}
	}
}

func (s *Server) notifyAll(nts string) {
	for _, ad := range s.ads {
		s.sendNotify(ad, nts)
	}
}

func (s *Server) sendNotify(ad Advertisement, nts string) {
	n := &Notify{
		NT:       ad.NT,
		NTS:      nts,
		USN:      ad.USN,
		Location: ad.Location,
		Server:   s.cfg.Server,
		MaxAge:   s.cfg.MaxAge,
	}
	dst := netapi.Addr{IP: MulticastGroup, Port: Port}
	_ = s.conn.WriteTo(n.Marshal(), dst)
}

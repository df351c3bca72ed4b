package jini

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"indiss/internal/netapi"
)

// LookupConfig tunes a lookup service.
type LookupConfig struct {
	// Groups the lookup service serves; empty means the public group.
	Groups []string
	// AnnounceInterval spaces multicast announcements. Zero announces
	// only at boot.
	AnnounceInterval time.Duration
	// UnicastPort is the TCP port of unicast discovery (default 4160).
	UnicastPort int
	// Items, when set, supplies items the lookup service serves beside
	// its registrations. Lookup calls it with the template on every
	// lookup and keeps the returned items the template matches, so it
	// may return a superset. It is called with no lock held.
	Items func(ServiceTemplate) []ServiceItem
}

func (c LookupConfig) groups() []string {
	if len(c.Groups) == 0 {
		return []string{"public"}
	}
	return c.Groups
}

// LookupService is the Jini repository ("reggie"): it hears multicast
// requests, announces itself, and serves register/lookup over unicast TCP.
type LookupService struct {
	host netapi.Stack
	udp  netapi.PacketConn
	tcp  netapi.Listener
	cfg  LookupConfig

	mu    sync.Mutex
	items map[ServiceID]ServiceItem
	seq   uint64

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewLookupService starts a lookup service on host.
func NewLookupService(host netapi.Stack, cfg LookupConfig) (*LookupService, error) {
	if cfg.UnicastPort == 0 {
		cfg.UnicastPort = Port
	}
	udp, err := host.ListenUDP(Port)
	if err != nil {
		return nil, fmt.Errorf("jini lookup: %w", err)
	}
	if err := udp.JoinGroup(RequestGroup); err != nil {
		udp.Close()
		return nil, fmt.Errorf("jini lookup: %w", err)
	}
	tcp, err := host.ListenTCP(cfg.UnicastPort)
	if err != nil {
		udp.Close()
		return nil, fmt.Errorf("jini lookup: %w", err)
	}
	ls := &LookupService{
		host:  host,
		udp:   udp,
		tcp:   tcp,
		cfg:   cfg,
		items: make(map[ServiceID]ServiceItem),
		stop:  make(chan struct{}),
	}
	ls.wg.Add(2)
	go func() {
		defer ls.wg.Done()
		ls.serveUDP()
	}()
	go func() {
		defer ls.wg.Done()
		ls.serveTCP()
	}()
	ls.announceOnce()
	if cfg.AnnounceInterval > 0 {
		ls.wg.Add(1)
		go func() {
			defer ls.wg.Done()
			ls.announceLoop()
		}()
	}
	return ls, nil
}

// Close stops the lookup service.
func (ls *LookupService) Close() {
	select {
	case <-ls.stop:
		return
	default:
	}
	close(ls.stop)
	ls.udp.Close()
	ls.tcp.Close()
	ls.wg.Wait()
}

// Locator returns the service's unicast discovery locator.
func (ls *LookupService) Locator() Locator {
	return Locator{Host: ls.host.IP(), Port: ls.cfg.UnicastPort}
}

// Count returns the number of registered items.
func (ls *LookupService) Count() int {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return len(ls.items)
}

// groupsOverlap implements Jini group matching: an empty requested set
// means "any group".
func groupsOverlap(requested, served []string) bool {
	if len(requested) == 0 {
		return true
	}
	for _, a := range requested {
		for _, b := range served {
			if a == b {
				return true
			}
		}
	}
	return false
}

func (ls *LookupService) serveUDP() {
	for {
		dg, err := ls.udp.Recv(0)
		if err != nil {
			return
		}
		kind, r, err := openPacket(dg.Payload)
		if err != nil || kind != kindRequest {
			continue
		}
		req, err := parseRequest(r)
		if err != nil {
			continue
		}
		if !groupsOverlap(req.Groups, ls.cfg.groups()) {
			continue
		}
		// Unicast announcement back to the requester's response port.
		data, err := marshalAnnouncement(announcement{
			Locator: ls.Locator(),
			Groups:  ls.cfg.groups(),
		})
		if err != nil {
			continue
		}
		dst := netapi.Addr{IP: dg.Src.IP, Port: req.ResponsePort}
		_ = ls.udp.WriteTo(data, dst)
	}
}

func (ls *LookupService) serveTCP() {
	for {
		s, err := ls.tcp.Accept()
		if err != nil {
			return
		}
		ls.wg.Add(1)
		go func() {
			defer ls.wg.Done()
			defer s.Close()
			ls.handleConn(s)
		}()
	}
}

// handleConn serves one unicast discovery exchange: a length-prefixed
// packet in, a length-prefixed packet out.
func (ls *LookupService) handleConn(s netapi.Stream) {
	s.SetReadTimeout(5 * time.Second)
	data, err := readFrame(s)
	if err != nil {
		return
	}
	kind, r, err := openPacket(data)
	if err != nil {
		return
	}
	var resp []byte
	switch kind {
	case kindRegister:
		resp = ls.handleRegister(r)
	case kindLookup:
		resp = ls.handleLookup(r)
	default:
		return
	}
	if resp != nil {
		_ = writeFrame(s, resp)
	}
}

func (ls *LookupService) handleRegister(r *jreader) []byte {
	item := parseItem(r)
	if r.err != nil || item.Type == "" {
		w := newPacket(kindAck)
		w.u8(0) // failure
		w.id(ServiceID{})
		return w.buf
	}
	ls.mu.Lock()
	if item.ID.IsZero() {
		ls.seq++
		// Deterministic ID assignment: host IP plus sequence.
		copy(item.ID[:], ls.host.IP())
		item.ID[14] = byte(ls.seq >> 8)
		item.ID[15] = byte(ls.seq)
	}
	ls.items[item.ID] = item
	ls.mu.Unlock()

	w := newPacket(kindAck)
	w.u8(1) // success
	w.id(item.ID)
	return w.buf
}

func (ls *LookupService) handleLookup(r *jreader) []byte {
	tmpl := parseTemplate(r)
	if r.err != nil {
		return nil
	}
	matches := ls.Lookup(tmpl)
	w := newPacket(kindResult)
	w.u16(uint16(len(matches)))
	for _, item := range matches {
		marshalItem(w, item)
	}
	return w.buf
}

// Lookup returns the registered items and the cfg.Items items that match
// the template, ordered by ID.
func (ls *LookupService) Lookup(tmpl ServiceTemplate) []ServiceItem {
	var out []ServiceItem
	ls.mu.Lock()
	for _, item := range ls.items {
		if tmpl.Matches(item) {
			out = append(out, item)
		}
	}
	ls.mu.Unlock()
	if ls.cfg.Items != nil {
		for _, item := range ls.cfg.Items(tmpl) {
			if tmpl.Matches(item) {
				out = append(out, item)
			}
		}
	}
	// Byte order is String() order: String renders fixed-width hex.
	slices.SortFunc(out, func(a, b ServiceItem) int { return bytes.Compare(a.ID[:], b.ID[:]) })
	return out
}

// Unregister removes a registration by ID.
func (ls *LookupService) Unregister(id ServiceID) bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if _, ok := ls.items[id]; !ok {
		return false
	}
	delete(ls.items, id)
	return true
}

// Matches implements template matching (Jini Lookup spec §LU.2.1).
func (t ServiceTemplate) Matches(item ServiceItem) bool {
	if !t.ID.IsZero() && t.ID != item.ID {
		return false
	}
	if t.Type != "" && !typeMatches(t.Type, item.Type) {
		return false
	}
	for _, want := range t.Attrs {
		found := false
		for _, have := range item.Attrs {
			if have.Name == want.Name && (want.Value == "" || have.Value == want.Value) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// typeMatches accepts exact matches and package-prefix matches at a '.'
// boundary, simulating Java interface assignability checks.
func typeMatches(requested, registered string) bool {
	if requested == registered {
		return true
	}
	return strings.HasPrefix(registered, requested+".")
}

func (ls *LookupService) announceLoop() {
	ticker := time.NewTicker(ls.cfg.AnnounceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ls.stop:
			return
		case <-ticker.C:
			ls.announceOnce()
		}
	}
}

func (ls *LookupService) announceOnce() {
	data, err := marshalAnnouncement(announcement{
		Locator: ls.Locator(),
		Groups:  ls.cfg.groups(),
	})
	if err != nil {
		return
	}
	dst := netapi.Addr{IP: AnnounceGroup, Port: Port}
	_ = ls.udp.WriteTo(data, dst)
}

// Frame helpers: unicast discovery packets are 16-bit length prefixed on
// the stream.

func writeFrame(s netapi.Stream, data []byte) error {
	if len(data) > 0xFFFF {
		return fmt.Errorf("%w: frame %d bytes", ErrBadPacket, len(data))
	}
	frame := make([]byte, 2+len(data))
	frame[0] = byte(len(data) >> 8)
	frame[1] = byte(len(data))
	copy(frame[2:], data)
	_, err := s.Write(frame)
	return err
}

func readFrame(s netapi.Stream) ([]byte, error) {
	header := make([]byte, 2)
	if err := readFull(s, header); err != nil {
		return nil, err
	}
	n := int(header[0])<<8 | int(header[1])
	data := make([]byte, n)
	if err := readFull(s, data); err != nil {
		return nil, err
	}
	return data, nil
}

func readFull(s netapi.Stream, buf []byte) error {
	read := 0
	for read < len(buf) {
		n, err := s.Read(buf[read:])
		read += n
		if err != nil {
			return err
		}
	}
	return nil
}

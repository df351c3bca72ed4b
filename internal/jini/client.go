package jini

import (
	"fmt"
	"time"

	"indiss/internal/netapi"
)

// ClientConfig tunes a discovery client.
type ClientConfig struct {
	// Groups of interest; empty means any.
	Groups []string
}

// Client performs Jini discovery and lookup on behalf of an application —
// the equivalent of net.jini.discovery.LookupDiscovery plus the
// ServiceRegistrar stubs.
type Client struct {
	host netapi.Stack
	cfg  ClientConfig
}

// NewClient creates a discovery client on host.
func NewClient(host netapi.Stack, cfg ClientConfig) *Client {
	return &Client{host: host, cfg: cfg}
}

// DiscoverLookup runs the multicast request protocol and returns the first
// lookup service heard.
func (c *Client) DiscoverLookup(timeout time.Duration) (Locator, error) {
	conn, err := c.host.ListenUDP(0)
	if err != nil {
		return Locator{}, fmt.Errorf("jini client: %w", err)
	}
	defer conn.Close()

	data, err := RequestPacket(c.cfg.Groups, conn.LocalAddr().Port)
	if err != nil {
		return Locator{}, err
	}
	if err := conn.WriteTo(data, netapi.Addr{IP: RequestGroup, Port: Port}); err != nil {
		return Locator{}, err
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return Locator{}, netapi.ErrTimeout
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return Locator{}, err
		}
		kind, r, err := openPacket(dg.Payload)
		if err != nil || kind != kindAnnounce {
			continue
		}
		ann, err := parseAnnouncement(r)
		if err != nil {
			continue
		}
		return ann.Locator, nil
	}
}

// ListenAnnouncements passively collects multicast announcements until the
// window closes — the passive discovery model on the Jini side.
func (c *Client) ListenAnnouncements(window time.Duration) ([]Locator, error) {
	conn, err := c.host.ListenUDP(Port)
	if err != nil {
		return nil, fmt.Errorf("jini client: %w", err)
	}
	defer conn.Close()
	if err := conn.JoinGroup(AnnounceGroup); err != nil {
		return nil, fmt.Errorf("jini client: %w", err)
	}
	deadline := time.Now().Add(window)
	seen := make(map[string]struct{})
	var out []Locator
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return out, nil
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return out, nil
		}
		kind, r, err := openPacket(dg.Payload)
		if err != nil || kind != kindAnnounce {
			continue
		}
		ann, err := parseAnnouncement(r)
		if err != nil {
			continue
		}
		if !GroupsOverlap(c.cfg.Groups, ann.Groups) {
			continue
		}
		key := ann.Locator.String()
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, ann.Locator)
	}
}

// Register registers a service item with the lookup service at loc and
// returns the (possibly newly assigned) service ID.
func (c *Client) Register(loc Locator, item ServiceItem, timeout time.Duration) (ServiceID, error) {
	w := newPacket(kindRegister)
	marshalItem(w, item)
	if w.err != nil {
		return ServiceID{}, w.err
	}
	resp, err := c.exchange(loc, w.buf, timeout)
	if err != nil {
		return ServiceID{}, err
	}
	kind, r, err := openPacket(resp)
	if err != nil || kind != kindAck {
		return ServiceID{}, fmt.Errorf("%w: unexpected register reply", ErrBadPacket)
	}
	okFlag := r.u8()
	id := r.id()
	if r.err != nil {
		return ServiceID{}, r.err
	}
	if okFlag != 1 {
		return ServiceID{}, fmt.Errorf("jini client: registration rejected")
	}
	return id, nil
}

// Lookup queries the lookup service at loc for items matching the
// template.
func (c *Client) Lookup(loc Locator, tmpl ServiceTemplate, timeout time.Duration) ([]ServiceItem, error) {
	w := newPacket(kindLookup)
	marshalTemplate(w, tmpl)
	if w.err != nil {
		return nil, w.err
	}
	resp, err := c.exchange(loc, w.buf, timeout)
	if err != nil {
		return nil, err
	}
	kind, r, err := openPacket(resp)
	if err != nil || kind != kindResult {
		return nil, fmt.Errorf("%w: unexpected lookup reply", ErrBadPacket)
	}
	n := int(r.u16())
	items := make([]ServiceItem, 0, n)
	for i := 0; i < n && r.err == nil; i++ {
		items = append(items, parseItem(r))
	}
	if r.err != nil {
		return nil, r.err
	}
	return items, nil
}

// Find runs the full discovery chain: find a lookup service, then query
// it — the Jini client waiting time INDISS competes with.
func (c *Client) Find(tmpl ServiceTemplate, timeout time.Duration) ([]ServiceItem, error) {
	deadline := time.Now().Add(timeout)
	loc, err := c.DiscoverLookup(timeout)
	if err != nil {
		return nil, err
	}
	remaining := time.Until(deadline)
	if remaining <= 0 {
		return nil, netapi.ErrTimeout
	}
	return c.Lookup(loc, tmpl, remaining)
}

// exchange performs one framed TCP round trip.
func (c *Client) exchange(loc Locator, packet []byte, timeout time.Duration) ([]byte, error) {
	s, err := c.host.DialTCP(netapi.Addr{IP: loc.Host, Port: loc.Port})
	if err != nil {
		return nil, fmt.Errorf("jini client: %w", err)
	}
	defer s.Close()
	if timeout > 0 {
		s.SetReadTimeout(timeout)
	}
	if err := writeFrame(s, packet); err != nil {
		return nil, err
	}
	return readFrame(s)
}

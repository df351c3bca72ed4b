package ssdp

import (
	"fmt"
	"sync"
	"time"

	"indiss/internal/netapi"
)

// ClientConfig tunes an SSDP client (the discovery half of a UPnP control
// point).
type ClientConfig struct {
	// ProcessingDelay models stack overhead per handled datagram.
	ProcessingDelay time.Duration
}

// Client issues M-SEARCHes and listens for notifications.
type Client struct {
	host netapi.Stack
	cfg  ClientConfig
}

// NewClient creates an SSDP client on host.
func NewClient(host netapi.Stack, cfg ClientConfig) *Client {
	return &Client{host: host, cfg: cfg}
}

func (c *Client) delay() {
	if c.cfg.ProcessingDelay > 0 {
		netapi.SleepPrecise(c.cfg.ProcessingDelay)
	}
}

// SearchFirst multicasts an M-SEARCH and returns the first matching
// response — the client waiting time the paper measures.
func (c *Client) SearchFirst(target string, mx int, timeout time.Duration) (*SearchResponse, error) {
	conn, err := c.host.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("ssdp client: %w", err)
	}
	defer conn.Close()

	req := &SearchRequest{ST: target, MX: mx}
	c.delay()
	if err := conn.WriteTo(req.Marshal(), netapi.Addr{IP: MulticastGroup, Port: Port}); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return nil, netapi.ErrTimeout
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return nil, err
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		resp, ok := msg.(*SearchResponse)
		if !ok {
			continue
		}
		c.delay()
		return resp, nil
	}
}

// Search multicasts an M-SEARCH and collects every response until the
// window (mx seconds, at least one RetryWindow) closes. Responses are
// deduplicated by USN+ST.
func (c *Client) Search(target string, mx int, window time.Duration) ([]*SearchResponse, error) {
	conn, err := c.host.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("ssdp client: %w", err)
	}
	defer conn.Close()

	req := &SearchRequest{ST: target, MX: mx}
	c.delay()
	if err := conn.WriteTo(req.Marshal(), netapi.Addr{IP: MulticastGroup, Port: Port}); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(window)
	seen := make(map[string]struct{})
	var out []*SearchResponse
	for {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return out, nil
		}
		dg, err := conn.Recv(remaining)
		if err != nil {
			return out, nil
		}
		msg, err := Parse(dg.Payload)
		if err != nil {
			continue
		}
		resp, ok := msg.(*SearchResponse)
		if !ok {
			continue
		}
		key := resp.USN + "|" + resp.ST
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		out = append(out, resp)
	}
}

// NotifyHandler observes multicast NOTIFY announcements.
type NotifyHandler func(*Notify)

// Listener passively listens for NOTIFY announcements on the SSDP group —
// the passive discovery model on the UPnP side.
type Listener struct {
	conn netapi.PacketConn
	wg   sync.WaitGroup
}

// Listen binds the SSDP port (it must be free on this host) and invokes
// handler for each announcement heard.
func Listen(host netapi.Stack, handler NotifyHandler) (*Listener, error) {
	conn, err := host.ListenUDP(Port)
	if err != nil {
		return nil, fmt.Errorf("ssdp listen: %w", err)
	}
	if err := conn.JoinGroup(MulticastGroup); err != nil {
		conn.Close()
		return nil, fmt.Errorf("ssdp listen: %w", err)
	}
	l := &Listener{conn: conn}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			dg, err := conn.Recv(0)
			if err != nil {
				return
			}
			msg, err := Parse(dg.Payload)
			if err != nil {
				continue
			}
			if n, ok := msg.(*Notify); ok {
				handler(n)
			}
		}
	}()
	return l, nil
}

// Close stops the listener.
func (l *Listener) Close() {
	l.conn.Close()
	l.wg.Wait()
}

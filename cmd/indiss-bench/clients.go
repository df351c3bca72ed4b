package main

import (
	"bytes"
	"fmt"
	"strconv"
	"time"

	"indiss"
	"indiss/internal/dnssd"
	"indiss/internal/jini"
	"indiss/internal/netapi"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// The benchmark's clients are thin on purpose: each lookup is one
// marshal, one send, and the first reply that answers this request,
// parsed and checked. The library clients would put their own timers on
// the timed path (the DNS-SD querier drains for 10ms after the first
// answer, the SLP user agent retransmits), swamping the gateway's cost.

// lookupTimeout bounds one lookup; a lookup that runs out counts as
// failed and as missing every latency limit.
const lookupTimeout = time.Second

// proto is the native protocol a benchmark client speaks.
type proto uint8

const (
	protoSLP proto = iota
	protoSSDP
	protoDNSSD
	protoJini
	protoHTTP
)

// target is one kind of lookup a workload issues, and what a correct
// answer to it carries.
type target struct {
	// name groups the target for per-pairing reporting: a bridged
	// pairing "client-service" or a query class.
	name  string
	proto proto
	// kind is the canonical service kind asked for.
	kind string
	// endpoint is the service's endpoint as the bridge records it.
	endpoint string
	// want is what a correct answer must carry: the SLP URL, the SSDP
	// LOCATION (learned and verified at set-up), the DNS-SD url TXT
	// value or the Jini item endpoint.
	want string
	// pred is the SLP predicate of a query-plane lookup, path its
	// request target and count the records a correct answer lists.
	pred  string
	path  string
	count int
}

// stamps are the boundaries of one lookup's client-side stages, the
// children of its span in a traced run.
type stamps struct {
	start, sent, recv, parsed, checked time.Time
}

// client is one client loop's protocol endpoints: a UDP socket for the
// multicast SDPs, a Jini client for registrar lookups and a keep-alive
// HTTP connection to the query plane.
type client struct {
	stack     indiss.Stack
	conn      netapi.PacketConn
	jini      *jini.Client
	registrar jini.Locator
	http      *httpConn
	id        uint16
}

func newClient(stack indiss.Stack, gwIP string, queryAddr netapi.Addr) (*client, error) {
	conn, err := stack.ListenUDP(0)
	if err != nil {
		return nil, fmt.Errorf("client socket: %w", err)
	}
	return &client{
		stack:     stack,
		conn:      conn,
		jini:      jini.NewClient(stack, jini.ClientConfig{}),
		registrar: jini.Locator{Host: gwIP, Port: 4161}, // the Jini unit's default registrar port
		http:      newHTTPConn(stack, queryAddr),
	}, nil
}

func (c *client) close() {
	c.conn.Close()
	c.http.close()
}

// lookup performs one lookup and checks its answer. It returns what the
// answer carried (the SSDP LOCATION is learned this way at set-up).
func (c *client) lookup(t *target, st *stamps) (string, error) {
	st.start = time.Now()
	switch t.proto {
	case protoJini:
		return c.jiniLookup(t, st)
	case protoHTTP:
		return "", c.httpLookup(t, st)
	default:
		return c.datagramLookup(t, st)
	}
}

func (c *client) nextID() uint16 {
	c.id++
	if c.id == 0 {
		c.id = 1
	}
	return c.id
}

// datagramLookup multicasts one SLP SrvRqst, SSDP M-SEARCH or DNS-SD PTR
// query and takes the first reply that answers it.
func (c *client) datagramLookup(t *target, st *stamps) (string, error) {
	id := c.nextID()
	payload, dst, err := marshalQuery(t, id)
	if err != nil {
		return "", err
	}
	st.sent = time.Now()
	if err := c.conn.WriteTo(payload, dst); err != nil {
		return "", fmt.Errorf("%s: send: %w", t.name, err)
	}
	deadline := st.start.Add(lookupTimeout)
	for {
		dg, err := c.conn.Recv(time.Until(deadline))
		if err != nil {
			return "", fmt.Errorf("%s: no answer: %w", t.name, err)
		}
		st.recv = time.Now()
		reply, err := parseReply(t.proto, dg.Payload)
		st.parsed = time.Now()
		if err != nil {
			continue // not a message of this protocol: nothing to check
		}
		got, matched, err := checkReply(t, reply, id)
		st.checked = time.Now()
		if matched {
			return got, err
		}
		// A late reply to an earlier, timed-out lookup: keep waiting.
	}
}

// marshalQuery renders the native query for t with transaction id id.
func marshalQuery(t *target, id uint16) ([]byte, netapi.Addr, error) {
	switch t.proto {
	case protoSLP:
		req := &slp.SrvRqst{
			Hdr:         slp.Header{XID: id, Flags: slp.FlagRequestMcast, Lang: slp.DefaultLang},
			ServiceType: "service:" + t.kind,
			Scopes:      []string{slp.DefaultScope},
		}
		data, err := req.Marshal()
		return data, netapi.Addr{IP: slp.MulticastGroup, Port: slp.Port}, err
	case protoSSDP:
		req := &ssdp.SearchRequest{ST: upnp.TypeURN(t.kind, 1), MX: 1}
		return req.Marshal(), netapi.Addr{IP: ssdp.MulticastGroup, Port: ssdp.Port}, nil
	default:
		q := &dnssd.Message{ID: id, Questions: []dnssd.Question{{Name: dnssd.ServiceType(t.kind), Type: dnssd.TypePTR}}}
		return q.Marshal(), netapi.Addr{IP: dnssd.MulticastGroup, Port: dnssd.Port}, nil
	}
}

// dnsReply is a parsed DNS-SD response with its resolved instances.
type dnsReply struct {
	msg   *dnssd.Message
	insts []dnssd.Instance
}

// parseReply runs the protocol's codec over one received datagram.
func parseReply(p proto, payload []byte) (any, error) {
	switch p {
	case protoSLP:
		return slp.Parse(payload)
	case protoSSDP:
		return ssdp.Parse(payload)
	default:
		msg, err := dnssd.Parse(payload)
		if err != nil {
			return nil, err
		}
		return dnsReply{msg, dnssd.InstancesFromMessage(msg)}, nil
	}
}

// checkReply reports whether reply answers the lookup with transaction
// id id (matched), and if so whether it carries t.want. An empty want
// accepts any answer; set-up uses that to learn SSDP locations.
func checkReply(t *target, reply any, id uint16) (got string, matched bool, err error) {
	switch r := reply.(type) {
	case *slp.SrvRply:
		if r.Hdr.XID != id {
			return "", false, nil
		}
		if r.Error != slp.ErrNone {
			return "", true, fmt.Errorf("%s: SrvRply error %v", t.name, r.Error)
		}
		for _, e := range r.URLs {
			if e.URL == t.want {
				return e.URL, true, nil
			}
		}
		return "", true, fmt.Errorf("%s: wrong endpoint: SrvRply lists %v, want %s", t.name, r.URLs, t.want)
	case *ssdp.SearchResponse:
		if r.ST != upnp.TypeURN(t.kind, 1) {
			return "", false, nil
		}
		if t.want != "" && r.Location != t.want {
			return "", true, fmt.Errorf("%s: wrong endpoint: LOCATION %s, want %s", t.name, r.Location, t.want)
		}
		return r.Location, true, nil
	case dnsReply:
		if !r.msg.Response || r.msg.ID != id {
			return "", false, nil
		}
		for _, in := range r.insts {
			if in.Text["url"] == t.want {
				return t.want, true, nil
			}
		}
		return "", true, fmt.Errorf("%s: wrong endpoint: instances %v, want url=%s", t.name, r.insts, t.want)
	}
	return "", false, nil // another protocol's message or a request
}

// jiniLookup queries the gateway's bridge registrar. Jini's codec is
// internal to its client, so marshal and parse time sit inside wait.
func (c *client) jiniLookup(t *target, st *stamps) (string, error) {
	st.sent = st.start
	items, err := c.jini.Lookup(c.registrar, jini.ServiceTemplate{Type: "org.indiss." + t.kind + ".Service"}, lookupTimeout)
	st.recv = time.Now()
	st.parsed = st.recv
	defer func() { st.checked = time.Now() }()
	if err != nil {
		return "", fmt.Errorf("%s: %w", t.name, err)
	}
	for _, it := range items {
		if it.Endpoint == t.want {
			return it.Endpoint, nil
		}
	}
	return "", fmt.Errorf("%s: wrong endpoint: registrar items %v, want %s", t.name, items, t.want)
}

// httpLookup asks the query plane over the loop's keep-alive connection.
func (c *client) httpLookup(t *target, st *stamps) error {
	req := c.http.request(t.path)
	st.sent = time.Now()
	head, body, err := c.http.roundTrip(req)
	st.recv = time.Now()
	if err != nil {
		c.http.close() // reconnect on the next lookup
		st.parsed, st.checked = st.recv, st.recv
		return fmt.Errorf("%s: %w", t.name, err)
	}
	ans, err := parseAnswer(head, body)
	st.parsed = time.Now()
	if err == nil {
		err = checkAnswer(t, ans)
	}
	st.checked = time.Now()
	if err != nil {
		return fmt.Errorf("%s %s: %w", t.name, t.path, err)
	}
	return nil
}

// answer is the part of a query-plane response the check needs.
type answer struct {
	code, count, remote int
	kind                string
}

// parseAnswer reads the status code, the declared record count, the
// number of federated records and the kind from a response.
func parseAnswer(head, body []byte) (answer, error) {
	var a answer
	if len(head) < 12 || !bytes.HasPrefix(head, []byte("HTTP/1.1 ")) {
		return a, fmt.Errorf("bad status line %q", head)
	}
	code, err := strconv.Atoi(string(head[9:12]))
	if err != nil {
		return a, fmt.Errorf("bad status %q", head[9:12])
	}
	a.code = code
	a.count, err = intAfter(body, `"count":`)
	if err != nil {
		return a, err
	}
	a.kind = stringAfter(body, `"kind":"`)
	a.remote = bytes.Count(body, []byte(`"remote":true`))
	return a, nil
}

// checkAnswer holds a query-plane answer to the target's expectation:
// every preloaded record of the kind that passes the predicate, each
// marked as learned over the federation.
func checkAnswer(t *target, a answer) error {
	switch {
	case a.code != 200:
		return fmt.Errorf("status %d", a.code)
	case a.kind != t.kind:
		return fmt.Errorf("answer for kind %q", a.kind)
	case a.count != t.count:
		return fmt.Errorf("wrong record count: %d records, want %d", a.count, t.count)
	case a.remote != t.count:
		return fmt.Errorf("%d of %d records federated", a.remote, t.count)
	}
	return nil
}

// intAfter reads the decimal number following key in b.
func intAfter(b []byte, key string) (int, error) {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("no %s in answer", key)
	}
	rest := b[i+len(key):]
	n := 0
	for n < len(rest) && rest[n] >= '0' && rest[n] <= '9' {
		n++
	}
	return strconv.Atoi(string(rest[:n]))
}

// stringAfter reads the JSON string value whose opening quote key ends
// with.
func stringAfter(b []byte, key string) string {
	i := bytes.Index(b, []byte(key))
	if i < 0 {
		return ""
	}
	rest := b[i+len(key):]
	if j := bytes.IndexByte(rest, '"'); j >= 0 {
		return string(rest[:j])
	}
	return ""
}

// httpConn is a minimal keep-alive HTTP/1.1 client over a netapi stream:
// one request in flight, Content-Length framing, reused buffers. It
// reconnects lazily after an error.
type httpConn struct {
	stack indiss.Stack
	addr  netapi.Addr
	conn  netapi.Stream
	req   []byte
	buf   []byte
}

func newHTTPConn(stack indiss.Stack, addr netapi.Addr) *httpConn {
	return &httpConn{stack: stack, addr: addr, req: make([]byte, 0, 256), buf: make([]byte, 0, 64<<10)}
}

func (h *httpConn) close() {
	if h.conn != nil {
		h.conn.Close()
		h.conn = nil
	}
}

func (h *httpConn) request(path string) []byte {
	h.req = append(h.req[:0], "GET "...)
	h.req = append(h.req, path...)
	h.req = append(h.req, " HTTP/1.1\r\nHost: gw\r\n\r\n"...)
	return h.req
}

// roundTrip writes req and reads one Content-Length-framed response,
// returning its head and body (aliasing the connection's buffer).
func (h *httpConn) roundTrip(req []byte) (head, body []byte, err error) {
	if h.conn == nil {
		conn, err := h.stack.DialTCP(h.addr)
		if err != nil {
			return nil, nil, err
		}
		conn.SetReadTimeout(lookupTimeout)
		h.conn = conn
	}
	if _, err := h.conn.Write(req); err != nil {
		return nil, nil, err
	}
	h.buf = h.buf[:0]
	headEnd, clen := -1, 0
	for headEnd < 0 || len(h.buf) < headEnd+4+clen {
		if len(h.buf) == cap(h.buf) {
			if cap(h.buf) >= 16<<20 {
				return nil, nil, fmt.Errorf("response over %d bytes", 16<<20)
			}
			h.buf = append(h.buf, make([]byte, cap(h.buf))...)[:len(h.buf)]
		}
		n, err := h.conn.Read(h.buf[len(h.buf):cap(h.buf)])
		h.buf = h.buf[:len(h.buf)+n]
		if err != nil {
			return nil, nil, err
		}
		if headEnd < 0 {
			if headEnd = bytes.Index(h.buf, []byte("\r\n\r\n")); headEnd >= 0 {
				if clen, err = intAfter(h.buf[:headEnd], "Content-Length: "); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return h.buf[:headEnd], h.buf[headEnd+4 : headEnd+4+clen], nil
}

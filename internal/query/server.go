package query

import (
	"bytes"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"indiss/internal/core"
	"indiss/internal/httpx"
	"indiss/internal/netapi"
)

// DefaultPort is the query plane's default TCP listening port, one
// above the paper-era federation port block.
const DefaultPort = 7780

// Config tunes one query server.
type Config struct {
	// ListenPort: 0 uses DefaultPort, negative binds an ephemeral port
	// (tests), positive binds that port.
	ListenPort int
	// GatewayID names this gateway in response bodies.
	GatewayID string
	// WatchRing overrides the delta ring capacity (default 4096).
	WatchRing int
}

// Server is the HTTP/JSON query endpoint: an accept loop on its own
// TCP port, keep-alive connections, one goroutine per client.
type Server struct {
	stack    netapi.Stack
	view     *core.ServiceView
	engine   *Engine
	hub      *watchHub
	listener netapi.Listener
	gwID     string
	ctrs     counters

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// New binds the query port and starts serving. The returned server
// satisfies io.Closer for the core system's query PlaneHook.
func New(stack netapi.Stack, view *core.ServiceView, cfg Config) (*Server, error) {
	port := cfg.ListenPort
	switch {
	case port == 0:
		port = DefaultPort
	case port < 0:
		port = 0 // ephemeral
	}
	l, err := stack.ListenTCP(port)
	if err != nil {
		return nil, fmt.Errorf("query: listen: %w", err)
	}
	gwID := cfg.GatewayID
	if gwID == "" {
		gwID = stack.Name()
	}
	s := &Server{
		stack:    stack,
		view:     view,
		listener: l,
		gwID:     gwID,
	}
	s.engine = NewEngine(view, gwID)
	s.engine.attach(&s.ctrs)
	s.hub = newWatchHub(view, cfg.WatchRing)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	return s, nil
}

// Addr returns the bound query endpoint.
func (s *Server) Addr() netapi.Addr { return s.listener.Addr() }

// Stats snapshots the query-plane counters.
func (s *Server) Stats() Stats { return s.ctrs.snapshot() }

// Close stops accepting, releases parked watchers and waits for
// in-flight handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.listener.Close()
	s.hub.close()
	s.wg.Wait()
	return nil
}

func (s *Server) acceptLoop() {
	for {
		st, err := s.listener.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(st)
		}()
	}
}

// idleTimeout bounds how long a keep-alive connection may sit silent
// between requests. Long-polls re-arm it per read, so a watch with
// wait up to maxWait fits.
const idleTimeout = 45 * time.Second

// serveConn runs one keep-alive connection: read a request, answer it,
// repeat. Buffers are pooled; the steady-state serve path allocates
// only what request parsing pins.
func (s *Server) serveConn(st netapi.Stream) {
	defer st.Close()
	rb := httpx.AcquireBuf()
	wb := httpx.AcquireBuf()
	defer httpx.ReleaseBuf(rb)
	defer httpx.ReleaseBuf(wb)

	for {
		st.SetReadTimeout(idleTimeout)
		raw, err := readHead(st, (*rb)[:0])
		if err != nil {
			return
		}
		*rb = raw[:0]

		method, target, ok := parseRequestLine(raw)
		out := (*wb)[:0]
		keepAlive := true
		switch {
		case !ok:
			out = s.errorResponse(out, 400, "Bad Request", "malformed request")
		case method != "GET":
			out = s.errorResponse(out, 405, "Method Not Allowed", "GET only")
		default:
			out, keepAlive = s.route(out, target, st)
		}
		if out != nil {
			if _, err := st.Write(out); err != nil {
				*wb = out[:0]
				return
			}
			s.ctrs.bytesOut.Add(uint64(len(out)))
		}
		*wb = out[:0]
		if !keepAlive || connectionClose(raw) {
			return
		}
	}
}

// route dispatches one request. It returns the response bytes (nil if
// the handler already wrote to the stream, e.g. a streamed CPU
// profile) and whether to keep the connection.
func (s *Server) route(out []byte, target string, st netapi.Stream) ([]byte, bool) {
	path, qs := splitTarget(target)
	switch {
	case path == "/v1/services":
		return s.handleServices(out, qs), true
	case path == "/v1/watch":
		return s.handleWatch(out, qs), true
	case path == "/debug/vars":
		body := s.Stats().appendVarsJSON(nil)
		return append(out, renderResponse(200, "OK", contentTypeJSON, body, false)...), true
	case strings.HasPrefix(path, "/debug/pprof/"):
		return s.handlePprof(out, path, qs, st)
	default:
		s.ctrs.badRequests.Add(1)
		return s.errorResponse(out, 404, "Not Found", "unknown path"), true
	}
}

func (s *Server) handleServices(out []byte, qs string) []byte {
	p, err := ParseQuery(qs)
	if err != nil {
		s.ctrs.badRequests.Add(1)
		return s.errorResponse(out, 400, "Bad Request", err.Error())
	}
	s.ctrs.queries.Add(1)
	out, _, err = s.engine.AppendAnswer(out, p.Kind, p.Pred, time.Now())
	if err != nil {
		s.ctrs.badRequests.Add(1)
		return s.errorResponse(out, 400, "Bad Request", err.Error())
	}
	return out
}

func (s *Server) handleWatch(out []byte, qs string) []byte {
	p, err := ParseQuery(qs)
	if err != nil {
		s.ctrs.badRequests.Add(1)
		return s.errorResponse(out, 400, "Bad Request", err.Error())
	}
	s.ctrs.watchPolls.Add(1)
	s.ctrs.watchActive.Add(1)
	body, delivered := s.hub.poll(nil, p, s.gwID)
	s.ctrs.watchActive.Add(-1)
	s.ctrs.deliveries.Add(uint64(delivered))
	return append(out, renderResponse(200, "OK", contentTypeJSON, body, false)...)
}

// handlePprof serves runtime profiles without net/http: named profiles
// render into a buffer and ship with Content-Length; the CPU profile
// streams for ?seconds=N and close-delimits the body.
func (s *Server) handlePprof(out []byte, path, qs string, st netapi.Stream) ([]byte, bool) {
	name := strings.TrimPrefix(path, "/debug/pprof/")
	if name == "profile" {
		return nil, s.streamCPUProfile(st, qs)
	}
	if name == "" {
		var b bytes.Buffer
		for _, p := range pprof.Profiles() {
			fmt.Fprintf(&b, "%s\t%d\n", p.Name(), p.Count())
		}
		return append(out, renderResponse(200, "OK", contentTypeText, b.Bytes(), false)...), true
	}
	p := pprof.Lookup(name)
	if p == nil {
		s.ctrs.badRequests.Add(1)
		return s.errorResponse(out, 404, "Not Found", "unknown profile"), true
	}
	var b bytes.Buffer
	debug := 0
	if name == "goroutine" {
		debug = 1
	}
	if err := p.WriteTo(&b, debug); err != nil {
		return s.errorResponse(out, 500, "Internal Server Error", err.Error()), true
	}
	ctype := "application/octet-stream"
	if debug > 0 {
		ctype = contentTypeText
	}
	return append(out, renderResponse(200, "OK", ctype, b.Bytes(), false)...), true
}

// streamCPUProfile writes a CPU profile straight onto the stream. The
// body is close-delimited, so the connection never outlives it.
// Returns false: the connection must close.
func (s *Server) streamCPUProfile(st netapi.Stream, qs string) bool {
	seconds := 5
	if _, val, ok := strings.Cut(qs, "seconds="); ok {
		if i := strings.IndexByte(val, '&'); i >= 0 {
			val = val[:i]
		}
		if n, err := parseUint(val); err == nil && n > 0 && n <= 120 {
			seconds = int(n)
		}
	}
	head := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nConnection: close\r\n\r\n")
	if _, err := st.Write(head); err != nil {
		return false
	}
	s.ctrs.bytesOut.Add(uint64(len(head)))
	var b bytes.Buffer
	if err := pprof.StartCPUProfile(&b); err != nil {
		return false // another profile is running; body stays empty
	}
	time.Sleep(time.Duration(seconds) * time.Second)
	pprof.StopCPUProfile()
	if _, err := st.Write(b.Bytes()); err == nil {
		s.ctrs.bytesOut.Add(uint64(b.Len()))
	}
	return false
}

func (s *Server) errorResponse(out []byte, code int, status, msg string) []byte {
	body := appendJSONString([]byte(`{"error":`), msg)
	body = append(body, '}')
	return append(out, renderResponse(code, status, contentTypeJSON, body, false)...)
}

// readHead pulls one request head (through CRLFCRLF) off the stream.
// The query API is GET-only, so request bodies are not read.
func readHead(st netapi.Stream, buf []byte) ([]byte, error) {
	for {
		if i := bytes.Index(buf, []byte("\r\n\r\n")); i >= 0 {
			return buf[:i+4], nil
		}
		if len(buf) > 16<<10 {
			return nil, fmt.Errorf("query: request head too large")
		}
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), 2*cap(buf)+1024)
			copy(grown, buf)
			buf = grown
		}
		n, err := st.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if n == 0 {
			if err == nil {
				err = io.EOF
			}
			return nil, err
		}
	}
}

// parseRequestLine extracts the method and target from the head's
// first line without splitting the rest.
func parseRequestLine(head []byte) (method, target string, ok bool) {
	end := bytes.IndexByte(head, '\r')
	if end < 0 {
		return "", "", false
	}
	line := head[:end]
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return "", "", false
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ')
	if sp2 < 0 {
		return "", "", false
	}
	return string(line[:sp1]), string(line[sp1+1 : sp1+1+sp2]), true
}

// connectionClose reports whether the request asked to drop keep-alive.
func connectionClose(head []byte) bool {
	return bytes.Contains(head, []byte("Connection: close")) ||
		bytes.Contains(head, []byte("connection: close"))
}

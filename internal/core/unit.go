package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"indiss/internal/events"
	"indiss/internal/netapi"
)

// Role is where INDISS is deployed (paper §4.2): "INDISS may be deployed
// on a client, a service or a gateway."
type Role uint8

// Deployment roles.
const (
	RoleClientSide Role = iota + 1
	RoleServiceSide
	RoleGateway
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleClientSide:
		return "client-side"
	case RoleServiceSide:
		return "service-side"
	case RoleGateway:
		return "gateway"
	default:
		return "unknown"
	}
}

// TranslationProfile models INDISS's own processing cost — the Java
// prototype's event machinery was not free, and the §4.3 figures include
// it. Zero values make translation effectively instantaneous, which is
// what tests want.
type TranslationProfile struct {
	// PerMessage is slept once per parse or compose of a native
	// message.
	PerMessage time.Duration
	// XMLParse is slept when a unit engages its XML parser after a
	// SDP_C_PARSER_SWITCH (paper §2.4), modelling the DOM cost.
	XMLParse time.Duration
}

// Delay sleeps the per-message cost.
func (p TranslationProfile) Delay() {
	if p.PerMessage > 0 {
		netapi.SleepPrecise(p.PerMessage)
	}
}

// DelayXML sleeps the XML-parse cost.
func (p TranslationProfile) DelayXML() {
	if p.XMLParse > 0 {
		netapi.SleepPrecise(p.XMLParse)
	}
}

// Unit is an INDISS protocol unit: a parser and composer coupled under a
// DFA, translating between one SDP's native messages and the semantic
// event vocabulary (paper §2.2). Units are event generators and listeners
// at the same time (§3).
type Unit interface {
	// SDP names the protocol the unit translates.
	SDP() SDP
	// Start attaches the unit to its runtime context and subscribes it
	// to the bus. A unit must be started before use.
	Start(ctx *UnitContext) error
	// HandleNative processes one raw native message captured by the
	// monitor: parse into an event stream and publish it (Figure 2
	// step ②). Implementations may block on follow-up exchanges.
	HandleNative(det Detection)
	// OnEvents consumes streams published by peer units — the composer
	// half (Figure 2 step ③).
	OnEvents(env events.Envelope)
	// SetReadvertise toggles active re-advertisement of foreign
	// services into this unit's native protocol — the passive→active
	// switch of paper §4.2 (Figure 6 bottom).
	SetReadvertise(enabled bool)
	// Stop detaches and releases the unit's resources.
	Stop()
}

// SelfFilter records the endpoints INDISS itself emits from, so the
// monitor can ignore the system's own traffic: a unit's composed native
// message must not be re-detected and translated again (a loop the paper's
// architecture avoids by construction, since its units send from sockets
// the monitor does not scan).
type SelfFilter struct {
	mu    sync.Mutex
	addrs map[netapi.Addr]struct{}
}

// NewSelfFilter returns an empty filter.
func NewSelfFilter() *SelfFilter {
	return &SelfFilter{addrs: make(map[netapi.Addr]struct{})}
}

// Mark records an endpoint as INDISS-owned.
func (f *SelfFilter) Mark(addr netapi.Addr) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.addrs[addr] = struct{}{}
}

// Has reports whether the endpoint is INDISS-owned. It runs for every
// detected datagram and does not allocate.
func (f *SelfFilter) Has(addr netapi.Addr) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.addrs[addr]
	return ok
}

// UnitContext is the runtime a unit operates in.
type UnitContext struct {
	// Stack the unit emits native traffic from.
	Stack netapi.Stack
	// Bus carries event streams between units.
	Bus *events.Bus
	// Role is the deployment placement.
	Role Role
	// View is the shared cache of services discovered so far — what
	// lets INDISS answer from knowledge instead of re-querying (the
	// paper's best case, Figure 9b).
	View *ServiceView
	// Self is where units register the endpoints they emit from.
	Self *SelfFilter
	// NoCache disables answering requests from the view: every foreign
	// request triggers fresh native exchanges. The paper's Figures 8
	// and 9a measure this cold path; Figure 9b measures the cached
	// one.
	NoCache bool
	// Profile is INDISS's own processing cost model.
	Profile TranslationProfile
	// BeforePublish, when set by the System, runs before a stream hits
	// the bus. In dynamic deployments it instantiates the configured
	// peer units when a request stream is about to be published, so
	// the translation targets exist before the stream flows (§3:
	// composition follows "the context and the hosted application
	// components" — an application's request is an instantiation
	// trigger).
	BeforePublish func(s events.Stream)
}

// Publish validates and publishes a stream on the bus under the unit's
// name. Invalid streams are a programming error surfaced loudly.
func (ctx *UnitContext) Publish(source string, s events.Stream) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("core: unit %s published invalid stream: %w", source, err)
	}
	if ctx.BeforePublish != nil {
		ctx.BeforePublish(s)
	}
	ctx.Bus.Publish(source, s)
	return nil
}

// PublishPooled is Publish for pool-backed streams: ownership of ps
// transfers to the bus (or back to the pool on validation failure), and
// each receiving unit releases its share when its composer is done — see
// PERF.md for the ownership rules.
func (ctx *UnitContext) PublishPooled(source string, ps *events.PooledStream) error {
	if err := ps.S.Validate(); err != nil {
		ps.Free()
		return fmt.Errorf("core: unit %s published invalid stream: %w", source, err)
	}
	if ctx.BeforePublish != nil {
		ctx.BeforePublish(ps.S)
	}
	ctx.Bus.PublishPooled(source, ps)
	return nil
}

// UnitFactory builds a fresh, unstarted unit.
type UnitFactory func() Unit

// Registry maps SDP names to unit factories. "Embedded parsers and
// composers are dynamically instantiated" (paper §2.2) — the registry is
// what the System instantiates from when the monitor detects a protocol.
type Registry struct {
	mu        sync.Mutex
	factories map[SDP]UnitFactory
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[SDP]UnitFactory)}
}

// Register adds a factory. Registering the same SDP twice replaces it.
func (r *Registry) Register(sdp SDP, f UnitFactory) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.factories[sdp] = f
}

// New instantiates a unit for the SDP.
func (r *Registry) New(sdp SDP) (Unit, error) {
	r.mu.Lock()
	f, ok := r.factories[sdp]
	r.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: no unit registered for %s", sdp)
	}
	return f(), nil
}

// Has reports whether a factory is registered for the SDP.
func (r *Registry) Has(sdp SDP) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.factories[sdp]
	return ok
}

// SDPs lists the registered protocols, sorted.
func (r *Registry) SDPs() []SDP {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SDP, 0, len(r.factories))
	for sdp := range r.factories {
		out = append(out, sdp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Package indiss is the public API of the INDISS reproduction: an
// INteroperable DIscovery System for networked Services, after Bromberg &
// Issarny, Middleware 2005.
//
// INDISS lets clients and services that speak different service discovery
// protocols (SLP, UPnP, Jini, DNS-SD) find each other without any change to the
// applications. Deploy an instance on any network stack — a simulated
// host for tests and experiments:
//
//	net := indiss.NewLAN()
//	defer net.Close()
//	gw := net.MustAddHost("gateway", "10.0.0.9")
//	sys, err := indiss.Deploy(gw, indiss.Config{Role: indiss.RoleGateway})
//	if err != nil { ... }
//	defer sys.Close()
//
// or a live one, binding real sockets on a real interface:
//
//	stack, err := indiss.RealStack()
//	if err != nil { ... }
//	sys, err := indiss.Deploy(stack, indiss.Config{Role: indiss.RoleGateway})
//
// The instance passively detects which discovery protocols are in use
// (monitor component), instantiates protocol units on demand, and
// translates discovery traffic between them through a semantic event
// vocabulary. See DESIGN.md for the architecture (§8 covers the
// transport contract) and EXPERIMENTS.md for the reproduced evaluation.
package indiss

import (
	"fmt"
	"io"
	"time"

	"indiss/internal/core"
	"indiss/internal/federation"
	"indiss/internal/netapi"
	"indiss/internal/query"
	"indiss/internal/realnet"
	"indiss/internal/units"
)

// Stack is the transport an INDISS instance runs on: one named node with
// one IPv4 address on one multicast segment, plus the socket operations
// the system performs. Both fabrics satisfy it — *simnet.Host (via
// NewLAN/NewTopology, for tests and experiments) and the live-socket
// stack RealStack returns.
type Stack = netapi.Stack

// Addr identifies a UDP or TCP endpoint ("ip:port" form via String).
type Addr = netapi.Addr

// Stream is one reliable byte-stream connection (a TCP socket or its
// simulated equivalent), as returned by Stack.DialTCP.
type Stream = netapi.Stream

// RealStack opens a live network stack on this machine, auto-detecting
// the first up, multicast-capable, non-loopback IPv4 interface (loopback
// as a last resort). Deploying on it binds real sockets: the monitor
// joins the SDP multicast groups with shared SO_REUSEADDR binders, so
// native stacks already running on the host are unaffected.
func RealStack() (Stack, error) {
	return realnet.NewStack(realnet.Options{})
}

// RealStackOn is RealStack pinned to a named interface (e.g. "eth0",
// "lo"). An empty ip uses the interface's first IPv4 address.
func RealStackOn(iface, ip string) (Stack, error) {
	return realnet.NewStack(realnet.Options{Interface: iface, IP: ip})
}

// Role places an INDISS instance (paper §4.2): on the client host, the
// service host, or a dedicated gateway node.
type Role = core.Role

// Deployment roles.
const (
	RoleClientSide  = core.RoleClientSide
	RoleServiceSide = core.RoleServiceSide
	RoleGateway     = core.RoleGateway
)

// SDP names a service discovery protocol.
type SDP = core.SDP

// The supported protocols: the paper's three plus DNS-SD/mDNS
// (Zeroconf/Bonjour).
const (
	SLP   = core.SDPSLP
	UPnP  = core.SDPUPnP
	Jini  = core.SDPJini
	DNSSD = core.SDPDNSSD
)

// System is a running INDISS instance.
type System = core.System

// TranslationProfile models INDISS's own processing cost (zero = free).
type TranslationProfile = core.TranslationProfile

// ServiceRecord is one discovered service in SDP-neutral form.
type ServiceRecord = core.ServiceRecord

// Spec is a parsed Figure 5a system specification.
type Spec = core.Spec

// ParseSpec parses the paper's specification language:
//
//	System SDP = {
//	    Component Monitor = { ScanPort = { 1900; 427 } }
//	    Component Unit SLP(port=427);
//	    Component Unit UPnP(port=1900);
//	}
func ParseSpec(src string) (*Spec, error) { return core.ParseSpec(src) }

// UnitOptions tunes the individual protocol units.
type UnitOptions struct {
	// SLP tunes the SLP unit.
	SLP units.SLPUnitConfig
	// UPnP tunes the UPnP unit.
	UPnP units.UPnPUnitConfig
	// Jini tunes the Jini unit.
	Jini units.JiniUnitConfig
}

// Config defines an INDISS deployment.
type Config struct {
	// Role is where the instance is deployed. Required.
	Role Role
	// SDPs restricts which protocol units the instance may
	// instantiate. Empty means every registered unit. Entries are
	// validated against the registry at Deploy time.
	SDPs []SDP
	// Dynamic defers unit instantiation until the monitor detects the
	// protocol in the environment (paper §3). When false, all units
	// start eagerly.
	Dynamic bool
	// ThresholdBps enables the paper's §4.2 adaptation policy: on a
	// service-side deployment, units switch to active
	// re-advertisement when observed traffic falls below the
	// threshold. Zero disables the policy.
	ThresholdBps float64
	// Profile models INDISS's own translation cost; the zero value is
	// free (right for functional use), CalibratedProfile() reproduces
	// the paper's prototype cost.
	Profile TranslationProfile
	// NoCache disables answering from the service view; every request
	// then triggers fresh native exchanges (the cold path of the
	// paper's Figures 8 and 9a).
	NoCache bool
	// Units tunes the individual protocol units.
	Units UnitOptions
	// Spec, when non-empty, is a Figure 5a specification whose
	// ScanPort and Unit declarations override SDPs and the monitor's
	// port table.
	Spec string

	// DataDir, when non-empty, makes the service view persistent: the
	// instance opens a log-structured store under the directory,
	// replays it on start (warm boot — discovery knowledge survives a
	// crash or restart, bounded by each record's TTL), and mirrors
	// every view change back into it. With federation enabled, epoch
	// and tombstone state persists too, so a restarted gateway resumes
	// digest anti-entropy instead of re-learning the federation. Empty
	// keeps everything memory-only.
	DataDir string

	// Peers lists the "ip:port" federation endpoints of peer gateways.
	// A non-empty list (or a non-zero FederationPort) enables the
	// view-sync peering plane: the instance listens for peers, dials
	// the listed ones, and exchanges ServiceView deltas so discovery
	// knowledge crosses segment boundaries multicast cannot.
	Peers []string
	// GatewayID names this instance in the federation; it must be
	// unique across peered gateways. Empty defaults to the host name.
	GatewayID string
	// FederationPort is the TCP port the federation endpoint listens
	// on. Zero uses federation.DefaultPort (7741) when federation is
	// enabled; a negative value listens on an ephemeral port.
	FederationPort int
	// FederationSyncInterval spaces the peering plane's anti-entropy
	// rounds. Zero keeps the federation default (1s); tests and
	// latency-sensitive deployments lower it for faster repair after
	// partitions and crashes. Since protocol v3 a round is jittered
	// ±20% and exchanges per-origin digests, transferring records only
	// on proven divergence — the interval now prices repair latency,
	// not a full view re-send.
	FederationSyncInterval time.Duration
	// FederationStack, when non-nil, carries the peering plane on its
	// own network stack instead of the deployment stack — the
	// multihomed-gateway shape of the containerized rig (DESIGN.md
	// §14): discovery multicast stays pinned to the segment interface
	// while federation listens and dials on the backbone. Nil keeps
	// federation on the deployment stack.
	FederationStack Stack

	// QueryPort enables the HTTP/JSON query plane: a read-only lookup
	// API over the instance's service view (find by kind, SLP-predicate
	// filtering, long-poll watch), listening on its own TCP port next
	// to the federation port. Zero disables it; a positive value
	// listens on that port; a negative value listens on an ephemeral
	// port (tests). See DESIGN.md §12 for the wire schema.
	QueryPort int
}

// FederationDefaultPort is the default federation listening port.
const FederationDefaultPort = federation.DefaultPort

// QueryDefaultPort is the default query-plane listening port.
const QueryDefaultPort = query.DefaultPort

// Registry builds the production unit registry for the given options.
func Registry(opts UnitOptions) *core.Registry {
	r := core.NewRegistry()
	r.Register(core.SDPSLP, func() core.Unit { return units.NewSLPUnit(opts.SLP) })
	r.Register(core.SDPUPnP, func() core.Unit { return units.NewUPnPUnit(opts.UPnP) })
	r.Register(core.SDPJini, func() core.Unit { return units.NewJiniUnit(opts.Jini) })
	r.Register(core.SDPDNSSD, func() core.Unit { return units.NewDNSSDUnit() })
	return r
}

// Deploy starts an INDISS instance on the given network stack — a
// *simnet.Host from the simulated testbed, or a live stack from
// RealStack; the system behaves identically on either.
func Deploy(stack Stack, cfg Config) (*System, error) {
	if cfg.Role == 0 {
		return nil, fmt.Errorf("indiss: Config.Role is required")
	}
	coreCfg := core.Config{
		Role:         cfg.Role,
		Units:        cfg.SDPs,
		Dynamic:      cfg.Dynamic,
		ThresholdBps: cfg.ThresholdBps,
		Profile:      cfg.Profile,
		NoCache:      cfg.NoCache,
		DataDir:      cfg.DataDir,
		GatewayID:    cfg.GatewayID,
	}
	if len(cfg.Peers) > 0 || cfg.FederationPort != 0 {
		peers := make([]Addr, 0, len(cfg.Peers))
		for _, p := range cfg.Peers {
			addr, err := netapi.ParseAddr(p)
			if err != nil {
				return nil, fmt.Errorf("indiss: peer %q: %w", p, err)
			}
			peers = append(peers, addr)
		}
		fedStack := stack
		if cfg.FederationStack != nil {
			fedStack = cfg.FederationStack
		}
		coreCfg.Federation = func(s *core.System) (io.Closer, error) {
			fcfg := federation.Config{
				GatewayID:           s.GatewayID(),
				ListenPort:          cfg.FederationPort,
				Peers:               peers,
				AntiEntropyInterval: cfg.FederationSyncInterval,
			}
			if st := s.ViewStore(); st != nil {
				fcfg.Persistence = st
			}
			return federation.New(fedStack, s.View(), fcfg)
		}
	}
	if cfg.QueryPort != 0 {
		coreCfg.Query = func(s *core.System) (io.Closer, error) {
			return query.New(stack, s.View(), query.Config{
				ListenPort: cfg.QueryPort,
				GatewayID:  s.GatewayID(),
			})
		}
	}
	if cfg.Spec != "" {
		spec, err := core.ParseSpec(cfg.Spec)
		if err != nil {
			return nil, err
		}
		if len(spec.ScanPorts) > 0 {
			table, err := core.DefaultTable().Restrict(spec.ScanPorts)
			if err != nil {
				return nil, err
			}
			coreCfg.Table = table
		}
		if len(spec.Units) > 0 {
			// A fresh slice, not coreCfg.Units[:0]: coreCfg.Units still
			// aliases the caller's cfg.SDPs array here, and appending
			// through the alias would overwrite it in place.
			coreCfg.Units = make([]SDP, 0, len(spec.Units))
			for _, u := range spec.Units {
				coreCfg.Units = append(coreCfg.Units, u.SDP)
			}
		}
	}
	registry := Registry(cfg.Units)
	// Validate the effective unit list against the registry now: under
	// Dynamic, an unknown SDP would otherwise fail silently forever (the
	// monitor's detection handler has nobody to report to).
	for _, sdp := range coreCfg.Units {
		if !registry.Has(sdp) {
			return nil, fmt.Errorf(
				"indiss: config names unit %q but no such unit is registered (have %v)",
				sdp, registry.SDPs())
		}
	}
	return core.NewSystem(stack, registry, coreCfg)
}

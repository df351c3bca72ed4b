package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"indiss"
	"indiss/internal/dnssd"
	"indiss/internal/httpx"
	"indiss/internal/jini"
	"indiss/internal/netapi"
	"indiss/internal/query"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/upnp"
)

// workload is one traffic mix; README.md records why each was chosen.
type workload struct {
	name string
	// rate is the open-loop arrival rate, lookups per second.
	rate   float64
	deploy func(e *env) (*deployment, error)
}

var workloads = []workload{
	{"bridge-warm", 500, func(e *env) (*deployment, error) { return deployBridge(e, false) }},
	{"bridge-cold", 200, func(e *env) (*deployment, error) { return deployBridge(e, true) }},
	{"query-hot", 2000, func(e *env) (*deployment, error) { return deployCampus(e, false) }},
	{"campus-churn", 2000, func(e *env) (*deployment, error) { return deployCampus(e, true) }},
}

// clientLoops is the number of client loops, one per core of the
// two-core machines the benchmark is sized for. Each holds one UDP
// socket and one keep-alive HTTP connection.
const clientLoops = 2

// readyTimeout bounds set-up's wait for every target to answer once.
const readyTimeout = 20 * time.Second

// env is what every deployment of one run shares.
type env struct {
	seed     int64
	traced   bool
	dataRoot string
}

// deployment is one set-up instance of a workload: the fabric, the
// gateways under test and what the load needs to reach them.
type deployment struct {
	net *indiss.Network
	// serving is the gateway the clients query; origin is where native
	// knowledge enters the system (the same gateway on a bridge).
	serving, origin *indiss.System
	// tap wraps the serving gateway's stack in a traced run.
	tap     *netTap
	targets []target
	pick    func(*rand.Rand) int
	clients []*client
	churn   *churner
	closers []func()
	// keepAlive marks a deployment whose clients hold keep-alive
	// connections to a query plane.
	keepAlive bool
}

func (d *deployment) onClose(f func()) { d.closers = append(d.closers, f) }

// close tears the deployment down in reverse order of construction. A
// bridge closes its fabric first: its gateway may still be waiting out
// the 2 s timeouts of native queries that set-up's cold lookups started,
// and a closed fabric ends them at once. With keep-alive clients the
// fabric closes last: the query plane waits for their connection
// shutdowns, which only a running fabric delivers.
func (d *deployment) close() {
	if !d.keepAlive {
		d.net.Close()
	}
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	d.net.Close()
}

// gateways lists the distinct gateways, origin first.
func (d *deployment) gateways() []*indiss.System {
	if d.origin == d.serving {
		return []*indiss.System{d.serving}
	}
	return []*indiss.System{d.origin, d.serving}
}

// gatewayStack is the stack the serving gateway deploys on: its host,
// wrapped by the traced run's tap.
func (d *deployment) gatewayStack(e *env, host *indiss.Host) indiss.Stack {
	if !e.traced {
		return host
	}
	d.tap = &netTap{Stack: host}
	return d.tap
}

// deploySystem deploys a gateway and schedules its shutdown.
func (d *deployment) deploySystem(stack indiss.Stack, cfg indiss.Config) (*indiss.System, error) {
	sys, err := indiss.Deploy(stack, cfg)
	if err != nil {
		return nil, fmt.Errorf("deploy %s: %w", stack.Name(), err)
	}
	d.onClose(func() { _ = sys.Close() })
	return sys, nil
}

// addClients starts the client loops' endpoints on fresh hosts.
func (d *deployment) addClients(seg, ipPrefix, gwIP string, queryAddr netapi.Addr) error {
	for i := 0; i < clientLoops; i++ {
		host := d.net.MustAddHostOn(fmt.Sprintf("client%d", i+1), ipPrefix+strconv.Itoa(101+i), seg)
		c, err := newClient(host, gwIP, queryAddr)
		if err != nil {
			return err
		}
		d.onClose(c.close)
		d.clients = append(d.clients, c)
	}
	return nil
}

// ready runs each listed target through the first client until it
// answers correctly. An SSDP target's LOCATION is learned here, and
// accepted only once the description it serves names the service.
func (d *deployment) ready(targets []int) error {
	c := d.clients[0]
	deadline := time.Now().Add(readyTimeout)
	for _, i := range targets {
		t := &d.targets[i]
		for {
			err := c.learn(t)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("set-up: %s never answered: %w", t.name, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}

// learn is one set-up lookup of t.
func (c *client) learn(t *target) error {
	got, err := c.lookup(t, &stamps{})
	if err != nil || t.proto != protoSSDP || t.want != "" {
		return err
	}
	addr, path, err := upnp.ParseHTTPURL(got)
	if err != nil {
		return err
	}
	resp, err := httpx.Get(c.stack, addr, path, lookupTimeout)
	if err != nil {
		return fmt.Errorf("description %s: %w", got, err)
	}
	desc, err := upnp.ParseDescription(resp.Body)
	if err != nil {
		return fmt.Errorf("description %s: %w", got, err)
	}
	if desc.ModelURL != t.endpoint {
		return fmt.Errorf("wrong endpoint: %s describes %s, want %s", got, desc.ModelURL, t.endpoint)
	}
	t.want = got
	return nil
}

// newFabric builds the indiss-load fabric: 10 Gb/s links, 5µs LAN and
// 1µs loopback latency, segments chained by 50µs links. Everything runs
// in this process; no packet touches a real interface.
func newFabric(segments int) *indiss.Network {
	topo := indiss.NewTopology(simnet.Config{
		LANLatency:      5 * time.Microsecond,
		LoopbackLatency: time.Microsecond,
		BandwidthBps:    10_000_000_000,
	})
	for i := 1; i <= segments; i++ {
		topo.Segment(indiss.CampusSegment(i))
	}
	if segments > 1 {
		topo.Chain(indiss.Link{Latency: 50 * time.Microsecond, BandwidthBps: 10_000_000_000})
	}
	return topo.MustBuild()
}

// nativeService is one native service a bridge workload runs.
type nativeService struct {
	sdp indiss.SDP
	// short names the protocol in pairing names ("slp-upnp").
	short string
	kind  string
	// endpoint is the service's URL as the gateway's view records it.
	endpoint string
}

// deployBridge builds the bridge workloads: one gateway on one LAN with
// native services and clients around it. Warm runs all four units
// answering from the view; cold runs only SLP and UPnP with NoCache, so
// every lookup crosses the bus and a native exchange.
func deployBridge(e *env, cold bool) (d *deployment, err error) {
	d = &deployment{net: newFabric(1)}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	seg := indiss.CampusSegment(1)
	host := func(name, ip string) *indiss.Host { return d.net.MustAddHostOn(name, ip, seg) }

	const gwIP = "10.0.0.9"
	cfg := indiss.Config{Role: indiss.RoleGateway, NoCache: cold}
	if cold {
		cfg.SDPs = []indiss.SDP{indiss.SLP, indiss.UPnP}
	}
	if d.serving, err = d.deploySystem(d.gatewayStack(e, host("gw", gwIP)), cfg); err != nil {
		return nil, err
	}
	d.origin = d.serving
	services, err := startServices(d, host, cold)
	if err != nil {
		return nil, err
	}

	clients := []nativeService{{sdp: indiss.SLP, short: "slp"}, {sdp: indiss.UPnP, short: "upnp"}}
	if !cold {
		clients = append(clients, nativeService{sdp: indiss.DNSSD, short: "dnssd"}, nativeService{sdp: indiss.Jini, short: "jini"})
	}
	for _, cl := range clients {
		for _, s := range services {
			if s.sdp == cl.sdp {
				continue // a native pairing needs no bridge
			}
			p := protoOf(cl.sdp)
			d.targets = append(d.targets, target{
				name: cl.short + "-" + s.short, proto: p, kind: s.kind,
				endpoint: s.endpoint, want: wantFor(p, s),
			})
		}
	}
	d.pick = func(r *rand.Rand) int { return r.Intn(len(d.targets)) }
	if err := d.addClients(seg, "10.0.0.", gwIP, netapi.Addr{}); err != nil {
		return nil, err
	}
	all := make([]int, len(d.targets))
	for i := range all {
		all[i] = i
	}
	return d, d.ready(all)
}

func protoOf(sdp indiss.SDP) proto {
	switch sdp {
	case indiss.SLP:
		return protoSLP
	case indiss.UPnP:
		return protoSSDP
	case indiss.DNSSD:
		return protoDNSSD
	default:
		return protoJini
	}
}

// wantFor is what a correct answer of protocol p carries for s: the
// bridge prefixes foreign endpoints with the SLP service scheme, carries
// them verbatim in the DNS-SD url TXT key and the Jini item endpoint,
// and points UPnP clients at a description it synthesizes (learned at
// set-up, so empty here).
func wantFor(p proto, s nativeService) string {
	switch p {
	case protoSLP:
		if s.sdp == indiss.SLP {
			return s.endpoint
		}
		return "service:" + s.kind + ":" + s.endpoint
	case protoSSDP:
		return ""
	default:
		return s.endpoint
	}
}

// startServices starts one native clock per protocol the workload
// bridges, each under its own kind so every pairing is unambiguous.
func startServices(d *deployment, host func(name, ip string) *indiss.Host, cold bool) ([]nativeService, error) {
	sa, err := slp.NewServiceAgent(host("slp-svc", "10.0.0.11"), slp.AgentConfig{})
	if err != nil {
		return nil, err
	}
	d.onClose(sa.Close)
	const slpURL = "service:slpclock://10.0.0.11:4005"
	if err := sa.Register("service:slpclock", slpURL, time.Hour,
		slp.AttrList{{Name: "friendlyName", Values: []string{"SLP Clock"}}}); err != nil {
		return nil, err
	}
	dev, err := upnp.NewRootDevice(host("upnp-svc", "10.0.0.12"), upnp.DeviceConfig{
		Kind: "upnpclock", FriendlyName: "UPnP Clock",
		Services: []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		return nil, err
	}
	d.onClose(dev.Close)
	descAddr, _, err := upnp.ParseHTTPURL(dev.Location())
	if err != nil {
		return nil, err
	}
	services := []nativeService{
		{indiss.SLP, "slp", "slpclock", slpURL},
		{indiss.UPnP, "upnp", "upnpclock", "soap://" + descAddr.String() + dev.Description().Services[0].ControlURL},
	}
	if cold {
		return services, nil
	}

	r, err := dnssd.NewResponder(host("dnssd-svc", "10.0.0.13"), dnssd.ResponderConfig{})
	if err != nil {
		return nil, err
	}
	d.onClose(r.Close)
	if err := r.Register(dnssd.Registration{
		Instance: "Clock", Service: dnssd.ServiceType("dnssdclock"), Port: 9000, TTL: 3600,
		Text: map[string]string{"friendlyName": "DNS-SD Clock"},
	}); err != nil {
		return nil, err
	}
	ls, err := jini.NewLookupService(host("jini-lookup", "10.0.0.15"), jini.LookupConfig{})
	if err != nil {
		return nil, err
	}
	d.onClose(ls.Close)
	const jiniEndpoint = "10.0.0.14:9000"
	if _, err := jini.NewClient(host("jini-svc", "10.0.0.14"), jini.ClientConfig{}).Register(ls.Locator(), jini.ServiceItem{
		Type: "net.jini.jiniclock.Clock", Endpoint: jiniEndpoint,
		Attrs: []jini.Entry{{Name: "friendlyName", Value: "Jini Clock"}},
	}, lookupTimeout); err != nil {
		return nil, err
	}
	return append(services,
		nativeService{indiss.DNSSD, "dnssd", "dnssdclock", "dnssd://10.0.0.13:9000"},
		nativeService{indiss.Jini, "jini", "jiniclock", jiniEndpoint},
	), nil
}

// The campus workloads' view: records spread over kinds so no kind is
// hot by itself, half of them carrying a slot attribute predicates
// select on. 64 plain plus 64×8 predicate queries make 576 query keys,
// inside the answer cache's 1024 entries.
const (
	campusKinds   = 64
	campusRecords = 4096
	campusSlots   = 8
)

// deployCampus builds the campus workloads: two federated gateways on
// chained segments, both persistent, gw1 preloaded with the records and
// gw2 serving HTTP lookups of them. churn adds native DNS-SD churn on
// gw1's segment.
func deployCampus(e *env, churn bool) (d *deployment, err error) {
	d = &deployment{net: newFabric(2), keepAlive: true}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	dir, err := os.MkdirTemp(e.dataRoot, "campus-")
	if err != nil {
		return nil, err
	}
	d.onClose(func() { os.RemoveAll(dir) })
	seg1, seg2 := indiss.CampusSegment(1), indiss.CampusSegment(2)

	// The dialed gateway deploys first: dialing a listener that is not
	// up yet would put the federation's retry backoff into set-up time.
	d.serving, err = d.deploySystem(d.gatewayStack(e, d.net.MustAddHostOn("gw2", "10.0.2.9", seg2)), indiss.Config{
		Role: indiss.RoleGateway, GatewayID: "gw2", FederationPort: indiss.FederationDefaultPort,
		QueryPort: -1, DataDir: filepath.Join(dir, "gw2"),
	})
	if err != nil {
		return nil, err
	}
	d.origin, err = d.deploySystem(d.net.MustAddHostOn("gw1", "10.0.1.9", seg1), indiss.Config{
		Role: indiss.RoleGateway, GatewayID: "gw1", FederationPort: indiss.FederationDefaultPort,
		Peers: []string{"10.0.2.9:" + strconv.Itoa(indiss.FederationDefaultPort)}, DataDir: filepath.Join(dir, "gw1"),
	})
	if err != nil {
		return nil, err
	}

	expires := time.Now().Add(time.Hour)
	for i := 0; i < campusRecords; i++ {
		kind, j := campusKind(i%campusKinds), i/campusKinds
		rec := indiss.ServiceRecord{
			Origin:  indiss.SLP,
			Kind:    kind,
			URL:     fmt.Sprintf("service:%s://10.0.1.%d:515/s%d", kind, 10+j%200, i),
			Expires: expires,
		}
		if j%2 == 0 {
			rec.Attrs = map[string]string{"slot": strconv.Itoa(j / 2 % campusSlots)}
		}
		d.origin.View().Put(rec)
	}
	deadline := time.Now().Add(readyTimeout)
	for d.serving.View().Len() < campusRecords {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("set-up: gw2 holds %d of %d records", d.serving.View().Len(), campusRecords)
		}
		time.Sleep(time.Millisecond)
	}

	perKind := campusRecords / campusKinds
	for k := 0; k < campusKinds; k++ {
		kind := campusKind(k)
		d.targets = append(d.targets, target{name: "http-plain", proto: protoHTTP, kind: kind,
			path: "/v1/services?kind=" + kind, count: perKind})
	}
	for k := 0; k < campusKinds; k++ {
		for s := 0; s < campusSlots; s++ {
			kind := campusKind(k)
			d.targets = append(d.targets, target{name: "http-pred", proto: protoHTTP, kind: kind,
				pred:  fmt.Sprintf("(slot=%d)", s),
				path:  fmt.Sprintf("/v1/services?kind=%s&pred=(slot%%3D%d)", kind, s),
				count: perKind / 2 / campusSlots})
		}
	}
	// Half the lookups carry a predicate.
	d.pick = func(r *rand.Rand) int {
		if r.Intn(2) == 0 {
			return r.Intn(campusKinds)
		}
		return campusKinds + r.Intn(campusKinds*campusSlots)
	}
	qs, ok := d.serving.QueryPlane().(*query.Server)
	if !ok {
		return nil, fmt.Errorf("set-up: gw2 has no query plane")
	}
	if err := d.addClients(seg2, "10.0.2.", "10.0.2.9", qs.Addr()); err != nil {
		return nil, err
	}
	if err := d.ready([]int{0, campusKinds}); err != nil {
		return nil, err
	}
	if churn {
		d.churn, err = newChurner(d, d.net.MustAddHostOn("churn", "10.0.1.20", seg1), e)
	}
	return d, err
}

func campusKind(k int) string { return fmt.Sprintf("kind%02d", k) }

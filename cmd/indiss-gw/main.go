// Command indiss-gw runs an INDISS gateway on a scripted networked-home
// scenario: a UPnP clock device, an SLP printer and a Jini sensor appear
// on a simulated LAN, and clients of each protocol discover services of
// the other protocols through the gateway.
//
// With -segments N (N ≥ 2) the scenario becomes a routed campus: the
// client keeps its protocols on segment 1, the services move to segment
// N, and one federated INDISS gateway per segment syncs discovery
// knowledge across the segment boundaries multicast cannot cross. The
// gateways peer in a chain by default; -peer overrides the first
// gateway's dial list ("ip:port", repeatable).
//
// With -real the gateway leaves the simulation entirely and binds real
// sockets on an actual interface: the monitor joins the SDP multicast
// groups with shared SO_REUSEADDR binders, units answer live discovery
// traffic, and the process runs until SIGINT/SIGTERM, then shuts down
// cleanly. -iface pins the interface (e.g. "eth0", "lo"), -ip the
// source address; both default to auto-detection. -health-port serves
// the rig's one-line TCP readiness probe, and -federation-iface/-ip
// place the peering plane on a second interface — the multihomed shape
// of the containerized campus rig (deploy/, DESIGN.md §14), where
// discovery multicast stays on the segment and federation crosses the
// backbone.
//
// An optional Figure 5a specification file configures the gateway:
//
//	indiss-gw [-spec FILE] [-duration 3s] [-segments N] [-peer ip:port]...
//	indiss-gw -real [-iface lo] [-ip 127.0.0.1] [-spec FILE] [-peer ip:port]...
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"indiss"
	"indiss/internal/federation"
	"indiss/internal/jini"
	"indiss/internal/query"
	"indiss/internal/realnet"
	"indiss/internal/slp"
	"indiss/internal/upnp"
)

// gwLabel returns the stats-line prefix for one gateway. Campus runs
// label every line with the gateway's ID so rig logs stay attributable
// when several gateways interleave on one stream; single-gateway runs
// keep the classic bare prefix.
func gwLabel(sys *indiss.System, labelled bool) string {
	if !labelled {
		return "indiss-gw: "
	}
	return "indiss-gw: [" + sys.GatewayID() + "] "
}

// printFedStats dumps the peering plane's traffic counters on shutdown,
// when the system runs federated.
func printFedStats(sys *indiss.System, label string) {
	fed, ok := sys.Federation().(interface{ Stats() federation.Stats })
	if !ok {
		return
	}
	for _, line := range strings.Split(fed.Stats().String(), "\n") {
		fmt.Println(label + line)
	}
}

// printQueryStats dumps the query plane's counters, when the gateway
// runs with -query-port.
func printQueryStats(sys *indiss.System, label string) {
	qp, ok := sys.QueryPlane().(*query.Server)
	if !ok {
		return
	}
	fmt.Println(label + "query: " + qp.Stats().String())
}

// announceQueryPlane prints where the HTTP/JSON query API listens, when
// the gateway runs with -query-port.
func announceQueryPlane(sys *indiss.System, label string) {
	if qp, ok := sys.QueryPlane().(*query.Server); ok {
		fmt.Printf("%squery plane listening on %s\n", label, qp.Addr())
	}
}

// printStoreStats dumps the persistent view store's counters, when the
// gateway runs with -data-dir.
func printStoreStats(sys *indiss.System, label string) {
	st := sys.ViewStore()
	if st == nil {
		return
	}
	for _, line := range strings.Split(st.Stats().String(), "\n") {
		fmt.Println(label + line)
	}
}

// printWarmBoot reports what the start-up replay recovered from the
// data directory.
func printWarmBoot(sys *indiss.System, dir, label string) {
	if dir == "" {
		return
	}
	rec := sys.Recovered()
	if len(rec.Records) == 0 && len(rec.Graves) == 0 && len(rec.Epochs) == 0 {
		fmt.Printf("%scold start: no prior view state under %s\n", label, dir)
		return
	}
	fmt.Printf("%swarm boot: %d records, %d graves, %d epochs replayed from %s in %s (dropped-expired=%d truncated-bytes=%d)\n",
		label, len(rec.Records), len(rec.Graves), len(rec.Epochs), dir,
		rec.Elapsed.Round(time.Millisecond), rec.DroppedExpired, rec.TruncatedBytes)
}

// printIngressStats reports the native datagrams the gateway dropped
// because their source's ingress lane was full.
func printIngressStats(sys *indiss.System, label string) {
	fmt.Printf("%singress: dropped=%d\n", label, sys.IngressDropped())
}

// printGatewaySummary is the per-gateway shutdown report: units, view
// size, ingress drops and every plane's counters, each line labelled.
func printGatewaySummary(sys *indiss.System, labelled bool) {
	label := gwLabel(sys, labelled)
	fmt.Printf("%sunits instantiated at run time: %v\n", label, sys.Units())
	fmt.Printf("%sservices in the gateway's view: %d\n", label, len(sys.View().Find("", time.Now())))
	printIngressStats(sys, label)
	printFedStats(sys, label)
	printQueryStats(sys, label)
	printStoreStats(sys, label)
}

// startStatsLoop prints view/ingress/federation/store stats for every
// gateway each interval until the returned stop function is called — in
// campus mode all gateways report, each line labelled with its gateway
// ID, so rig logs are attributable. A zero interval disables the loop.
func startStatsLoop(systems []*indiss.System, interval time.Duration) (stop func()) {
	if interval <= 0 {
		return func() {}
	}
	labelled := len(systems) > 1
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				fmt.Printf("indiss-gw: --- stats @ %s ---\n", time.Now().Format(time.TimeOnly))
				for _, sys := range systems {
					label := gwLabel(sys, labelled)
					fmt.Printf("%sview: %d records\n", label, sys.View().Len())
					printIngressStats(sys, label)
					printFedStats(sys, label)
					printQueryStats(sys, label)
					printStoreStats(sys, label)
				}
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// peerList is a repeatable -peer flag.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

// gwOpts carries the parsed command line.
type gwOpts struct {
	spec          string
	duration      time.Duration
	segments      int
	peers         []string
	dataDir       string
	queryPort     int
	statsInterval time.Duration

	// real mode only
	iface      string
	ip         string
	fedPort    int
	fedIface   string
	fedIP      string
	healthPort int
	gatewayID  string
	sdps       []indiss.SDP
}

// parseSDPs parses the -sdps flag's comma list ("slp,upnp,jini,dnssd",
// case-insensitive). Empty means no restriction: the self-adaptive
// monitor instantiates whatever it detects.
func parseSDPs(list string) ([]indiss.SDP, error) {
	if list == "" {
		return nil, nil
	}
	var out []indiss.SDP
	for _, name := range strings.Split(list, ",") {
		switch strings.ToLower(strings.TrimSpace(name)) {
		case "slp":
			out = append(out, indiss.SLP)
		case "upnp":
			out = append(out, indiss.UPnP)
		case "jini":
			out = append(out, indiss.Jini)
		case "dnssd", "mdns":
			out = append(out, indiss.DNSSD)
		case "":
		default:
			return nil, fmt.Errorf("indiss-gw: unknown SDP %q in -sdps (want slp, upnp, jini, dnssd)", name)
		}
	}
	return out, nil
}

func main() {
	specFile := flag.String("spec", "", "Figure 5a system specification file")
	duration := flag.Duration("duration", 3*time.Second, "how long to run the scenario (-real: 0 = until SIGINT)")
	segments := flag.Int("segments", 1, "number of routed segments (1 = the classic single LAN)")
	real := flag.Bool("real", false, "run on real sockets instead of the simulated LAN")
	iface := flag.String("iface", "", "real mode: network interface to bind (default auto-detect)")
	ip := flag.String("ip", "", "real mode: IPv4 source address (default: the interface's first)")
	fedPort := flag.Int("federation-port", 0, "real mode: listen for federation peers on this TCP port (0 = only when -peer is set)")
	fedIface := flag.String("federation-iface", "", "real mode: carry federation on this interface instead of -iface (multihomed gateway: discovery on the segment, peering on the backbone)")
	fedIP := flag.String("federation-ip", "", "real mode: IPv4 source address on -federation-iface (default: the interface's first)")
	healthPort := flag.Int("health-port", 0, "real mode: serve the one-line TCP readiness probe on this port (0 = disabled; the rig driver gates on it)")
	gatewayID := flag.String("gateway-id", "", "real mode: federation identity (default: host name)")
	sdpList := flag.String("sdps", "", "real mode: restrict the gateway to these protocol units (comma list of slp,upnp,jini,dnssd; default: all, self-adaptively)")
	dataDir := flag.String("data-dir", "", "persist the service view under this directory (warm boot on restart; -segments > 1 uses per-gateway subdirectories)")
	queryPort := flag.Int("query-port", 0, "serve the HTTP/JSON query API on this TCP port (0 = disabled, -1 = ephemeral)")
	statsInterval := flag.Duration("stats-interval", 0, "print view/federation/store stats every interval (0 = only on shutdown)")
	var peers peerList
	flag.Var(&peers, "peer", "federation peer for the first gateway (ip:port, repeatable)")
	flag.Parse()

	spec := ""
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		spec = string(data)
	}
	sdps, err := parseSDPs(*sdpList)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	opts := gwOpts{
		spec:          spec,
		duration:      *duration,
		segments:      *segments,
		peers:         peers,
		dataDir:       *dataDir,
		queryPort:     *queryPort,
		statsInterval: *statsInterval,
		iface:         *iface,
		ip:            *ip,
		fedPort:       *fedPort,
		fedIface:      *fedIface,
		fedIP:         *fedIP,
		healthPort:    *healthPort,
		gatewayID:     *gatewayID,
		sdps:          sdps,
	}

	if *real {
		// In real mode the default is to serve until a signal arrives;
		// an explicitly set -duration bounds the run instead.
		opts.duration = 0
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "duration" {
				opts.duration = *duration
			}
		})
		err = runReal(opts)
	} else {
		err = run(opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runReal deploys the gateway on live sockets and serves until a
// SIGINT/SIGTERM (or the optional duration) stops it. The system is
// closed exactly once, whatever stops the run — System.Close is
// idempotent since the double-Close fix, but one shutdown sequence in
// the log is part of the rig's contract, so this function owns the
// single call.
func runReal(opts gwOpts) error {
	stack, err := realnet.NewStack(realnet.Options{Name: "indiss-gw", Interface: opts.iface, IP: opts.ip})
	if err != nil {
		return err
	}
	if err := stack.ProbeMulticast(2 * time.Second); err != nil {
		// Fail fast with the probe's reason: the monitor's first
		// multicast join would fail Deploy anyway, just less legibly. A
		// gateway that cannot join the SDP groups hears nothing and
		// bridges nothing.
		return fmt.Errorf("indiss-gw: %w\n(this environment forbids joining multicast groups; pick another -iface or loosen the sandbox)", err)
	}

	cfg := indiss.Config{
		Role:      indiss.RoleGateway,
		Dynamic:   true,
		Spec:      opts.spec,
		SDPs:      opts.sdps,
		DataDir:   opts.dataDir,
		QueryPort: opts.queryPort,
		GatewayID: opts.gatewayID,
	}
	// Federation: -peer dials out; -federation-port (or -peer without an
	// explicit port) opens the listener, so a gateway that is only the
	// *target* of someone else's -peer still accepts the connection.
	if opts.fedPort != 0 {
		cfg.FederationPort = opts.fedPort
	}
	if len(opts.peers) > 0 {
		cfg.Peers = opts.peers
		if cfg.FederationPort == 0 {
			cfg.FederationPort = indiss.FederationDefaultPort
		}
	}
	if opts.fedIface != "" || opts.fedIP != "" {
		// Multihomed gateway: the peering plane listens and dials on its
		// own stack (the backbone interface of the containerized campus),
		// while discovery multicast stays pinned to the segment.
		fedStack, err := realnet.NewStack(realnet.Options{
			Name: "indiss-gw-fed", Interface: opts.fedIface, IP: opts.fedIP,
		})
		if err != nil {
			return fmt.Errorf("indiss-gw: federation stack: %w", err)
		}
		cfg.FederationStack = fedStack
		fmt.Printf("indiss-gw: federation plane on %s (interface %s)\n", fedStack.IP(), fedStack.Segment())
	}
	sys, err := indiss.Deploy(stack, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("indiss-gw: real mode: gateway up on %s (interface %s)\n", stack.IP(), stack.Segment())
	printWarmBoot(sys, opts.dataDir, "indiss-gw: ")
	announceQueryPlane(sys, "indiss-gw: ")

	if opts.healthPort != 0 {
		started := time.Now()
		health, err := realnet.ServeHealth(opts.healthPort, func() string {
			units := make([]string, 0, 4)
			for _, sdp := range sys.Units() {
				units = append(units, string(sdp))
			}
			return fmt.Sprintf("gw=%s view=%d units=%s uptime=%s",
				sys.GatewayID(), sys.View().Len(), strings.Join(units, ","),
				time.Since(started).Round(time.Millisecond))
		})
		if err != nil {
			_ = sys.Close()
			return fmt.Errorf("indiss-gw: health endpoint: %w", err)
		}
		defer health.Close()
		fmt.Printf("indiss-gw: health endpoint listening on :%d\n", health.Port())
	}

	fmt.Println("indiss-gw: monitoring the IANA SDP multicast groups; Ctrl-C to stop")
	stopStats := startStatsLoop([]*indiss.System{sys}, opts.statsInterval)
	defer stopStats()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	var expiry <-chan time.Time
	if opts.duration > 0 {
		timer := time.NewTimer(opts.duration)
		defer timer.Stop()
		expiry = timer.C
	}
	select {
	case sig := <-sigs:
		fmt.Printf("indiss-gw: %v received, shutting down\n", sig)
	case <-expiry:
		fmt.Println("indiss-gw: duration elapsed, shutting down")
	}
	stopStats()
	printGatewaySummary(sys, false)
	if err := sys.Close(); err != nil {
		return fmt.Errorf("indiss-gw: shutdown: %w", err)
	}
	fmt.Println("indiss-gw: shutdown complete")
	return nil
}

func run(opts gwOpts) error {
	if opts.segments < 1 {
		return fmt.Errorf("indiss-gw: -segments must be >= 1")
	}
	if opts.segments == 1 {
		return runSingleLAN(opts)
	}
	return runCampus(opts)
}

// gwIP returns the i-th (1-based) gateway's address.
func gwIP(i int) string { return fmt.Sprintf("10.0.%d.9", i) }

// runCampus is the multi-segment scenario: services on the last segment,
// clients on the first, a federated gateway on every segment.
func runCampus(opts gwOpts) error {
	segments := opts.segments
	net := indiss.NewCampus(segments)
	defer net.Close()

	clientHost := net.MustAddHostOn("client", "10.0.1.1", indiss.CampusSegment(1))
	last := indiss.CampusSegment(segments)
	clockHost := net.MustAddHostOn("clock", fmt.Sprintf("10.0.%d.2", segments), last)
	printerHost := net.MustAddHostOn("printer", fmt.Sprintf("10.0.%d.3", segments), last)

	var systems []*indiss.System
	defer func() {
		for _, s := range systems {
			_ = s.Close()
		}
	}()
	for i := 1; i <= segments; i++ {
		cfg := indiss.Config{
			Role:      indiss.RoleGateway,
			GatewayID: fmt.Sprintf("gw%d", i),
			QueryPort: opts.queryPort,
			// Chain peering: every gateway dials its successor.
			FederationPort: indiss.FederationDefaultPort,
		}
		if i == 1 {
			cfg.Spec = opts.spec
			cfg.Peers = opts.peers
		}
		if opts.dataDir != "" {
			cfg.DataDir = filepath.Join(opts.dataDir, fmt.Sprintf("gw%d", i))
		}
		if i < segments && len(cfg.Peers) == 0 {
			cfg.Peers = []string{fmt.Sprintf("%s:%d", gwIP(i+1), indiss.FederationDefaultPort)}
		}
		host := net.MustAddHostOn(fmt.Sprintf("gw%d", i), gwIP(i), indiss.CampusSegment(i))
		fmt.Printf("indiss-gw: deploying federated gateway %s on segment %s (peers: %v)\n",
			host.IP(), indiss.CampusSegment(i), cfg.Peers)
		sys, err := indiss.Deploy(host, cfg)
		if err != nil {
			return err
		}
		printWarmBoot(sys, cfg.DataDir, gwLabel(sys, true))
		announceQueryPlane(sys, gwLabel(sys, true))
		systems = append(systems, sys)
	}
	stopStats := startStatsLoop(systems, opts.statsInterval)
	defer stopStats()

	expected, err := startServices(clockHost, printerHost)
	if err != nil {
		return err
	}

	// Wait for the service knowledge to ripple down the gateway chain.
	// Convergence means gw1 holds *every* service the scenario placed —
	// the count comes from the scenario itself, so a half-converged
	// campus can never print success. An unconverged deadline is an
	// error: the rig gates on this exit code.
	fmt.Printf("indiss-gw: waiting for %d services to converge across %d segments ...\n", expected, segments)
	deadline := time.Now().Add(opts.duration)
	for {
		recs := systems[0].View().Find("", time.Now())
		if len(recs) >= expected {
			for _, rec := range recs {
				fmt.Printf("indiss-gw:   gw1 knows %s %q via %s (%d hops)\n",
					rec.Origin, rec.URL, orLocal(rec.OriginGW), rec.Hops)
			}
			break
		}
		if time.Now().After(deadline) {
			for _, rec := range recs {
				fmt.Printf("indiss-gw:   gw1 knows %s %q via %s (%d hops)\n",
					rec.Origin, rec.URL, orLocal(rec.OriginGW), rec.Hops)
			}
			return fmt.Errorf("indiss-gw: campus did not converge within %v: gw1 holds %d of %d services",
				opts.duration, len(recs), expected)
		}
		time.Sleep(20 * time.Millisecond)
	}

	runClients(clientHost, opts.duration)
	for _, sys := range systems {
		printGatewaySummary(sys, true)
	}
	return nil
}

func orLocal(gw string) string {
	if gw == "" {
		return "local traffic"
	}
	return "gateway " + gw
}

// runSingleLAN is the classic one-segment scenario.
func runSingleLAN(opts gwOpts) error {
	net := indiss.NewLAN()
	defer net.Close()
	gw := net.MustAddHost("gateway", "10.0.0.9")
	clockHost := net.MustAddHost("clock", "10.0.0.2")
	printerHost := net.MustAddHost("printer", "10.0.0.3")
	clientHost := net.MustAddHost("client", "10.0.0.1")

	fmt.Println("indiss-gw: deploying INDISS on gateway 10.0.0.9")
	sys, err := indiss.Deploy(gw, indiss.Config{
		Role:      indiss.RoleGateway,
		Dynamic:   true,
		Spec:      opts.spec,
		DataDir:   opts.dataDir,
		QueryPort: opts.queryPort,
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	printWarmBoot(sys, opts.dataDir, "indiss-gw: ")
	announceQueryPlane(sys, "indiss-gw: ")
	stopStats := startStatsLoop([]*indiss.System{sys}, opts.statsInterval)
	defer stopStats()

	if _, err := startServices(clockHost, printerHost); err != nil {
		return err
	}
	runClients(clientHost, opts.duration)
	printGatewaySummary(sys, false)
	return nil
}

// startServices places the scenario's native services: a UPnP clock and
// an SLP printer (announcing, so gateways learn passively). It returns
// how many services it registered — the convergence gate's expected
// count comes from here, not from a hard-coded constant.
func startServices(clockHost, printerHost *indiss.Host) (int, error) {
	services := 0
	clock, err := upnp.NewRootDevice(clockHost, upnp.DeviceConfig{
		Kind:         "clock",
		FriendlyName: "CyberGarage Clock Device",
		Services:     []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		return services, err
	}
	_ = clock // lives until process exit; the simulation owns it
	services++

	printerSA, err := slp.NewServiceAgent(printerHost, slp.AgentConfig{
		AnnounceInterval: 200 * time.Millisecond,
	})
	if err != nil {
		return services, err
	}
	if err := printerSA.Register("service:printer",
		"service:printer://"+printerHost.IP()+":515",
		time.Hour, slp.AttrList{{Name: "location", Values: []string{"hall"}}}); err != nil {
		return services, err
	}
	services++
	return services, nil
}

// runClients performs one discovery per protocol from the client host.
func runClients(clientHost *indiss.Host, duration time.Duration) {
	fmt.Println("indiss-gw: SLP client searching for the UPnP clock ...")
	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	if urls, err := ua.FindFirst("service:clock", "", duration); err == nil {
		fmt.Printf("indiss-gw:   found %s\n", urls[0].URL)
	} else {
		fmt.Printf("indiss-gw:   not found: %v\n", err)
	}

	fmt.Println("indiss-gw: UPnP control point searching for the SLP printer ...")
	cp := upnp.NewControlPoint(clientHost, upnp.ControlPointConfig{Timeout: duration})
	if dev, err := cp.Discover(upnp.TypeURN("printer", 1), 0); err == nil {
		fmt.Printf("indiss-gw:   found %q at %s\n", dev.Desc.FriendlyName, dev.Desc.ModelURL)
	} else {
		fmt.Printf("indiss-gw:   not found: %v\n", err)
	}

	fmt.Println("indiss-gw: Jini client browsing through the bridge registrar ...")
	jc := jini.NewClient(clientHost, jini.ClientConfig{})
	if loc, err := jc.DiscoverLookup(duration); err == nil {
		deadline := time.Now().Add(duration)
		for {
			items, err := jc.Lookup(loc, jini.ServiceTemplate{}, time.Second)
			if err == nil && len(items) > 0 {
				for _, item := range items {
					fmt.Printf("indiss-gw:   %s -> %s\n", item.Type, item.Endpoint)
				}
				break
			}
			if time.Now().After(deadline) {
				fmt.Println("indiss-gw:   registrar stayed empty")
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	} else {
		fmt.Printf("indiss-gw:   no lookup service: %v\n", err)
	}
}

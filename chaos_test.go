package indiss_test

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"indiss"
	"indiss/internal/chaos"
	"indiss/internal/core"
	"indiss/internal/dnssd"
	"indiss/internal/experiments"
	"indiss/internal/federation"
	"indiss/internal/netapi"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/units"
	"indiss/internal/upnp"
)

// This file is the chaos-and-scale acceptance: federated campuses under
// runtime fault injection (gateway crash/restart, rolling partitions,
// lossy fabrics) and churn workloads up to thousands of services, with
// the full invariant set — convergence, zero duplicates, no
// resurrection, TTL-bounded staleness — asserted at every quiescent
// checkpoint. `go test -race -run 'Chaos|Churn|Partition' .` runs it.

// chaosFixture is a federated campus plus churn hosts.
type chaosFixture struct {
	tb       testing.TB
	net      *simnet.Network
	segs     int
	fedSync  time.Duration
	gwHosts  []*simnet.Host
	svcHosts []*simnet.Host
	gws      []*indiss.System
	checker  *chaos.Checker
	// dataDirs, when non-nil, gives every gateway a persistent view
	// store; a restart then warm-boots from disk instead of starting
	// from an empty view.
	dataDirs []string
}

// chaosOpt tweaks the fixture before the gateways deploy.
type chaosOpt func(*chaosFixture)

// withPersistence gives each gateway its own DataDir under the test's
// temp root, so crash/restart cycles exercise the warm-boot path.
func withPersistence() chaosOpt {
	return func(f *chaosFixture) {
		root := f.tb.TempDir()
		f.dataDirs = make([]string, f.segs)
		for i := range f.dataDirs {
			f.dataDirs[i] = filepath.Join(root, chaosGWID(i))
		}
	}
}

func chaosGWName(i int) string { return "gw" + fmt.Sprint(i+1) }
func chaosGWID(i int) string   { return "gw-" + fmt.Sprint(i+1) }

// chaosDeployCfg is the gateway configuration every (re)deploy uses:
// chain peering (each gateway dials its successor), fast anti-entropy
// and Jini sync so checkpoints quiesce in test time.
func (f *chaosFixture) chaosDeployCfg(i int) indiss.Config {
	cfg := indiss.Config{
		Role:                   indiss.RoleGateway,
		GatewayID:              chaosGWID(i),
		FederationPort:         indiss.FederationDefaultPort,
		FederationSyncInterval: f.fedSync,
		Units: indiss.UnitOptions{
			Jini: units.JiniUnitConfig{
				SyncInterval: 200 * time.Millisecond,
				// Volatile-fleet setting: Jini items are only trusted
				// as long as the churn TTL, like every other SDP here.
				CacheTTL: soakConfig().TTL,
			},
		},
	}
	if i+1 < f.segs {
		cfg.Peers = []string{fmt.Sprintf("10.0.%d.9:%d", i+2, indiss.FederationDefaultPort)}
	}
	if f.dataDirs != nil {
		cfg.DataDir = f.dataDirs[i]
	}
	return cfg
}

// newChaosCampus builds a chain campus: segs paper-grade LANs (with the
// given intra-segment loss rate), one gateway per segment peered in a
// chain, and svcPerSeg churn hosts per segment. fedSync is the
// anti-entropy interval: snappy for small fault scenarios, but it MUST
// scale with fleet size — a full-view snapshot every 250ms is O(view²)
// background traffic while thousands of services register.
func newChaosCampus(tb testing.TB, segs, svcPerSeg int, lanLoss float64, fedSync time.Duration, opts ...chaosOpt) *chaosFixture {
	tb.Helper()
	topo := indiss.NewTopology(simnet.Config{
		LANLatency:      100 * time.Microsecond,
		LoopbackLatency: 10 * time.Microsecond,
		BandwidthBps:    10_000_000,
		LossRate:        lanLoss,
	})
	for i := 1; i <= segs; i++ {
		topo.Segment(indiss.CampusSegment(i))
	}
	topo.Chain(indiss.CampusLink())
	n, err := topo.Build()
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(n.Close)

	f := &chaosFixture{tb: tb, net: n, segs: segs, fedSync: fedSync}
	for _, opt := range opts {
		opt(f)
	}
	for i := 0; i < segs; i++ {
		f.gwHosts = append(f.gwHosts,
			n.MustAddHostOn(chaosGWName(i), fmt.Sprintf("10.0.%d.9", i+1), indiss.CampusSegment(i+1)))
		for j := 0; j < svcPerSeg; j++ {
			f.svcHosts = append(f.svcHosts,
				n.MustAddHostOn(fmt.Sprintf("svc%d-%d", i+1, j),
					fmt.Sprintf("10.0.%d.%d", i+1, 20+j), indiss.CampusSegment(i+1)))
		}
	}
	var gateways []chaos.Gateway
	for i := 0; i < segs; i++ {
		sys, err := indiss.Deploy(f.gwHosts[i], f.chaosDeployCfg(i))
		if err != nil {
			tb.Fatalf("deploy %s: %v", chaosGWID(i), err)
		}
		f.gws = append(f.gws, sys)
		gateways = append(gateways, chaos.Gateway{ID: chaosGWID(i), View: sys.View()})
	}
	tb.Cleanup(f.closeAll)
	f.checker = chaos.NewChecker(chaos.CheckerConfig{MaxHops: segs - 1}, gateways...)
	return f
}

func (f *chaosFixture) closeAll() {
	for _, sys := range f.gws {
		if sys != nil {
			sys.Close()
		}
	}
}

// crash kills gateway i the hard way: host down (so no farewell traffic
// escapes — peers see their TCP sessions reset, not a goodbye), the old
// instance torn down into the void, host back up. Returns the crash
// instant.
func (f *chaosFixture) crash(i int) time.Time {
	f.tb.Helper()
	at := time.Now()
	f.gwHosts[i].SetDown(true)
	f.gws[i].Close()
	f.gws[i] = nil
	f.gwHosts[i].SetDown(false)
	return at
}

// restart redeploys gateway i under its old identity with an empty view
// — a reboot, not a resume — and repoints the checker.
func (f *chaosFixture) restart(i int) {
	f.tb.Helper()
	sys, err := indiss.Deploy(f.gwHosts[i], f.chaosDeployCfg(i))
	if err != nil {
		f.tb.Fatalf("restart %s: %v", chaosGWID(i), err)
	}
	f.gws[i] = sys
	f.checker.UpdateView(chaosGWID(i), sys.View())
}

// newWorkload builds a churn workload over every churn host.
func (f *chaosFixture) newWorkload(cfg chaos.WorkloadConfig) *chaos.Workload {
	f.tb.Helper()
	w, err := chaos.NewWorkload(f.svcHosts, cfg)
	if err != nil {
		f.tb.Fatal(err)
	}
	f.tb.Cleanup(w.Close)
	return w
}

// checkpoint quiesces and asserts the full invariant set.
func (f *chaosFixture) checkpoint(name string, w *chaos.Workload, timeout time.Duration) {
	f.tb.Helper()
	if err := f.checker.WaitQuiescent(w.Expectation(), timeout); err != nil {
		f.tb.Fatalf("checkpoint %q: %v", name, err)
	}
}

// soakConfig is the shared churn tuning: 3s advertised lifetimes so
// staleness bounds are observable in test time, sub-second announce and
// refresh cadence.
func soakConfig() chaos.WorkloadConfig {
	return chaos.WorkloadConfig{
		TTL:              3 * time.Second,
		AnnounceInterval: 300 * time.Millisecond,
		RefreshInterval:  time.Second,
		JiniCacheTTL:     3 * time.Second, // matches the gateways' CacheTTL
	}
}

// TestChaosGatewayCrashRestart: a transit gateway crashes mid-churn and
// returns with the same identity and an empty view. The federation must
// re-sync it in full (snapshot on reconnect), records bridged through it
// must stay TTL-bounded while it is gone, withdrawals performed during
// the outage must not resurrect, and the re-converged views must be
// duplicate-free with sane hop counts.
func TestChaosGatewayCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; skipped in -short")
	}
	t.Parallel()
	f := newChaosCampus(t, 3, 1, 0, 250*time.Millisecond)
	w := f.newWorkload(soakConfig())

	if err := w.Register(45); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("pre-crash", w, 30*time.Second)

	crashAt := f.crash(1) // the middle gateway: every cross-campus record transits it

	// Life goes on during the outage: new registrations, withdrawals,
	// renewals — including on the orphaned middle segment.
	if err := w.Churn(20); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Deregister(5); err != nil {
		t.Fatal(err)
	}
	// TTL-bounded staleness while down: everything that entered the
	// federation through the dead gateway must carry an expiry no later
	// than its last pre-crash advertisement allows.
	if vs := f.checker.CheckOrphans(chaosGWID(1), crashAt, soakConfig().TTL); len(vs) > 0 {
		t.Fatalf("orphan staleness during outage: %v", vs)
	}

	f.restart(1)
	f.checkpoint("post-restart", w, 30*time.Second)

	// And the withdrawn services must eventually be gone everywhere —
	// including the ones withdrawn while the transit gateway was dead.
	deadline := time.Until(w.MaxStaleness()) + 5*time.Second
	if err := f.checker.WaitBuried(w.Expectation(), deadline); err != nil {
		t.Fatal(err)
	}
}

// TestChaosWarmRestart is the crash/restart scenario with persistence:
// the middle gateway keeps its DataDir across the crash, so the reboot
// is warm — the view replays from the log and federation epochs seed
// from disk instead of a full re-learn. The invariant set sharpens
// accordingly: services withdrawn while the gateway was down sit on its
// disk as live records, and replaying them must not resurrect them
// anywhere (digest anti-entropy has to repair the stale replay), while
// every replayed record stays bounded by its pre-crash TTL.
func TestChaosWarmRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; skipped in -short")
	}
	t.Parallel()
	f := newChaosCampus(t, 3, 1, 0, 250*time.Millisecond, withPersistence())
	w := f.newWorkload(soakConfig())

	if err := w.Register(45); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("pre-crash", w, 30*time.Second)

	crashAt := f.crash(1)

	// The world moves on while the gateway is down — including
	// withdrawals its disk still records as live.
	if err := w.Churn(20); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Deregister(5); err != nil {
		t.Fatal(err)
	}
	if vs := f.checker.CheckOrphans(chaosGWID(1), crashAt, soakConfig().TTL); len(vs) > 0 {
		t.Fatalf("orphan staleness during outage: %v", vs)
	}

	f.restart(1)

	// The reboot must actually have been warm.
	rc := f.gws[1].Recovered()
	if rc.Segments == 0 {
		t.Fatal("restart replayed no segments; warm boot did not happen")
	}
	if len(rc.Records) == 0 {
		t.Fatalf("restart replayed no live records (dropped-expired=%d); "+
			"the pre-crash view never made it to disk", rc.DroppedExpired)
	}
	// No replayed record may outlive what was advertised before the
	// crash: disk must not mint freshness.
	for _, r := range rc.Records {
		if exp := time.UnixMilli(r.Expires); exp.After(crashAt.Add(soakConfig().TTL)) {
			t.Fatalf("replayed record %s expires %v, later than crash+TTL %v",
				r.URL, exp, crashAt.Add(soakConfig().TTL))
		}
	}
	if st := f.gws[1].Federation().(*federation.Endpoint).Stats(); st.WarmEpochs == 0 {
		t.Fatal("federation seeded no epochs from the warm boot")
	}

	// Convergence with the stale replay repaired, then every withdrawal
	// — including the mid-outage ones the disk contradicts — stays gone.
	f.checkpoint("post-restart", w, 30*time.Second)
	deadline := time.Until(w.MaxStaleness()) + 5*time.Second
	if err := f.checker.WaitBuried(w.Expectation(), deadline); err != nil {
		t.Fatal(err)
	}
}

// TestChaosRollingPartition: the campus links go down one after another.
// While seg1 is cut off, services are withdrawn on the far side; on heal
// the stale holder must be repaired (tombstones + withdraw-back), not
// believed — the record must not resurrect anywhere. New registrations
// made during each partition must converge after each heal.
func TestChaosRollingPartition(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; skipped in -short")
	}
	t.Parallel()
	f := newChaosCampus(t, 3, 1, 0, 250*time.Millisecond)
	w := f.newWorkload(soakConfig())

	if err := w.Register(30); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("healthy", w, 30*time.Second)

	seg := indiss.CampusSegment
	for round, cut := range [][2]string{{seg(1), seg(2)}, {seg(2), seg(3)}} {
		if err := f.net.Partition(cut[0], cut[1]); err != nil {
			t.Fatal(err)
		}
		// Churn while split: registrations and withdrawals happen on
		// both sides of the cut.
		if err := w.Churn(12); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Deregister(4); err != nil {
			t.Fatal(err)
		}
		if err := f.net.Heal(cut[0], cut[1]); err != nil {
			t.Fatal(err)
		}
		f.checkpoint(fmt.Sprintf("healed round %d", round+1), w, 30*time.Second)
	}

	// Nothing withdrawn during the rolls may ever come back.
	deadline := time.Until(w.MaxStaleness()) + 5*time.Second
	if err := f.checker.WaitBuried(w.Expectation(), deadline); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("final", w, 10*time.Second)
}

// TestChaosLossyLinkInterop: the interop matrix shrunk to three directed
// cross-SDP pairings, run on a fabric dropping 15% of every LAN datagram
// while the inter-segment link degrades mid-test (runtime SetLink). The
// protocols' own retry machinery — SLP request retransmission, mDNS
// re-query, announcement repetition — must still deliver every answer.
func TestChaosLossyLinkInterop(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak; skipped in -short")
	}
	t.Parallel()
	f := newChaosCampus(t, 2, 1, 0.15, 250*time.Millisecond)
	svcHost := f.svcHosts[1] // seg2
	cliHost := f.net.MustAddHostOn("cli", "10.0.1.50", indiss.CampusSegment(1))

	// Services: a UPnP clock and a DNS-SD lamp on seg2.
	dev, err := upnp.NewRootDevice(svcHost, upnp.DeviceConfig{
		Kind: "clock", FriendlyName: "Chaos Clock",
		Services: []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dev.Close)
	resp, err := dnssd.NewResponder(svcHost, dnssd.ResponderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(resp.Close)
	if err := resp.Register(dnssd.Registration{
		Instance: "Lamp", Service: dnssd.ServiceType("lamp"), Port: 9100,
	}); err != nil {
		t.Fatal(err)
	}

	// Mid-test the routed link degrades: 5ms latency, 30% loss. (Only
	// UDP pays the loss; the federation's TCP sessions model a reliable
	// transport and simply slow down.)
	scenario := chaos.NewScenario().
		SetLink(500*time.Millisecond, f.net, indiss.CampusSegment(1), indiss.CampusSegment(2),
			simnet.Link{Latency: 5 * time.Millisecond, BandwidthBps: 100_000_000, LossRate: 0.3})
	done := scenario.Start(nil)

	// Convergence through the lossy fabric: announce repetition must
	// push both records across within their deadline.
	waitView := func(kind string, origin core.SDP) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			recs := f.gws[0].View().Find(kind, time.Now())
			if len(recs) > 0 && recs[0].Origin == origin {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("kind %q (origin %s) never crossed the lossy campus", kind, origin)
			}
			time.Sleep(25 * time.Millisecond)
		}
	}
	waitView("clock", core.SDPUPnP)
	waitView("lamp", core.SDPDNSSD)

	// SLP client → UPnP service: the UA's multicast retransmission
	// rides out the loss.
	ua := slp.NewUserAgent(cliHost, slp.AgentConfig{})
	urls, err := ua.FindFirst("service:clock", "", 20*time.Second)
	if err != nil {
		t.Fatalf("SLP FindFirst over lossy fabric: %v", err)
	}
	if !strings.Contains(urls[0].URL, "soap://10.0.2.20") {
		t.Errorf("SLP client got %q, want the seg2 UPnP endpoint", urls[0].URL)
	}

	// SLP client → DNS-SD service.
	urls, err = ua.FindFirst("service:lamp", "", 20*time.Second)
	if err != nil {
		t.Fatalf("SLP FindFirst (lamp): %v", err)
	}
	if !strings.Contains(urls[0].URL, "10.0.2.20:9100") {
		t.Errorf("SLP client got %q, want the seg2 DNS-SD endpoint", urls[0].URL)
	}

	// DNS-SD client → UPnP service: mDNS sends one query per Browse, so
	// the client retries — exactly what a real resolver does on a lossy
	// link.
	q := dnssd.NewQuerier(cliHost, dnssd.QuerierConfig{})
	deadline := time.Now().Add(20 * time.Second)
	for {
		insts, err := q.Browse(dnssd.ServiceType("clock"), 2*time.Second)
		if err == nil && len(insts) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("DNS-SD browse never found the UPnP clock (last err %v)", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("fault scenario: %v", err)
	}
}

// churnSoak drives the full soak at a given scale: seed, checkpoint,
// churn, checkpoint, crash/restart a gateway, checkpoint, and finally
// wait out every grave.
func churnSoak(t *testing.T, services, svcPerSeg, churnOps int, cfg chaos.WorkloadConfig, fedSync time.Duration) {
	t.Helper()
	f := newChaosCampus(t, 3, svcPerSeg, 0, fedSync)
	w := f.newWorkload(cfg)

	start := time.Now()
	for done := 0; done < services; done += 500 {
		n := min(500, services-done)
		if err := w.Register(n); err != nil {
			t.Fatal(err)
		}
		t.Logf("registered %d/%d in %v", done+n, services, time.Since(start))
	}
	t.Logf("registered %d services across %d hosts in %v", services, svcPerSeg*3, time.Since(start))
	f.checkpoint("seeded", w, 60*time.Second)
	t.Logf("seeded checkpoint converged at %v", time.Since(start))

	if err := w.Churn(churnOps); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("churned", w, 60*time.Second)

	f.crash(1)
	if _, err := w.Deregister(services / 50); err != nil {
		t.Fatal(err)
	}
	f.restart(1)
	f.checkpoint("post-crash", w, 60*time.Second)

	deadline := time.Until(w.MaxStaleness()) + 10*time.Second
	if err := f.checker.WaitBuried(w.Expectation(), deadline); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("final", w, 15*time.Second)
	t.Logf("soak complete in %v: %d live, %d withdrawn",
		time.Since(start), len(w.Expectation().Live), len(w.Expectation().Withdrawn))
}

// TestChurnSoak1k: a thousand services churning across three segments
// and all four SDPs, with a mid-soak gateway crash. Runs in seconds of
// wall-clock on the simulated fabric.
func TestChurnSoak1k(t *testing.T) {
	if testing.Short() {
		t.Skip("1k churn soak; skipped in -short")
	}
	churnSoak(t, 1000, 2, 150, soakConfig(), 500*time.Millisecond)
}

// TestChurnScale5k: the scale point — five thousand services. The mix
// leans harder on the multiplexing stacks (a UPnP service is a whole
// device process; five hundred of them would dominate the soak without
// adding coverage), and the advertisement cadence slows to what a fleet
// this size would actually use — 5000 sub-second renewals would be a
// refresh storm, not a workload.
func TestChurnScale5k(t *testing.T) {
	if testing.Short() {
		t.Skip("5k scale scenario; skipped in -short")
	}
	if raceEnabled {
		t.Skip("5k scale runs raceless (TestChurnSoak1k is the race-checked soak); " +
			"under the detector the fleet measures instrumentation, not the system")
	}
	cfg := chaos.WorkloadConfig{
		TTL:              10 * time.Second,
		AnnounceInterval: 500 * time.Millisecond,
		RefreshInterval:  3 * time.Second,
		JiniCacheTTL:     10 * time.Second,
		Mix:              chaos.Mix{SLP: 30, DNSSD: 55, UPnP: 5, Jini: 10},
	}
	// Anti-entropy scales with the fleet: at 5k records a snapshot is
	// ~1MB per peer per round, so the repair cadence relaxes to 2s and
	// incremental deltas carry the steady state.
	churnSoak(t, 5000, 3, 250, cfg, 2*time.Second)
}

// TestChaosScheduleDrivesCampus: the text schedule language drives a
// real campus end to end — the DSL is not just parsed but executed.
func TestChaosScheduleDrivesCampus(t *testing.T) {
	t.Parallel()
	f := newChaosCampus(t, 2, 0, 0, 250*time.Millisecond)
	ops, err := chaos.ParseSchedule(fmt.Sprintf(`
at 0ms partition %[1]s %[2]s
at 120ms down %[3]s
at 240ms up %[3]s
at 360ms heal %[1]s %[2]s
`, indiss.CampusSegment(1), indiss.CampusSegment(2), chaosGWName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := chaos.Bind(f.net, ops).Run(nil); err != nil {
		t.Fatal(err)
	}
	if f.net.Partitioned(indiss.CampusSegment(1), indiss.CampusSegment(2)) {
		t.Fatal("campus still partitioned after schedule")
	}
	// The fabric must still carry discovery: put a record at gw2 and
	// watch it reach gw1 over the re-established peering.
	f.gws[1].View().Put(core.ServiceRecord{
		Origin: core.SDPSLP, Kind: "aftermath", URL: "service:aftermath://10.0.2.9:1",
		Attrs: map[string]string{}, Expires: time.Now().Add(time.Hour),
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if len(f.gws[0].View().Find("aftermath", time.Now())) > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("record never crossed the healed campus")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// BenchmarkChurnConvergence measures end-to-end convergence: register a
// batch of services on one segment, stamp when the far gateway's view
// holds them all. The reported metric is the per-batch convergence
// median — PERF.md tracks it.
func BenchmarkChurnConvergence(b *testing.B) {
	f := newChaosCampus(b, 2, 1, 0, 250*time.Millisecond)
	w, err := chaos.NewWorkload([]*simnet.Host{f.svcHosts[0]}, chaos.WorkloadConfig{
		TTL:              time.Minute,
		AnnounceInterval: 50 * time.Millisecond,
		RefreshInterval:  10 * time.Second,
		Mix:              chaos.Mix{SLP: 1, DNSSD: 1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	far := f.gws[1].View()

	const batch = 10
	durations := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Register(batch); err != nil {
			b.Fatal(err)
		}
		exp := w.Expectation()
		start := time.Now()
		for {
			missing := 0
			now := time.Now()
			for _, svc := range exp.Live {
				if len(far.Find(svc.Kind, now)) == 0 {
					missing++
				}
			}
			if missing == 0 {
				break
			}
			if time.Since(start) > 30*time.Second {
				b.Fatalf("batch %d never converged (%d missing)", i, missing)
			}
			netapi.SleepPrecise(200 * time.Microsecond)
		}
		durations = append(durations, time.Since(start))
	}
	b.StopTimer()
	if len(durations) > 0 {
		slices.Sort(durations)
		b.ReportMetric(float64(experiments.Quantile(durations, 0.5).Microseconds())/1000, "ms-median/conv")
	}
}

// --- fleet-scale soak ---

// fleetSvc is one record the fleet soak planted, with everything the
// invariant checker needs to hold the fleet to it.
type fleetSvc struct {
	gw      int
	kind    string
	url     string
	expires time.Time
}

// TestChaosFleet64OverlaySoak is the fleet-scale acceptance gate: 64
// gateways across a 4-segment campus, seeded with nothing but a
// successor chain, must self-organize an overlay (fanout 4, far below
// the fleet size), converge a record from every gateway into every
// view, and hold the full invariant set through churn and a mid-soak
// partition/heal that splits the fleet 32/32. It runs even in -short:
// the digest plane keeps it to seconds of wall clock, so CI's quick
// lane still exercises the scale path.
func TestChaosFleet64OverlaySoak(t *testing.T) {
	if raceEnabled && !testing.Short() {
		t.Skip("under the race detector the fleet soak runs in CI's dedicated -short lane; " +
			"the full -race pass already carries the churn soaks, and doubling up " +
			"spends minutes of detector time on coverage the -short lane provides")
	}
	t.Parallel()
	const (
		fleet  = 64
		segs   = 4
		perSeg = fleet / segs
		// The overlay must beat this diameter on its own: the seed
		// chain alone is 63 hops, so convergence everywhere proves the
		// gossiped shortcuts formed.
		maxHops = 12
	)
	topo := indiss.NewTopology(simnet.Config{
		LANLatency:      100 * time.Microsecond,
		LoopbackLatency: 10 * time.Microsecond,
		BandwidthBps:    10_000_000,
	})
	for i := 1; i <= segs; i++ {
		topo.Segment(indiss.CampusSegment(i))
	}
	topo.Chain(indiss.CampusLink())
	n, err := topo.Build()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)

	hosts := make([]*simnet.Host, fleet)
	views := make([]*core.ServiceView, fleet)
	for i := range hosts {
		seg := i / perSeg
		hosts[i] = n.MustAddHostOn(fmt.Sprintf("fgw%d", i),
			fmt.Sprintf("10.0.%d.%d", seg+1, 30+i%perSeg), indiss.CampusSegment(seg+1))
		views[i] = core.NewServiceView()
	}

	// Plant one service per gateway before the fleet even boots, plus a
	// bookkeeping helper for churn later.
	var (
		svcs []fleetSvc
		next int
	)
	plant := func(gw int) fleetSvc {
		s := fleetSvc{
			gw:      gw,
			kind:    fmt.Sprintf("churn-fleet-%d", next),
			url:     fmt.Sprintf("service:fleet://10.0.0.%d:%d", gw, 7000+next),
			expires: time.Now().Add(time.Hour),
		}
		next++
		views[gw].Put(core.ServiceRecord{
			Origin: core.SDPSLP, Kind: s.kind, URL: s.url,
			Attrs: map[string]string{}, Expires: s.expires,
		})
		svcs = append(svcs, s)
		return s
	}
	for i := 0; i < fleet; i++ {
		plant(i)
	}

	// The race detector multiplies the cost of every synchronization
	// op, and 64 gateways' timers (anti-entropy rounds, flush windows,
	// read-deadline polls) add up to thousands of wakeups per second.
	// On an instrumented runner the fleet still converges — just not at
	// the raceless rhythm — so the -short race lane slows the cadence
	// and stretches the checkpoint deadlines. The invariants asserted
	// are identical in both lanes.
	antiEntropy := 250 * time.Millisecond
	readTimeout := 50 * time.Millisecond
	flush := 5 * time.Millisecond
	scale := time.Duration(1)
	if raceEnabled {
		antiEntropy = time.Second
		readTimeout = 500 * time.Millisecond
		flush = 20 * time.Millisecond
		scale = 6
	}

	eps := make([]*federation.Endpoint, fleet)
	gateways := make([]chaos.Gateway, fleet)
	for i := range hosts {
		cfg := federation.Config{
			GatewayID:           fmt.Sprintf("fgw-%d", i),
			AntiEntropyInterval: antiEntropy,
			DialRetryInterval:   50 * time.Millisecond,
			ReadTimeout:         readTimeout,
			FlushInterval:       flush,
			MaxHops:             maxHops,
			MaxActivePeers:      4,
		}
		if i+1 < fleet {
			cfg.Peers = []simnet.Addr{{IP: hosts[i+1].IP(), Port: federation.DefaultPort}}
		}
		ep, err := federation.New(hosts[i], views[i], cfg)
		if err != nil {
			t.Fatalf("fgw-%d: %v", i, err)
		}
		t.Cleanup(func() { ep.Close() })
		eps[i] = ep
		gateways[i] = chaos.Gateway{ID: cfg.GatewayID, View: views[i]}
	}
	checker := chaos.NewChecker(chaos.CheckerConfig{MaxHops: maxHops}, gateways...)

	var withdrawn []chaos.Withdrawn
	expectation := func() chaos.Expectation {
		exp := chaos.Expectation{Withdrawn: withdrawn}
		for _, s := range svcs {
			exp.Live = append(exp.Live, chaos.Expected{Kind: s.kind, Origin: core.SDPSLP})
		}
		return exp
	}
	remove := func(idx int) {
		s := svcs[idx]
		views[s.gw].Remove(core.SDPSLP, s.url)
		withdrawn = append(withdrawn, chaos.Withdrawn{
			Kind: s.kind, Origin: core.SDPSLP, Clean: true, ExpiresBy: s.expires,
		})
		svcs = append(svcs[:idx], svcs[idx+1:]...)
	}
	checkpoint := func(name string, timeout time.Duration) {
		t.Helper()
		start := time.Now()
		if err := checker.WaitQuiescent(expectation(), timeout); err != nil {
			t.Fatalf("checkpoint %q: %v", name, err)
		}
		t.Logf("checkpoint %q converged in %v", name, time.Since(start))
	}

	checkpoint("overlay-formed", scale*60*time.Second)

	// Overlay evidence: more links than the 63-edge seed chain could
	// ever provide, and a peer table that learned well past the
	// hand-wired successor.
	sessions := 0
	for i, ep := range eps {
		st := ep.Stats()
		sessions += st.Sessions
		if st.KnownPeers < perSeg/2 {
			t.Errorf("fgw-%d knows %d peers; gossip is not spreading membership", i, st.KnownPeers)
		}
	}
	if edges := sessions / 2; edges <= fleet-1 {
		t.Fatalf("fleet holds %d links — no more than the seed chain; overlay never formed", edges)
	}

	// Steady-state churn: a handful of withdrawals and fresh services.
	for i := 0; i < 6; i++ {
		remove(i * 7 % len(svcs))
		plant((i*11 + 3) % fleet)
	}
	checkpoint("churned", scale*60*time.Second)

	// Split the fleet 32/32 mid-churn and keep mutating on both sides.
	if err := n.Partition(indiss.CampusSegment(2), indiss.CampusSegment(3)); err != nil {
		t.Fatal(err)
	}
	remove(3)        // a withdrawal the far side can only learn after heal
	plant(5)         // left island
	plant(fleet - 5) // right island
	// Long enough that the crossing sessions die and each island
	// re-stabilizes internally — heal then has to re-merge two
	// self-satisfied overlays, which only the seed backbone guarantees.
	time.Sleep(scale * 3 * time.Second)
	if err := n.Heal(indiss.CampusSegment(2), indiss.CampusSegment(3)); err != nil {
		t.Fatal(err)
	}
	checkpoint("healed", scale*90*time.Second)

	// Every withdrawal — including the mid-partition one — must be gone
	// from all 64 views, and stay gone.
	if err := checker.WaitBuried(expectation(), scale*30*time.Second); err != nil {
		t.Fatal(err)
	}
	checkpoint("final", scale*30*time.Second)
}

// --- mobility ---

// TestChaosRoamHandover: a churn host roams to the other campus segment
// mid-soak (the chaos schedule's move verb over simnet Host.Move) and
// later roams home. Invariants: the new segment's gateway adopts every
// roamed service as a local record within a bounded handover gap; once
// the old leases lapse, the old gateway serves no stale local answers —
// its remaining copies are federation bridges from the new home; and the
// re-registrations on the new segment never produce duplicates (the
// full checker runs at every checkpoint). The mix sticks to the
// multicast-scoped SDPs: Jini's registrar polling is unicast and
// segment-agnostic, so a roam is invisible to it and it would only blur
// the handover signal this test measures.
func TestChaosRoamHandover(t *testing.T) {
	t.Parallel()
	f := newChaosCampus(t, 2, 1, 0, 250*time.Millisecond)
	cfg := soakConfig()
	cfg.Mix = chaos.Mix{SLP: 1, DNSSD: 1, UPnP: 1}
	w, err := chaos.NewWorkload(f.svcHosts[:1], cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if err := w.Register(6); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("pre-roam", w, 30*time.Second)
	live := w.Expectation().Live

	ops, err := chaos.ParseSchedule(fmt.Sprintf(
		"at 0ms move svc1-0 %s\n", indiss.CampusSegment(2)))
	if err != nil {
		t.Fatal(err)
	}
	roamAt := time.Now()
	if err := chaos.Bind(f.net, ops).Run(nil); err != nil {
		t.Fatal(err)
	}

	// Handover gap: every roamed service must re-register natively with
	// the new segment's gateway before its old lease would have lapsed —
	// the workload's refresh plus the announce loops get there in about
	// a second; TTL plus checker slack is the hard bound.
	handoverBound := cfg.TTL + 2*time.Second
	for {
		now := time.Now()
		missing := 0
		for _, svc := range live {
			adopted := false
			for _, r := range f.gws[1].View().Find(svc.Kind, now) {
				if !r.Remote {
					adopted = true
				}
			}
			if !adopted {
				missing++
			}
		}
		if missing == 0 {
			t.Logf("handover gap: %v for %d services", time.Since(roamAt), len(live))
			break
		}
		if time.Since(roamAt) > handoverBound {
			t.Fatalf("handover gap exceeded %v: %d of %d services not adopted on %s",
				handoverBound, missing, len(live), indiss.CampusSegment(2))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// No stale answers at the old home: once the pre-roam leases run
	// out, gw1 must hold each roamed service exactly as a federation
	// bridge (Remote) — a local record still answering there would be a
	// stale answer from the abandoned segment.
	staleBound := roamAt.Add(cfg.TTL + 4*time.Second)
	for {
		now := time.Now()
		stale, missing := 0, 0
		for _, svc := range live {
			recs := f.gws[0].View().Find(svc.Kind, now)
			if len(recs) == 0 {
				missing++
				continue
			}
			for i := range recs {
				if !recs[i].Remote {
					stale++
				}
			}
		}
		if stale == 0 && missing == 0 {
			break
		}
		if time.Now().After(staleBound) {
			t.Fatalf("after roam: %d stale local records, %d missing at the old home", stale, missing)
		}
		time.Sleep(20 * time.Millisecond)
	}
	f.checkpoint("post-roam", w, 30*time.Second)

	// Roam home: the reverse handover must hold the same invariants —
	// the checker would flag a duplicate if the re-registration ever
	// produced a second record.
	if err := f.net.MoveHost("svc1-0", indiss.CampusSegment(1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Readvertise(len(live)); err != nil {
		t.Fatal(err)
	}
	f.checkpoint("roam-home", w, 30*time.Second)
}

// TestChaosRoamUnderChurn is the roam storm: four-SDP churn while one
// churn host hops between the campus segments every 150ms, resetting
// its TCP sessions and re-homing its multicast mid-registration. The
// race detector is the main assert during the storm; the full soak
// invariant set must hold at the closing checkpoint.
func TestChaosRoamUnderChurn(t *testing.T) {
	t.Parallel()
	f := newChaosCampus(t, 2, 2, 0, 250*time.Millisecond)
	w := f.newWorkload(soakConfig())
	if err := w.Register(16); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // roamer: one churn host hops segments under the churn
		defer wg.Done()
		seg := 2
		for {
			select {
			case <-stop:
				return
			case <-time.After(150 * time.Millisecond):
			}
			if err := f.net.MoveHost("svc1-0", indiss.CampusSegment(seg)); err != nil {
				t.Errorf("move: %v", err)
				return
			}
			seg = 3 - seg
		}
	}()
	for i := 0; i < 20; i++ {
		if err := w.Churn(2); err != nil {
			close(stop)
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	f.checkpoint("post-storm", w, 30*time.Second)
}

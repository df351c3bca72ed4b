// Package experiments reproduces the paper's §4.3 evaluation: the
// response-time measurements of Figures 7, 8 and 9, with the calibrated
// stack profiles of DESIGN.md §5. It is the one place those testbeds are
// built. Each Scenario declares one row and builds a fresh testbed around
// the paper's quantity ("the native client waiting time to get an
// answer"). Run measures it the paper's way (median of N successful
// runs) and reports paper-vs-measured; the root package's BenchmarkFig*
// functions loop over the same lookup.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"indiss"
	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// DefaultRuns matches the paper: "the given measurements … are the median
// of 30 successful tests".
const DefaultRuns = 30

// Scenario is one Figure 7–9 row.
type Scenario struct {
	// ID names the figure the row reproduces.
	ID string
	// Name is the paper's row label.
	Name string
	// Paper is the paper's published median; zero when it has none.
	Paper time.Duration
	// Note qualifies what exactly is measured.
	Note string
	// Setup builds a fresh testbed. It returns the lookup the row times
	// (one native discovery, nil once the client has its answer) and the
	// teardown that closes the testbed.
	Setup func() (lookup func() error, teardown func(), err error)
}

// Result is one measured experiment.
type Result struct {
	// ID names the figure the row reproduces.
	ID string
	// Name is the paper's row label.
	Name string
	// Paper is the paper's published median.
	Paper time.Duration
	// Measured is our median.
	Measured time.Duration
	// Runs is the number of successful measurements.
	Runs int
	// Note qualifies what exactly is measured.
	Note string
}

// String renders a paper-style row.
func (r Result) String() string {
	return fmt.Sprintf("%-8s %-22s paper=%-8s measured=%-10s (%d runs)",
		r.ID, r.Name, fmtMs(r.Paper), fmtMs(r.Measured), r.Runs)
}

func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

// Quantile returns the p-quantile (0..1) of sorted by nearest rank: the
// sample at rank ⌈p·n⌉, the first for p = 0. It is 0 when sorted is
// empty.
func Quantile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// Median runs fn n times and returns the median duration, by nearest
// rank. Failed runs (fn returns false) are retried up to 3n attempts,
// mirroring the paper's "successful tests" filter.
func Median(n int, fn func() (time.Duration, bool)) (time.Duration, int) {
	var samples []time.Duration
	for attempts := 0; len(samples) < n && attempts < 3*n; attempts++ {
		if d, ok := fn(); ok {
			samples = append(samples, d)
		}
	}
	slices.Sort(samples)
	return Quantile(samples, 0.5), len(samples)
}

// Run builds the scenario's testbed and reports the median of runs
// timed lookups.
func (s Scenario) Run(runs int) Result {
	r := Result{ID: s.ID, Name: s.Name, Paper: s.Paper, Note: s.Note}
	lookup, teardown, err := s.Setup()
	if err != nil {
		r.Note = "FAILED: " + err.Error()
		return r
	}
	defer teardown()
	r.Measured, r.Runs = Median(runs, func() (time.Duration, bool) {
		start := time.Now()
		err := lookup()
		return time.Since(start), err == nil
	})
	return r
}

// Scenarios lists every row in the order cmd/experiments prints them.
var Scenarios = []Scenario{
	NativeSLP,
	NativeUPnP,
	NativeUPnPFullDiscovery,
	ServiceSideSLPToUPnP,
	ServiceSideUPnPToSLP,
	ClientSideSLPToUPnP,
	ClientSideUPnPToSLP,
}

// All runs every Figure 7–9 experiment.
func All(runs int) []Result {
	results := make([]Result, len(Scenarios))
	for i, s := range Scenarios {
		results[i] = s.Run(runs)
	}
	return results
}

// testbed is the two-host LAN of §4.3.
type testbed struct {
	client  *simnet.Host
	service *simnet.Host
	closers []func()
}

// build wraps a testbed builder as a Scenario.Setup: it hands the builder
// a fresh LAN and closes whatever was built, in reverse order, on
// teardown or when the builder fails.
func build(f func(tb *testbed) (func() error, error)) func() (func() error, func(), error) {
	return func() (func() error, func(), error) {
		n := indiss.NewLAN()
		tb := &testbed{
			client:  n.MustAddHost("client", "10.0.0.1"),
			service: n.MustAddHost("service", "10.0.0.2"),
			closers: []func(){n.Close},
		}
		lookup, err := f(tb)
		if err != nil {
			tb.teardown()
			return nil, nil, err
		}
		return lookup, tb.teardown, nil
	}
}

func (tb *testbed) teardown() {
	for i := len(tb.closers) - 1; i >= 0; i-- {
		tb.closers[i]()
	}
}

// slpClock registers the native SLP clock service on the service host.
func (tb *testbed) slpClock(cfg slp.AgentConfig) error {
	sa, err := slp.NewServiceAgent(tb.service, cfg)
	if err != nil {
		return err
	}
	tb.closers = append(tb.closers, sa.Close)
	return sa.Register("service:clock", "service:clock://10.0.0.2:4005", time.Hour, nil)
}

// upnpClock starts the native CyberLink-profile UPnP clock device on the
// service host.
func (tb *testbed) upnpClock() error {
	ssdpCfg, httpDelay := indiss.CyberLinkDeviceProfile()
	dev, err := upnp.NewRootDevice(tb.service, indiss.PaddedClockDevice(httpDelay, ssdpCfg))
	if err != nil {
		return err
	}
	tb.closers = append(tb.closers, dev.Close)
	return nil
}

// deploy boots an SLP+UPnP INDISS instance with the calibrated profile
// on host.
func (tb *testbed) deploy(host *simnet.Host, role indiss.Role, noCache bool) (*indiss.System, error) {
	sys, err := indiss.Deploy(host, indiss.Config{
		Role:    role,
		SDPs:    []indiss.SDP{indiss.SLP, indiss.UPnP},
		Profile: indiss.CalibratedProfile(),
		NoCache: noCache,
	})
	if err != nil {
		return nil, err
	}
	tb.closers = append(tb.closers, func() { _ = sys.Close() })
	return sys, nil
}

// slpLookup is an OpenSLP-profile client on the client host searching
// for the clock.
func (tb *testbed) slpLookup(timeout time.Duration) func() error {
	ua := slp.NewUserAgent(tb.client, indiss.OpenSLPProfile())
	return func() error {
		_, err := ua.FindFirst("service:clock", "", timeout)
		return err
	}
}

// ssdpLookup is an SSDP control point on the client host searching for
// the clock device type.
func (tb *testbed) ssdpLookup(cfg ssdp.ClientConfig, timeout time.Duration) func() error {
	cp := ssdp.NewClient(tb.client, cfg)
	return func() error {
		_, err := cp.SearchFirst(upnp.TypeURN("clock", 1), 0, timeout)
		return err
	}
}

// --- Figure 7: native baselines ---

// NativeSLP measures a native SLP client against a native SLP service
// (paper: 0.7ms).
var NativeSLP = Scenario{
	ID: "Fig 7", Name: "SLP -> SLP", Paper: 700 * time.Microsecond,
	Note: "native OpenSLP-profile search request to successful answer",
	Setup: build(func(tb *testbed) (func() error, error) {
		if err := tb.slpClock(indiss.OpenSLPProfile()); err != nil {
			return nil, err
		}
		return tb.slpLookup(2 * time.Second), nil
	}),
}

// NativeUPnP measures a native UPnP control point against a native UPnP
// device (paper: 40ms). The measured quantity is the search answer — the
// point at which CyberLink reports the device — with the control point's
// stack costs included; the description fetch is reported separately by
// NativeUPnPFullDiscovery.
var NativeUPnP = Scenario{
	ID: "Fig 7", Name: "UPnP -> UPnP", Paper: 40 * time.Millisecond,
	Note: "native CyberLink-profile M-SEARCH to search answer",
	Setup: build(func(tb *testbed) (func() error, error) {
		if err := tb.upnpClock(); err != nil {
			return nil, err
		}
		return tb.ssdpLookup(indiss.CyberLinkCPProfile().SSDP, 2*time.Second), nil
	}),
}

// NativeUPnPFullDiscovery supplements Figure 7 with the complete chain
// (search + description fetch + parse), the work INDISS performs when it
// bridges into UPnP.
var NativeUPnPFullDiscovery = Scenario{
	ID: "Fig 7+", Name: "UPnP full discovery",
	Note: "supplementary: search + description fetch + parse (no paper value)",
	Setup: build(func(tb *testbed) (func() error, error) {
		if err := tb.upnpClock(); err != nil {
			return nil, err
		}
		cp := upnp.NewControlPoint(tb.client, indiss.CyberLinkCPProfile())
		return func() error {
			_, err := cp.Discover(upnp.TypeURN("clock", 1), 0)
			return err
		}, nil
	}),
}

// --- Figure 8: INDISS on the service side ---

// ServiceSideSLPToUPnP: an SLP client discovers a UPnP service through
// INDISS on the service host (paper: 65ms). The UPnP leg is host-local.
var ServiceSideSLPToUPnP = Scenario{
	ID: "Fig 8", Name: "Slp->[Slp-UPnP]", Paper: 65 * time.Millisecond,
	Note: "SLP search answered via two local UPnP exchanges (M-SEARCH + GET description)",
	Setup: build(func(tb *testbed) (func() error, error) {
		if err := tb.upnpClock(); err != nil {
			return nil, err
		}
		// INDISS boots after the device so its view is cold, and NoCache
		// keeps every request on the cold path the paper measured.
		if _, err := tb.deploy(tb.service, indiss.RoleServiceSide, true); err != nil {
			return nil, err
		}
		return tb.slpLookup(3 * time.Second), nil
	}),
}

// ServiceSideUPnPToSLP: a UPnP control point discovers an SLP service
// through INDISS on the service host (paper: 40ms — "exactly a native
// UPnP search": the control point's own stack cost dominates).
var ServiceSideUPnPToSLP = Scenario{
	ID: "Fig 8", Name: "UPnP->[UPnP-Slp]", Paper: 40 * time.Millisecond,
	Note: "UPnP search answered from a local SLP exchange; CP stack cost dominates",
	Setup: build(func(tb *testbed) (func() error, error) {
		if err := tb.slpClock(indiss.OpenSLPProfile()); err != nil {
			return nil, err
		}
		if _, err := tb.deploy(tb.service, indiss.RoleServiceSide, true); err != nil {
			return nil, err
		}
		return tb.ssdpLookup(indiss.CyberLinkCPProfile().SSDP, 3*time.Second), nil
	}),
}

// --- Figure 9: INDISS on the client side ---

// ClientSideSLPToUPnP: INDISS moves to the client host, so the two UPnP
// exchanges cross the network (paper: 80ms, +15ms over Figure 8).
var ClientSideSLPToUPnP = Scenario{
	ID: "Fig 9a", Name: "[Slp-UPnP]->UPnP", Paper: 80 * time.Millisecond,
	Note: "as Fig 8 but the UPnP traffic (incl. the description document) crosses the LAN",
	Setup: build(func(tb *testbed) (func() error, error) {
		if err := tb.upnpClock(); err != nil {
			return nil, err
		}
		if _, err := tb.deploy(tb.client, indiss.RoleClientSide, true); err != nil {
			return nil, err
		}
		return tb.slpLookup(3 * time.Second), nil
	}),
}

// ClientSideUPnPToSLP: the paper's best case (0.12ms) — INDISS on the
// client host answers the UPnP search from its view (warmed by passive
// SLP advertisements); only tiny SLP traffic ever crossed the network.
// The measurement is wire-level (no CyberLink client delays), matching
// the paper's sub-native-SLP reading.
var ClientSideUPnPToSLP = Scenario{
	ID: "Fig 9b", Name: "[UPnP-Slp]->Slp", Paper: 120 * time.Microsecond,
	Note: "answered from the view warmed by passive SLP adverts; wire-level turnaround",
	Setup: build(func(tb *testbed) (func() error, error) {
		err := tb.slpClock(slp.AgentConfig{
			ProcessingDelay:  indiss.OpenSLPProfile().ProcessingDelay,
			AnnounceInterval: 20 * time.Millisecond,
		})
		if err != nil {
			return nil, err
		}
		sys, err := tb.deploy(tb.client, indiss.RoleClientSide, false)
		if err != nil {
			return nil, err
		}
		// Wait for a passive SAAdvert to warm the view.
		deadline := time.Now().Add(3 * time.Second)
		for len(sys.View().Find("clock", time.Now())) == 0 {
			if time.Now().After(deadline) {
				return nil, errors.New("view never warmed")
			}
			time.Sleep(time.Millisecond)
		}
		return tb.ssdpLookup(ssdp.ClientConfig{}, 2*time.Second), nil // wire-level: no CP stack delays
	}),
}

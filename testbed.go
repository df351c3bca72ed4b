package indiss

import (
	"strconv"
	"strings"
	"time"

	"indiss/internal/simnet"
	"indiss/internal/slp"
	"indiss/internal/ssdp"
	"indiss/internal/upnp"
)

// This file defines the calibrated testbed reproducing the paper's §4.3
// measurement conditions. The absolute per-stack costs are unknowable
// (they lived inside OpenSLP, CyberLink for Java and the Java INDISS
// prototype on a 1.8GHz PIV); the profiles below are fitted so the six
// published medians keep their ordering and rough ratios. EXPERIMENTS.md
// details the fit.
//
// The simnet re-exports below (Network, Host, Topology, Link) are the
// *deliberate* simulated-testbed surface of the public API — hosts built
// here satisfy indiss.Stack, so they deploy exactly like the live stacks
// RealStack returns. Nothing else in the public API names a simnet type.

// lanConfig is the paper's testbed fabric, shared by every calibrated
// network builder so a re-tuning cannot diverge them.
func lanConfig() simnet.Config {
	return simnet.Config{
		LANLatency:      100 * time.Microsecond,
		LoopbackLatency: 10 * time.Microsecond,
		BandwidthBps:    10_000_000,
	}
}

// NewLAN builds the experiment network: a 10 Mb/s LAN with 100µs one-way
// latency, the paper's testbed fabric.
func NewLAN() *simnet.Network {
	return simnet.New(lanConfig())
}

// Network re-exports the simulated network type for API completeness.
type Network = simnet.Network

// Host re-exports the simulated host type.
type Host = simnet.Host

// Topology re-exports the segmented-network builder: declare segments,
// link them, Build. See NewCampus for the canonical multi-segment
// testbed.
type Topology = simnet.Topology

// Link re-exports an inter-segment link profile.
type Link = simnet.Link

// NewTopology starts a topology whose segments share the given
// intra-segment configuration (see NewLAN for the paper's).
func NewTopology(cfg simnet.Config) *Topology { return simnet.NewTopology(cfg) }

// CampusSegment names the i-th (1-based) segment of a NewCampus network.
func CampusSegment(i int) string { return "seg" + strconv.Itoa(i) }

// CampusLink is the inter-segment link profile of the campus testbed: a
// routed 100 Mb/s path with 2 ms one-way latency between buildings.
func CampusLink() Link { return simnet.WAN2ms() }

// NewCampus builds the multi-segment testbed the federation experiments
// run on: n paper-grade LANs ("seg1".."segN", each the NewLAN fabric)
// chained with CampusLink routed paths. Place one federated gateway per
// segment and peer them to taste; multicast stays inside each segment,
// exactly as on a routed campus network.
func NewCampus(n int) *simnet.Network {
	topo := simnet.NewTopology(lanConfig())
	for i := 1; i <= n; i++ {
		topo.Segment(CampusSegment(i))
	}
	topo.Chain(CampusLink())
	return topo.MustBuild()
}

// OpenSLPProfile models the OpenSLP library's per-message processing
// cost: with it, a native SLP search completes in ~0.7ms (paper Figure
// 7).
func OpenSLPProfile() slp.AgentConfig {
	return slp.AgentConfig{ProcessingDelay: 150 * time.Microsecond}
}

// CyberLinkDeviceProfile models CyberLink for Java on the device side:
// a few ms to answer an M-SEARCH, tens of ms for the Java HTTP server to
// deliver the description document.
func CyberLinkDeviceProfile() (ssdpCfg ssdp.ServerConfig, httpDelay time.Duration) {
	return ssdp.ServerConfig{ProcessingDelay: 3 * time.Millisecond}, 45 * time.Millisecond
}

// CyberLinkCPProfile models CyberLink on the control-point side: SSDP
// send/receive processing dominates the native 40ms search (paper §4.3).
func CyberLinkCPProfile() upnp.ControlPointConfig {
	return upnp.ControlPointConfig{
		SSDP:      ssdp.ClientConfig{ProcessingDelay: 18 * time.Millisecond},
		HTTPDelay: 2 * time.Millisecond,
	}
}

// CalibratedProfile models the Java INDISS prototype's own event
// machinery: cheap per-message handling, one expensive DOM-style XML
// parse when the UPnP unit switches parsers (paper §2.4).
func CalibratedProfile() TranslationProfile {
	return TranslationProfile{
		PerMessage: 200 * time.Microsecond,
		XMLParse:   12 * time.Millisecond,
	}
}

// PaddedClockDevice returns the §2.4 clock device configured with a
// realistically sized description document (CyberLink descriptions carry
// icon lists and presentation pages; ~16 kB), so description transfers
// pay a visible serialization cost on the 10 Mb/s LAN — the +15ms the
// paper attributes to moving the UPnP leg onto the network (Figure 9a).
func PaddedClockDevice(httpDelay time.Duration, ssdpCfg ssdp.ServerConfig) upnp.DeviceConfig {
	return upnp.DeviceConfig{
		Kind:             "clock",
		FriendlyName:     "CyberGarage Clock Device",
		Manufacturer:     "CyberGarage",
		ModelName:        "Clock",
		ModelDescription: DescriptionPadding(),
		Services:         []upnp.ServiceConfig{{Kind: "timer"}},
		SSDP:             ssdpCfg,
		HTTPDelay:        httpDelay,
	}
}

// DescriptionPadding is embedded in the experiment device's model
// description to reach a realistic document size.
func DescriptionPadding() string {
	// ~16kB of icon-list-equivalent payload.
	return strings.Repeat("CyberUPnP Clock Device presentation and icon payload. ", 300)
}

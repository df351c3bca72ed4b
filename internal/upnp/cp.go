package upnp

import (
	"errors"
	"fmt"
	"time"

	"indiss/internal/httpx"
	"indiss/internal/netapi"
	"indiss/internal/ssdp"
)

// ControlPointConfig tunes a control point.
type ControlPointConfig struct {
	// SSDP tunes the discovery half.
	SSDP ssdp.ClientConfig
	// HTTPDelay models client-side processing per HTTP exchange.
	HTTPDelay time.Duration
	// Timeout bounds each network exchange (default 2s).
	Timeout time.Duration
}

// Device is a discovered, described UPnP device: the search response plus
// the fetched description.
type Device struct {
	// Response is the SSDP answer that revealed the device.
	Response ssdp.SearchResponse
	// Desc is the parsed description document.
	Desc DeviceDesc
	// DescAddr is where the description server lives.
	DescAddr netapi.Addr
}

// ErrNoDevice reports that discovery produced no usable device.
var ErrNoDevice = errors.New("upnp: no device found")

// ControlPoint drives discovery and description from the client side
// (UDA 1.0 "control point").
type ControlPoint struct {
	host netapi.Stack
	cfg  ControlPointConfig
	ssdp *ssdp.Client
}

// NewControlPoint creates a control point on host.
func NewControlPoint(host netapi.Stack, cfg ControlPointConfig) *ControlPoint {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	return &ControlPoint{host: host, cfg: cfg, ssdp: ssdp.NewClient(host, cfg.SSDP)}
}

func (cp *ControlPoint) delay() {
	if cp.cfg.HTTPDelay > 0 {
		netapi.SleepPrecise(cp.cfg.HTTPDelay)
	}
}

// Discover runs the full UPnP discovery chain the paper's §4.3 measures:
// M-SEARCH → first response → GET description → parse. target may be a
// device type URN, uuid, upnp:rootdevice or ssdp:all.
func (cp *ControlPoint) Discover(target string, mx int) (*Device, error) {
	resp, err := cp.ssdp.SearchFirst(target, mx, cp.cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrNoDevice, err)
	}
	return cp.Describe(resp)
}

// Describe fetches and parses the description document behind a search
// response.
func (cp *ControlPoint) Describe(resp *ssdp.SearchResponse) (*Device, error) {
	addr, path, err := ParseHTTPURL(resp.Location)
	if err != nil {
		return nil, err
	}
	httpResp, err := httpx.Get(cp.host, addr, path, cp.cfg.Timeout)
	if err != nil {
		return nil, fmt.Errorf("upnp cp: describe: %w", err)
	}
	if httpResp.StatusCode != 200 {
		return nil, fmt.Errorf("upnp cp: describe: status %d", httpResp.StatusCode)
	}
	cp.delay()
	desc, err := ParseDescription(httpResp.Body)
	if err != nil {
		return nil, err
	}
	return &Device{Response: *resp, Desc: *desc, DescAddr: addr}, nil
}

package upnp

import (
	"fmt"
	"strings"
	"time"

	"indiss/internal/httpx"
	"indiss/internal/netapi"
	"indiss/internal/ssdp"
)

// DefaultDescriptionPort is where root devices serve description.xml —
// the paper's trace uses http://128.93.8.112:4004/description.xml.
const DefaultDescriptionPort = 4004

// ServiceConfig defines one hosted service.
type ServiceConfig struct {
	// Kind is the short service kind, e.g. "timer"; the URN is built
	// from it.
	Kind string
	// Version of the service type URN (default 1).
	Version int
}

// DeviceConfig defines a root device.
type DeviceConfig struct {
	// Kind is the short device kind, e.g. "clock".
	Kind string
	// Version of the device type URN (default 1).
	Version int
	// FriendlyName for the description document.
	FriendlyName string
	// Manufacturer and model metadata (optional).
	Manufacturer     string
	ModelName        string
	ModelDescription string
	// UUID overrides the generated device UUID.
	UUID string
	// DescriptionPort is the TCP port of the description server.
	DescriptionPort int
	// Services hosted by the device.
	Services []ServiceConfig
	// SSDP tunes the discovery layer.
	SSDP ssdp.ServerConfig
	// HTTPDelay models description server processing cost (the
	// CyberLink profile).
	HTTPDelay time.Duration
}

// RootDevice is a running UPnP device: an SSDP responder plus an HTTP
// server for its description document.
type RootDevice struct {
	desc DeviceDesc
	cfg  DeviceConfig

	httpSrv  *httpx.Server
	ssdpSrv  *ssdp.Server
	descAddr netapi.Addr
}

// NewRootDevice builds the description document, starts the HTTP and SSDP
// servers and announces the device.
func NewRootDevice(host netapi.Stack, cfg DeviceConfig) (*RootDevice, error) {
	if cfg.Kind == "" {
		return nil, fmt.Errorf("upnp: device kind required")
	}
	if cfg.Version <= 0 {
		cfg.Version = 1
	}
	if cfg.DescriptionPort == 0 {
		cfg.DescriptionPort = DefaultDescriptionPort
	}
	uuid := cfg.UUID
	if uuid == "" {
		uuid = "uuid:" + cfg.Kind + "-" + strings.ReplaceAll(host.IP(), ".", "-")
	}

	d := &RootDevice{cfg: cfg}
	d.desc = DeviceDesc{
		DeviceType:       TypeURN(cfg.Kind, cfg.Version),
		FriendlyName:     cfg.FriendlyName,
		Manufacturer:     cfg.Manufacturer,
		ModelName:        cfg.ModelName,
		ModelDescription: cfg.ModelDescription,
		UDN:              uuid,
	}
	for _, svc := range cfg.Services {
		version := svc.Version
		if version <= 0 {
			version = 1
		}
		base := "/service/" + svc.Kind
		sd := ServiceDesc{
			ServiceType: ServiceURN(svc.Kind, version),
			ServiceID:   "urn:upnp-org:serviceId:" + svc.Kind,
			SCPDURL:     base + "/scpd.xml",
			ControlURL:  base + "/control",
			EventSubURL: base + "/event",
		}
		d.desc.Services = append(d.desc.Services, sd)
	}

	l, err := host.ListenTCP(cfg.DescriptionPort)
	if err != nil {
		return nil, fmt.Errorf("upnp device: %w", err)
	}
	d.descAddr = l.Addr()
	d.httpSrv = &httpx.Server{Handler: d.handleHTTP, Delay: cfg.HTTPDelay}
	d.httpSrv.Start(l)

	location := d.Location()
	ads := []ssdp.Advertisement{
		{NT: ssdp.TargetRootDevice, USN: uuid + "::" + ssdp.TargetRootDevice, Location: location},
		{NT: uuid, USN: uuid, Location: location},
		{NT: d.desc.DeviceType, USN: uuid + "::" + d.desc.DeviceType, Location: location},
	}
	for _, sd := range d.desc.Services {
		ads = append(ads, ssdp.Advertisement{
			NT: sd.ServiceType, USN: uuid + "::" + sd.ServiceType, Location: location,
		})
	}
	ssdpSrv, err := ssdp.NewServer(host, cfg.SSDP, ads)
	if err != nil {
		d.httpSrv.Close()
		return nil, fmt.Errorf("upnp device: %w", err)
	}
	d.ssdpSrv = ssdpSrv
	return d, nil
}

// Close announces departure and stops both servers.
func (d *RootDevice) Close() {
	d.ssdpSrv.Close()
	d.httpSrv.Close()
}

// Location returns the description document URL.
func (d *RootDevice) Location() string {
	return HTTPURL(d.descAddr, "/description.xml")
}

// Description returns a copy of the device description.
func (d *RootDevice) Description() DeviceDesc { return d.desc }

// handleHTTP serves the description document and nothing else. The SCPD,
// control and event-sub URLs it lists stay in the document, byte for byte,
// but are not served: INDISS bridges discovery, and what a client does
// with a service it found never crosses it.
func (d *RootDevice) handleHTTP(req *httpx.Request) *httpx.Response {
	if req.Method != "GET" {
		return &httpx.Response{StatusCode: 501}
	}
	if req.Target != "/description.xml" {
		return &httpx.Response{StatusCode: 404}
	}
	return &httpx.Response{
		StatusCode: 200,
		Header: httpx.NewHeader(
			"CONTENT-TYPE", "text/xml",
			"SERVER", d.serverToken(),
		),
		Body: MarshalDescription(&d.desc),
	}
}

func (d *RootDevice) serverToken() string {
	if d.cfg.SSDP.Server != "" {
		return d.cfg.SSDP.Server
	}
	return "simnet/1.0 UPnP/1.0 indiss/1.0"
}

package upnp

import (
	"errors"
	"sync"
	"testing"
	"time"

	"indiss/internal/httpx"
	"indiss/internal/simnet"
	"indiss/internal/ssdp"
)

func TestDescriptionRoundTrip(t *testing.T) {
	d := &DeviceDesc{
		DeviceType:   TypeURN("clock", 1),
		FriendlyName: "CyberGarage Clock & Co",
		Manufacturer: "indiss",
		ModelName:    "Clock",
		UDN:          "uuid:clock-1",
		Services: []ServiceDesc{{
			ServiceType: ServiceURN("timer", 1),
			ServiceID:   "urn:upnp-org:serviceId:timer",
			SCPDURL:     "/service/timer/scpd.xml",
			ControlURL:  "/service/timer/control",
			EventSubURL: "/service/timer/event",
		}},
		Embedded: []DeviceDesc{{
			DeviceType: TypeURN("display", 1),
			UDN:        "uuid:display-1",
		}},
	}
	back, err := ParseDescription(MarshalDescription(d))
	if err != nil {
		t.Fatalf("ParseDescription: %v", err)
	}
	if back.FriendlyName != d.FriendlyName {
		t.Errorf("friendlyName = %q (escaping broken?)", back.FriendlyName)
	}
	if len(back.Services) != 1 || back.Services[0].ControlURL != "/service/timer/control" {
		t.Errorf("services = %+v", back.Services)
	}
	if len(back.Embedded) != 1 || back.Embedded[0].UDN != "uuid:display-1" {
		t.Errorf("embedded = %+v", back.Embedded)
	}
}

func TestParseDescriptionErrors(t *testing.T) {
	bad := [][]byte{
		[]byte("not xml"),
		[]byte("<wrong/>"),
		[]byte("<root></root>"),
		[]byte("<root><device><deviceType>x</deviceType></device></root>"), // no UDN
	}
	for _, data := range bad {
		if _, err := ParseDescription(data); !errors.Is(err, ErrBadDescription) {
			t.Errorf("ParseDescription(%q) err = %v, want ErrBadDescription", data, err)
		}
	}
}

func TestURNHelpers(t *testing.T) {
	if got := TypeURN("clock", 1); got != "urn:schemas-upnp-org:device:clock:1" {
		t.Errorf("TypeURN = %q", got)
	}
	if got := ServiceURN("timer", 2); got != "urn:schemas-upnp-org:service:timer:2" {
		t.Errorf("ServiceURN = %q", got)
	}
	if got := ShortType("urn:schemas-upnp-org:device:clock:1"); got != "clock" {
		t.Errorf("ShortType = %q", got)
	}
	if got := ShortType("upnp:clock"); got != "upnp:clock" {
		t.Errorf("ShortType passthrough = %q", got)
	}
}

func TestParseHTTPURL(t *testing.T) {
	addr, path, err := ParseHTTPURL("http://10.0.0.2:4004/description.xml")
	if err != nil {
		t.Fatal(err)
	}
	if addr.IP != "10.0.0.2" || addr.Port != 4004 || path != "/description.xml" {
		t.Errorf("parsed %v %q", addr, path)
	}
	if _, _, err := ParseHTTPURL("ftp://x/y"); !errors.Is(err, ErrBadURL) {
		t.Errorf("bad scheme: %v", err)
	}
	if _, _, err := ParseHTTPURL("http://noport/x"); !errors.Is(err, ErrBadURL) {
		t.Errorf("no port: %v", err)
	}
	if got := HTTPURL(simnet.Addr{IP: "10.0.0.2", Port: 4004}, "d.xml"); got != "http://10.0.0.2:4004/d.xml" {
		t.Errorf("HTTPURL = %q", got)
	}
}

// clockDevice builds the paper's clock device on the given host.
func clockDevice(t *testing.T, host *simnet.Host) *RootDevice {
	t.Helper()
	dev, err := NewRootDevice(host, DeviceConfig{
		Kind:         "clock",
		FriendlyName: "CyberGarage Clock Device",
		Manufacturer: "CyberGarage",
		ModelName:    "Clock",
		Services:     []ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		t.Fatalf("NewRootDevice: %v", err)
	}
	t.Cleanup(dev.Close)
	return dev
}

func newNet(t *testing.T) (*simnet.Host, *simnet.Host) {
	t.Helper()
	n := simnet.New(simnet.Config{})
	t.Cleanup(n.Close)
	return n.MustAddHost("client", "10.0.0.1"), n.MustAddHost("device", "10.0.0.2")
}

func TestDiscoverDescribeChain(t *testing.T) {
	clientHost, deviceHost := newNet(t)
	clockDevice(t, deviceHost)

	cp := NewControlPoint(clientHost, ControlPointConfig{})
	dev, err := cp.Discover(TypeURN("clock", 1), 0)
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if dev.Desc.FriendlyName != "CyberGarage Clock Device" {
		t.Errorf("friendlyName = %q", dev.Desc.FriendlyName)
	}
	if dev.DescAddr.Port != DefaultDescriptionPort {
		t.Errorf("description addr = %v", dev.DescAddr)
	}
	if len(dev.Desc.Services) != 1 || dev.Desc.Services[0].ServiceType != ServiceURN("timer", 1) {
		t.Fatalf("timer service missing: %+v", dev.Desc.Services)
	}
	if got := HTTPURL(dev.DescAddr, dev.Desc.Services[0].ControlURL); got != "http://10.0.0.2:4004/service/timer/control" {
		t.Errorf("control url = %q", got)
	}
}

func TestDiscoverNoDevice(t *testing.T) {
	clientHost, _ := newNet(t)
	cp := NewControlPoint(clientHost, ControlPointConfig{Timeout: 50 * time.Millisecond})
	if _, err := cp.Discover(TypeURN("toaster", 1), 0); !errors.Is(err, ErrNoDevice) {
		t.Errorf("err = %v, want ErrNoDevice", err)
	}
}

// TestDeviceServesOnlyDescription: a root device serves its description
// document and nothing else. The SCPD, control and event-sub URLs the
// document lists answer 404 to a GET and 501 to a SOAP POST, SUBSCRIBE and
// UNSUBSCRIBE, so no host can leave a subscription on the device.
func TestDeviceServesOnlyDescription(t *testing.T) {
	clientHost, deviceHost := newNet(t)
	dev := clockDevice(t, deviceHost)
	addr, _, err := ParseHTTPURL(dev.Location())
	if err != nil {
		t.Fatal(err)
	}
	sd := dev.Description().Services[0]
	getTime := `<?xml version="1.0"?><s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<s:Body><u:GetTime xmlns:u="` + sd.ServiceType + `"/></s:Body></s:Envelope>`
	cases := []struct {
		name string
		req  *httpx.Request
		want int
	}{
		{"description", &httpx.Request{Method: "GET", Target: "/description.xml"}, 200},
		{"scpd", &httpx.Request{Method: "GET", Target: sd.SCPDURL}, 404},
		{"unknown path", &httpx.Request{Method: "GET", Target: "/nosuch"}, 404},
		{"control", &httpx.Request{
			Method: "POST", Target: sd.ControlURL,
			Header: httpx.NewHeader("CONTENT-TYPE", `text/xml; charset="utf-8"`,
				"SOAPACTION", `"`+sd.ServiceType+`#GetTime"`),
			Body: []byte(getTime),
		}, 501},
		{"subscribe", &httpx.Request{
			Method: "SUBSCRIBE", Target: sd.EventSubURL,
			Header: httpx.NewHeader("CALLBACK", "<http://10.0.0.1:5000/event>",
				"NT", "upnp:event", "TIMEOUT", "Second-1"),
		}, 501},
		{"unsubscribe", &httpx.Request{
			Method: "UNSUBSCRIBE", Target: sd.EventSubURL,
			Header: httpx.NewHeader("SID", "uuid:sub-10-0-0-2-1"),
		}, 501},
	}
	for _, c := range cases {
		resp, err := httpx.Do(clientHost, addr, c.req, time.Second)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if resp.StatusCode != c.want {
			t.Errorf("%s: %s %s = %d, want %d", c.name, c.req.Method, c.req.Target, resp.StatusCode, c.want)
		}
		if sid := resp.Header.Get("SID"); sid != "" {
			t.Errorf("%s: device issued SID %q", c.name, sid)
		}
	}
}

func TestDeviceByeByeOnClose(t *testing.T) {
	clientHost, deviceHost := newNet(t)

	var mu sync.Mutex
	byes := 0
	l, err := ssdp.Listen(clientHost, func(n *ssdp.Notify) {
		if n.NTS == ssdp.NTSByeBye {
			mu.Lock()
			byes++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	dev, err := NewRootDevice(deviceHost, DeviceConfig{Kind: "clock", Services: []ServiceConfig{{Kind: "timer"}}})
	if err != nil {
		t.Fatal(err)
	}
	dev.Close()

	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := byes
		mu.Unlock()
		// rootdevice + uuid + devicetype + 1 service = 4 advertisements.
		if n >= 4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("byebyes = %d, want 4", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestHTTPDelaySlowsDescribe(t *testing.T) {
	const delay = 20 * time.Millisecond
	clientHost, deviceHost := newNet(t)
	dev, err := NewRootDevice(deviceHost, DeviceConfig{
		Kind:      "clock",
		HTTPDelay: delay,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()

	cp := NewControlPoint(clientHost, ControlPointConfig{})
	start := time.Now()
	if _, err := cp.Discover(TypeURN("clock", 1), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("discover took %v, want >= %v (HTTP delay)", elapsed, delay)
	}
}

func TestDuplicateDescriptionPortFails(t *testing.T) {
	_, deviceHost := newNet(t)
	dev, err := NewRootDevice(deviceHost, DeviceConfig{Kind: "clock"})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	if _, err := NewRootDevice(deviceHost, DeviceConfig{Kind: "light"}); err == nil {
		t.Error("second device on same ports should fail")
	}
}

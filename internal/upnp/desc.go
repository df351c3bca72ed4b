// Package upnp implements the discovery and description steps of the UPnP
// Device Architecture 1.0 on top of ssdp, httpx and xmlx: root devices
// that answer searches and serve an XML description document, and control
// points that search and fetch it. SOAP control and GENA eventing are left
// out: they act on a service once it is found, and never cross INDISS.
//
// UPnP is the second SDP of the paper's prototype (the authors used
// CyberLink for Java). Its discovery is deliberately multi-step — SSDP
// yields only a LOCATION URL; the description document must be fetched
// and parsed to reach the service endpoints — which is exactly why the
// paper's UPnP unit must "recursively generate additional requests to the
// remote service" (§2.4) and why native UPnP discovery costs ~50× native
// SLP (§4.3).
package upnp

import (
	"errors"
	"fmt"
	"strings"

	"indiss/internal/xmlx"
)

// DeviceNS is the UPnP device description XML namespace.
const DeviceNS = "urn:schemas-upnp-org:device-1-0"

// ServiceDesc describes one service of a device (UDA 1.0 §2.1).
type ServiceDesc struct {
	// ServiceType is the URN, e.g. "urn:schemas-upnp-org:service:timer:1".
	ServiceType string
	// ServiceID is the service identifier URN.
	ServiceID string
	// SCPDURL locates the service control protocol description.
	SCPDURL string
	// ControlURL receives SOAP control actions.
	ControlURL string
	// EventSubURL receives GENA subscriptions.
	EventSubURL string
}

// DeviceDesc is a device description document (UDA 1.0 §2.1).
type DeviceDesc struct {
	// DeviceType is the URN, e.g. "urn:schemas-upnp-org:device:clock:1".
	DeviceType string
	// FriendlyName is the human-readable name the paper's SLP reply
	// carries as an attribute.
	FriendlyName     string
	Manufacturer     string
	ManufacturerURL  string
	ModelDescription string
	ModelName        string
	ModelNumber      string
	ModelURL         string
	// UDN is the unique device name, "uuid:...".
	UDN string
	// Services lists the device's services.
	Services []ServiceDesc
	// Embedded lists embedded devices.
	Embedded []DeviceDesc
}

// ErrBadDescription reports an invalid description document.
var ErrBadDescription = errors.New("upnp: bad description document")

// MarshalDescription renders the full description document.
func MarshalDescription(d *DeviceDesc) []byte {
	root := &xmlx.Node{
		Name:  "root",
		Attrs: []xmlx.Attr{{Name: "xmlns", Value: DeviceNS}},
		Children: []*xmlx.Node{
			{Name: "specVersion", Children: []*xmlx.Node{
				{Name: "major", Text: "1"},
				{Name: "minor", Text: "0"},
			}},
			deviceNode(d),
		},
	}
	return append([]byte(`<?xml version="1.0"?>`), root.Marshal()...)
}

func deviceNode(d *DeviceDesc) *xmlx.Node {
	n := &xmlx.Node{Name: "device"}
	add := func(name, text string) {
		if text != "" {
			n.Children = append(n.Children, &xmlx.Node{Name: name, Text: text})
		}
	}
	add("deviceType", d.DeviceType)
	add("friendlyName", d.FriendlyName)
	add("manufacturer", d.Manufacturer)
	add("manufacturerURL", d.ManufacturerURL)
	add("modelDescription", d.ModelDescription)
	add("modelName", d.ModelName)
	add("modelNumber", d.ModelNumber)
	add("modelURL", d.ModelURL)
	add("UDN", d.UDN)
	if len(d.Services) > 0 {
		list := &xmlx.Node{Name: "serviceList"}
		for _, s := range d.Services {
			list.Children = append(list.Children, &xmlx.Node{
				Name: "service",
				Children: []*xmlx.Node{
					{Name: "serviceType", Text: s.ServiceType},
					{Name: "serviceId", Text: s.ServiceID},
					{Name: "SCPDURL", Text: s.SCPDURL},
					{Name: "controlURL", Text: s.ControlURL},
					{Name: "eventSubURL", Text: s.EventSubURL},
				},
			})
		}
		n.Children = append(n.Children, list)
	}
	if len(d.Embedded) > 0 {
		list := &xmlx.Node{Name: "deviceList"}
		for i := range d.Embedded {
			list.Children = append(list.Children, deviceNode(&d.Embedded[i]))
		}
		n.Children = append(n.Children, list)
	}
	return n
}

// ParseDescription decodes a description document.
func ParseDescription(data []byte) (*DeviceDesc, error) {
	root, err := xmlx.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadDescription, err)
	}
	if root.Name != "root" {
		return nil, fmt.Errorf("%w: document element %q", ErrBadDescription, root.Name)
	}
	devNode := root.Child("device")
	if devNode == nil {
		return nil, fmt.Errorf("%w: no device element", ErrBadDescription)
	}
	d := parseDeviceNode(devNode)
	if d.DeviceType == "" || d.UDN == "" {
		return nil, fmt.Errorf("%w: missing deviceType or UDN", ErrBadDescription)
	}
	return d, nil
}

func parseDeviceNode(n *xmlx.Node) *DeviceDesc {
	d := &DeviceDesc{
		DeviceType:       n.ChildText("deviceType"),
		FriendlyName:     n.ChildText("friendlyName"),
		Manufacturer:     n.ChildText("manufacturer"),
		ManufacturerURL:  n.ChildText("manufacturerURL"),
		ModelDescription: n.ChildText("modelDescription"),
		ModelName:        n.ChildText("modelName"),
		ModelNumber:      n.ChildText("modelNumber"),
		ModelURL:         n.ChildText("modelURL"),
		UDN:              n.ChildText("UDN"),
	}
	if list := n.Child("serviceList"); list != nil {
		for _, sn := range list.Children {
			if sn.Name != "service" {
				continue
			}
			d.Services = append(d.Services, ServiceDesc{
				ServiceType: sn.ChildText("serviceType"),
				ServiceID:   sn.ChildText("serviceId"),
				SCPDURL:     sn.ChildText("SCPDURL"),
				ControlURL:  sn.ChildText("controlURL"),
				EventSubURL: sn.ChildText("eventSubURL"),
			})
		}
	}
	if list := n.Child("deviceList"); list != nil {
		for _, dn := range list.Children {
			if dn.Name != "device" {
				continue
			}
			d.Embedded = append(d.Embedded, *parseDeviceNode(dn))
		}
	}
	return d
}

// ShortType extracts the short device kind from a device type URN:
// "urn:schemas-upnp-org:device:clock:1" → "clock". It returns the input
// unchanged if it is not a URN.
func ShortType(urn string) string {
	parts := strings.Split(urn, ":")
	if len(parts) >= 5 && parts[0] == "urn" {
		return parts[3]
	}
	return urn
}

// TypeURN builds a device type URN: TypeURN("clock", 1) →
// "urn:schemas-upnp-org:device:clock:1".
func TypeURN(kind string, version int) string {
	return fmt.Sprintf("urn:schemas-upnp-org:device:%s:%d", kind, version)
}

// ServiceURN builds a service type URN.
func ServiceURN(kind string, version int) string {
	return fmt.Sprintf("urn:schemas-upnp-org:service:%s:%d", kind, version)
}

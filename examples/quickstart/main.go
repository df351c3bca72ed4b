// Quickstart: the paper's §2.4 running example.
//
// An SLP client searches for a clock service; the only clock on the
// network is a UPnP device. INDISS, deployed transparently on the service
// host, translates the SLP search into UPnP exchanges and answers with
// the clock's SOAP endpoint — neither the client nor the device is aware
// the bridge exists.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"time"

	"indiss"
	"indiss/internal/slp"
	"indiss/internal/upnp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A two-host LAN: the client and the service host.
	net := indiss.NewLAN()
	defer net.Close()
	clientHost := net.MustAddHost("client", "10.0.0.1")
	serviceHost := net.MustAddHost("service", "10.0.0.2")

	// The UPnP clock device of the paper's example — a plain native
	// device, unaware of INDISS.
	clock, err := upnp.NewRootDevice(serviceHost, upnp.DeviceConfig{
		Kind:         "clock",
		FriendlyName: "CyberGarage Clock Device",
		Manufacturer: "CyberGarage",
		ModelName:    "Clock",
		Services:     []upnp.ServiceConfig{{Kind: "timer"}},
	})
	if err != nil {
		return err
	}
	defer clock.Close()
	fmt.Println("service host: UPnP clock device up at", clock.Location())

	// INDISS on the service host: SLP and UPnP units.
	sys, err := indiss.Deploy(serviceHost, indiss.Config{
		Role: indiss.RoleServiceSide,
		SDPs: []indiss.SDP{indiss.SLP, indiss.UPnP},
	})
	if err != nil {
		return err
	}
	defer sys.Close()
	fmt.Println("service host: INDISS deployed (service side), units:", sys.Units())

	// A plain SLP client, also unaware of INDISS.
	ua := slp.NewUserAgent(clientHost, slp.AgentConfig{})
	fmt.Println("client: SLP search for service:clock ...")
	urls, err := ua.FindFirst("service:clock", "", 3*time.Second)
	if err != nil {
		return fmt.Errorf("SLP search failed: %w", err)
	}
	fmt.Println("client: SrvRply received:")
	for _, u := range urls {
		fmt.Printf("client:   %s (lifetime %ds)\n", u.URL, u.Lifetime)
	}
	fmt.Println("client: the clock's SOAP control endpoint came from a UPnP description")
	fmt.Println("        document INDISS fetched and parsed on the client's behalf.")
	return nil
}

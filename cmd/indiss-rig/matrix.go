package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"indiss/internal/dnssd"
	"indiss/internal/jini"
	"indiss/internal/realnet"
	"indiss/internal/slp"
	"indiss/internal/upnp"
)

// The live interop matrix: the rig-side analogue of the simnet
// TestInteropMatrix. A native clock-ish service of one SDP and a native
// client of another run on THIS host's interface; the only path between
// them is the external INDISS gateway(s) listening on the same segment,
// so every successful pairing proves the live bridge end to end. Each
// pairing uses its own service kind (mx1, mx2, ...) so answers from
// earlier pairings accumulated in the gateways' views can never satisfy
// a later one.

// rigService starts a native service of one SDP advertising the given
// kind and returns a teardown plus the marker substring the foreign
// client's answer must carry.
type rigService struct {
	name  string
	start func(st *svcStacks, kind string) (marker string, stop func(), err error)
}

// rigClient performs one native discovery of kind and returns the
// endpoint-ish string it obtained.
type rigClient struct {
	name string
	find func(cli *realnet.Stack, kind string, timeout time.Duration) (string, error)
}

// svcStacks groups the service-side stacks: services advertise on svc;
// the Jini pairing needs a second identity for its lookup service.
type svcStacks struct {
	svc    *realnet.Stack
	lookup *realnet.Stack
}

func rigServices() []rigService {
	return []rigService{
		{
			name: "SLP",
			start: func(st *svcStacks, kind string) (string, func(), error) {
				url := fmt.Sprintf("service:%s://%s:4005", kind, st.svc.IP())
				sa, err := slp.NewServiceAgent(st.svc, slp.AgentConfig{})
				if err != nil {
					return "", nil, err
				}
				if err := sa.Register("service:"+kind, url, time.Hour,
					slp.AttrList{{Name: "friendlyName", Values: []string{"Rig SLP " + kind}}}); err != nil {
					sa.Close()
					return "", nil, err
				}
				return url, sa.Close, nil
			},
		},
		{
			name: "UPnP",
			start: func(st *svcStacks, kind string) (string, func(), error) {
				dev, err := upnp.NewRootDevice(st.svc, upnp.DeviceConfig{
					Kind:         kind,
					FriendlyName: "Rig UPnP " + kind,
					Services:     []upnp.ServiceConfig{{Kind: "timer"}},
				})
				if err != nil {
					return "", nil, err
				}
				// The device's ports are dynamic; the stack IP is the
				// stable marker every bridged answer carries.
				return st.svc.IP(), dev.Close, nil
			},
		},
		{
			name: "Jini",
			start: func(st *svcStacks, kind string) (string, func(), error) {
				ls, err := jini.NewLookupService(st.lookup, jini.LookupConfig{
					AnnounceInterval: 200 * time.Millisecond,
				})
				if err != nil {
					return "", nil, err
				}
				endpoint := st.svc.IP() + ":9000"
				cl := jini.NewClient(st.svc, jini.ClientConfig{})
				if _, err := cl.Register(ls.Locator(), jini.ServiceItem{
					Type:     "net.jini." + kind + ".Clock",
					Endpoint: endpoint,
					Attrs:    []jini.Entry{{Name: "friendlyName", Value: "Rig Jini " + kind}},
				}, time.Minute); err != nil {
					ls.Close()
					return "", nil, err
				}
				return endpoint, ls.Close, nil
			},
		},
		{
			name: "DNSSD",
			start: func(st *svcStacks, kind string) (string, func(), error) {
				r, err := dnssd.NewResponder(st.svc, dnssd.ResponderConfig{})
				if err != nil {
					return "", nil, err
				}
				if err := r.Register(dnssd.Registration{
					Instance: "Rig " + kind,
					Service:  dnssd.ServiceType(kind),
					Port:     9000,
					Text:     map[string]string{"friendlyName": "Rig DNSSD " + kind},
				}); err != nil {
					r.Close()
					return "", nil, err
				}
				return st.svc.IP(), r.Close, nil
			},
		},
	}
}

func rigClients() []rigClient {
	return []rigClient{
		{
			name: "SLP",
			find: func(cli *realnet.Stack, kind string, timeout time.Duration) (string, error) {
				ua := slp.NewUserAgent(cli, slp.AgentConfig{})
				urls, err := ua.FindFirst("service:"+kind, "", timeout)
				if err != nil {
					return "", err
				}
				return urls[0].URL, nil
			},
		},
		{
			name: "UPnP",
			find: func(cli *realnet.Stack, kind string, timeout time.Duration) (string, error) {
				cp := upnp.NewControlPoint(cli, upnp.ControlPointConfig{})
				dev, err := cp.Discover(upnp.TypeURN(kind, 1), 0)
				if err != nil {
					return "", err
				}
				return dev.Desc.ModelURL + " " + dev.Response.Location, nil
			},
		},
		{
			name: "Jini",
			find: func(cli *realnet.Stack, kind string, timeout time.Duration) (string, error) {
				c := jini.NewClient(cli, jini.ClientConfig{})
				loc, err := c.DiscoverLookup(timeout)
				if err != nil {
					return "", fmt.Errorf("DiscoverLookup: %w", err)
				}
				// The bridge registrar fills asynchronously; poll until
				// the deadline.
				deadline := time.Now().Add(timeout)
				for {
					items, err := c.Lookup(loc, jini.ServiceTemplate{
						Type: "org.indiss." + kind + ".Service",
					}, time.Second)
					if err == nil && len(items) > 0 {
						return items[0].Endpoint, nil
					}
					if time.Now().After(deadline) {
						return "", fmt.Errorf("lookup never returned the bridged %s (last err=%v)", kind, err)
					}
					time.Sleep(50 * time.Millisecond)
				}
			},
		},
		{
			name: "DNSSD",
			find: func(cli *realnet.Stack, kind string, timeout time.Duration) (string, error) {
				q := dnssd.NewQuerier(cli)
				defer q.Close() // its group listener is a live 5353 socket
				insts, err := q.Browse(dnssd.ServiceType(kind), timeout)
				if err != nil {
					return "", err
				}
				return insts[0].Text["url"] + " " + insts[0].Host, nil
			},
		},
	}
}

type matrixResult struct {
	Pairings int          `json:"pairings"`
	OK       int          `json:"ok"`
	Failed   []string     `json:"failed,omitempty"`
	RTT      summary      `json:"rtt"`
	PerPair  []pairingRTT `json:"per_pairing"`
	rtts     []time.Duration
}

type pairingRTT struct {
	Pairing string  `json:"pairing"`
	RTTms   float64 `json:"rtt_ms"`
	Err     string  `json:"err,omitempty"`
}

func cmdMatrix(args []string) error {
	fs := flag.NewFlagSet("matrix", flag.ExitOnError)
	iface := fs.String("iface", "", "interface to run clients/services on (default auto-detect; \"lo\" for loopback)")
	ip := fs.String("ip", "", "IPv4 source address on -iface")
	timeout := fs.Duration("timeout", 15*time.Second, "per-pairing discovery deadline")
	jsonOut := fs.String("json", "", "write the matrix result as JSON to this file")
	_ = fs.Parse(args)

	res, err := runMatrix(*iface, *ip, *timeout)
	if jerr := writeJSON(*jsonOut, res); jerr != nil && err == nil {
		err = jerr
	}
	return err
}

func runMatrix(iface, ip string, timeout time.Duration) (*matrixResult, error) {
	newStack := func(name string) (*realnet.Stack, error) {
		if iface == "lo" || iface == "lo0" || ip == "127.0.0.1" {
			return realnet.Loopback(name)
		}
		return realnet.NewStack(realnet.Options{Name: name, Interface: iface, IP: ip})
	}
	cliStack, err := newStack("rig-client")
	if err != nil {
		return nil, err
	}
	svcStack, err := newStack("rig-service")
	if err != nil {
		return nil, err
	}
	lookupStack, err := newStack("rig-lookup")
	if err != nil {
		return nil, err
	}
	if err := cliStack.ProbeMulticast(2 * time.Second); err != nil {
		return nil, fmt.Errorf("matrix: this host cannot join multicast groups: %w", err)
	}
	stacks := &svcStacks{svc: svcStack, lookup: lookupStack}

	res := &matrixResult{}
	kindNo := 0
	for _, svc := range rigServices() {
		for _, cli := range rigClients() {
			if svc.name == cli.name {
				continue // native pairs need no gateway
			}
			kindNo++
			kind := fmt.Sprintf("mx%d", kindNo)
			pairing := fmt.Sprintf("%s->%s", svc.name, cli.name)
			res.Pairings++

			marker, stop, err := svc.start(stacks, kind)
			if err != nil {
				res.Failed = append(res.Failed, pairing)
				res.PerPair = append(res.PerPair, pairingRTT{Pairing: pairing, Err: "service: " + err.Error()})
				fmt.Printf("rig: matrix %-14s FAIL service: %v\n", pairing, err)
				continue
			}
			t0 := time.Now()
			got, err := cli.find(cliStack, kind, timeout)
			rtt := time.Since(t0)
			stop()
			switch {
			case err != nil:
				res.Failed = append(res.Failed, pairing)
				res.PerPair = append(res.PerPair, pairingRTT{Pairing: pairing, Err: err.Error()})
				fmt.Printf("rig: matrix %-14s FAIL after %v: %v\n", pairing, rtt.Round(time.Millisecond), err)
			case !strings.Contains(got, marker):
				res.Failed = append(res.Failed, pairing)
				res.PerPair = append(res.PerPair, pairingRTT{
					Pairing: pairing,
					Err:     fmt.Sprintf("answer %q does not carry the %s marker %q", got, svc.name, marker),
				})
				fmt.Printf("rig: matrix %-14s FAIL answer %q missing marker %q\n", pairing, got, marker)
			default:
				res.OK++
				res.rtts = append(res.rtts, rtt)
				res.PerPair = append(res.PerPair, pairingRTT{Pairing: pairing, RTTms: ms(rtt)})
				fmt.Printf("rig: matrix %-14s ok %8.1fms  %s\n", pairing, ms(rtt), got)
			}
		}
	}
	res.RTT = summarize(res.rtts)
	fmt.Printf("rig: matrix %d/%d pairings ok, discovery RTT median %.1fms p95 %.1fms\n",
		res.OK, res.Pairings, res.RTT.Median, res.RTT.P95)
	if res.OK < res.Pairings {
		return res, fmt.Errorf("matrix: %d of %d pairings failed: %s",
			res.Pairings-res.OK, res.Pairings, strings.Join(res.Failed, ", "))
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	if path == "" {
		return nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

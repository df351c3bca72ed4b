// Command indiss-rig drives the containerized multi-host rig (deploy/,
// DESIGN.md §14): it gates on gateway readiness, runs the live interop
// matrix and a churn soak against real gateways from the outside, and
// replays chaos schedules against containers through tc/netem.
//
// Subcommands:
//
//	indiss-rig wait -gw host:port[,host:port...] [-timeout 90s]
//	    Block until every gateway's health endpoint answers ok.
//
//	indiss-rig matrix [-iface eth0] [-ip A.B.C.D] [-timeout 15s] [-json out]
//	    Run the 12-pairing live interop matrix: a native service of one
//	    SDP and a native client of another on THIS host's interface,
//	    bridged only by the external gateways. Reports per-pairing
//	    discovery RTT and the median.
//
//	indiss-rig soak -query url[,url...] [-iface eth0] [-services 8]
//	    [-rounds 5] [-timeout 30s] [-json out]
//	    Churn soak: register a burst of native SLP services, wait until
//	    every gateway's query plane converges on them, deregister, wait
//	    for the drain. Reports convergence and drain medians.
//
//	indiss-rig chaos -schedule file -target name=container:iface...
//	    [-compose file] [-grace 2s]
//	    Parse a chaos schedule (the same text format simnet soaks use)
//	    and execute it against real containers via tc/netem and ip link.
//
//	indiss-rig local -gw-bin path [-json out] [-services 8] [-rounds 5]
//	    Self-contained live rig on the loopback interface: spawns two
//	    federated indiss-gw processes, runs the matrix and the soak
//	    against them, measures crash-restart repair, tears down. This is
//	    how PERF.md's live-network numbers are recorded on a single
//	    machine; the containerized topologies add real segmentation and
//	    tc faults on top (CI's rig job).
//
// The binary exits non-zero if any gate, pairing, or convergence
// deadline fails — CI treats its exit code as the rig verdict.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"indiss/internal/experiments"
	"indiss/internal/realnet"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "wait":
		err = cmdWait(os.Args[2:])
	case "matrix":
		err = cmdMatrix(os.Args[2:])
	case "soak":
		err = cmdSoak(os.Args[2:])
	case "chaos":
		err = cmdChaos(os.Args[2:])
	case "local":
		err = cmdLocal(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "indiss-rig: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "indiss-rig:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: indiss-rig <wait|matrix|soak|chaos|local> [flags]

  wait    gate on gateway health endpoints
  matrix  live 12-pairing interop matrix over this host's interface
  soak    churn soak against gateway query planes
  chaos   replay a schedule file against containers via tc/netem
  local   self-contained loopback rig: 2 gateways, matrix + soak + restart

Run 'indiss-rig <subcommand> -h' for flags.`)
}

// cmdWait blocks until every listed health endpoint answers, printing
// each gateway's first status line — the rig's readiness gate.
func cmdWait(args []string) error {
	fs := flag.NewFlagSet("wait", flag.ExitOnError)
	gws := fs.String("gw", "", "comma-separated health endpoints (host:port)")
	timeout := fs.Duration("timeout", 90*time.Second, "overall deadline")
	_ = fs.Parse(args)
	addrs := splitList(*gws)
	if len(addrs) == 0 {
		return fmt.Errorf("wait: -gw is required")
	}
	deadline := time.Now().Add(*timeout)
	for _, addr := range addrs {
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("wait: deadline exhausted before %s answered", addr)
		}
		status, err := realnet.WaitHealthy(addr, left)
		if err != nil {
			return fmt.Errorf("wait: %w", err)
		}
		fmt.Printf("rig: %s ready: %s\n", addr, status)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// summary is the JSON shape of one measured distribution, in
// milliseconds — the medians artifact CI uploads.
type summary struct {
	Samples int     `json:"samples"`
	Median  float64 `json:"median_ms"`
	P95     float64 `json:"p95_ms"`
	Min     float64 `json:"min_ms"`
	Max     float64 `json:"max_ms"`
}

// summarize reduces ds by nearest rank; every field is 0 when ds is
// empty.
func summarize(ds []time.Duration) summary {
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return summary{
		Samples: len(ds),
		Median:  ms(experiments.Quantile(sorted, 0.5)),
		P95:     ms(experiments.Quantile(sorted, 0.95)),
		Min:     ms(experiments.Quantile(sorted, 0)),
		Max:     ms(experiments.Quantile(sorted, 1)),
	}
}

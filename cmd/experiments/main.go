// Command experiments regenerates the paper's §4.3 evaluation (Figures
// 7, 8 and 9) on the simulated testbed and prints paper-vs-measured rows.
//
// Usage:
//
//	experiments [-runs N] [-fig 7|8|9|all]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"indiss/internal/experiments"
)

func main() {
	runs := flag.Int("runs", experiments.DefaultRuns, "measurements per scenario (paper used 30)")
	fig := flag.String("fig", "all", "which figure to run: 7, 8, 9 or all")
	flag.Parse()

	// A scenario ID is "Fig " plus the figure number and an optional
	// panel letter or "+" (the supplementary row).
	var selected []experiments.Scenario
	for _, s := range experiments.Scenarios {
		if *fig == "all" || strings.TrimRight(strings.TrimPrefix(s.ID, "Fig "), "ab+") == *fig {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}

	fmt.Println("INDISS §4.3 response-time experiments (median of N successful runs)")
	fmt.Println()
	for _, s := range selected {
		r := s.Run(*runs)
		fmt.Println(r)
		if r.Note != "" {
			fmt.Printf("         %s\n", r.Note)
		}
	}
}

package indiss_test

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// The examples are real programs, not documentation: each smoke test
// builds and runs one end to end (same `go run` a reader would use) and
// checks for the line proving its scenario actually happened. Before
// this file they reported "[no test files]" and only ever met `go vet`.

// exampleSmoke describes one runnable example.
type exampleSmoke struct {
	dir  string
	want string // substring the run must print
}

func exampleSmokes() []exampleSmoke {
	return []exampleSmoke{
		{dir: "quickstart", want: "service:clock:soap://"},
		{dir: "smarthome", want: "units instantiated at run time"},
		{dir: "adaptation", want: "passive model under load"},
		{dir: "placements", want: "succeeds in every placement"},
		{dir: "federation", want: "found the seg3 UPnP clock"},
		{dir: "chaos", want: "records healed after partition"},
		{dir: "query", want: "watched a service appear over plain HTTP"},
	}
}

func TestExamplesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("examples compile+run via go run; skipped in -short")
	}
	for _, ex := range exampleSmokes() {
		ex := ex
		t.Run(ex.dir, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "run", "./examples/"+ex.dir)
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", ex.dir, err, out)
			}
			if !strings.Contains(string(out), ex.want) {
				t.Errorf("examples/%s output lacks %q:\n%s", ex.dir, ex.want, out)
			}
		})
	}
}

// TestGatewayCommandSmoke drives cmd/indiss-gw in both shapes: the
// classic single LAN and the federated three-segment campus, the latter
// also with persistence, the query plane and periodic stats on.
func TestGatewayCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("command smoke runs via go run; skipped in -short")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "single-lan",
			args: []string{"run", "./cmd/indiss-gw", "-duration", "2s"},
			want: []string{
				"found service:clock:soap://10.0.0.2:4004",
				"indiss-gw: ingress: dropped=0",
			},
		},
		{
			name: "campus",
			args: []string{"run", "./cmd/indiss-gw", "-segments", "3", "-duration", "3s"},
			want: []string{"found service:clock:soap://10.0.3.2:4004"},
		},
		{
			name: "campus-persistent-query-stats",
			args: []string{"run", "./cmd/indiss-gw", "-segments", "3", "-duration", "3s",
				"-data-dir", t.TempDir(), "-query-port", "-1", "-stats-interval", "200ms"},
			want: []string{
				"[gw1] cold start: no prior view state under",
				"query plane listening on",
				"--- stats @",
				"[gw1] ingress: dropped=",
				"[gw1] federation: sessions=",
				"found service:clock:soap://10.0.3.2:4004",
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			out, err := exec.CommandContext(ctx, "go", tc.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("go %v: %v\n%s", tc.args, err, out)
			}
			for _, want := range tc.want {
				if !strings.Contains(string(out), want) {
					t.Errorf("go %v output lacks %q:\n%s", tc.args, want, out)
				}
			}
		})
	}
}

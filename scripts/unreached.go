//go:build ignore

// Command unreached lists the functions of this repository that no binary
// contains: code that only tests reach. It builds every main package of
// the root module and of the benchmark module (cmd/indiss-bench) with
// inlining off into a temporary directory, reads their symbols with
// `go tool nm`, and prints, sorted, each function declared in a non-main
// package's GoFiles (non-test files that build on the host platform) that
// none of them contains. Type arguments are stripped from symbol names, so
// a generic function counts as reached when any instance is. A method the
// linker keeps for an interface counts as reached even if nothing calls
// it, so the list can miss dead code but never names live code. Run it
// from the repository root; CI diffs its output against the committed
// list:
//
//	go run scripts/unreached.go > scripts/unreached.txt
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "unreached:", err)
		os.Exit(1)
	}
}

func run() error {
	tmp, err := os.MkdirTemp("", "unreached-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	mains, err := goOut("", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	if err != nil {
		return err
	}
	build := append([]string{"build", "-gcflags=all=-l", "-o", tmp + "/"}, strings.Fields(mains)...)
	if _, err := goOut("", build...); err != nil {
		return err
	}
	if _, err := goOut("cmd/indiss-bench", "build", "-gcflags=all=-l", "-o", tmp+"/", "."); err != nil {
		return err
	}
	bins, err := filepath.Glob(filepath.Join(tmp, "*"))
	if err != nil {
		return err
	}
	reached := make(map[string]bool)
	for _, bin := range bins {
		nm, err := goOut("", "tool", "nm", bin)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(nm, "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				reached[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
	}

	pkgs, err := goOut("", "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
	if err != nil {
		return err
	}
	var unreached []string
	lines := 0
	fset := token.NewFileSet()
	for _, pkg := range strings.Split(strings.TrimSpace(pkgs), "\n") {
		f := strings.Split(pkg, "\t")
		if f[1] == "main" {
			continue
		}
		for _, name := range strings.Fields(f[3]) {
			file, err := parser.ParseFile(fset, filepath.Join(f[2], name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
					continue
				}
				sym := f[0] + "." + fn.Name.Name
				if fn.Recv != nil {
					recv := stripTypeArgs(types.ExprString(fn.Recv.List[0].Type))
					if strings.HasPrefix(recv, "*") {
						recv = "(" + recv + ")"
					}
					sym = f[0] + "." + recv + "." + fn.Name.Name
				}
				if !reached[sym] {
					unreached = append(unreached, sym)
					lines += fset.Position(fn.End()).Line - fset.Position(fn.Pos()).Line + 1
				}
			}
		}
	}
	sort.Strings(unreached)
	if _, err := fmt.Print(strings.Join(unreached, "\n") + "\n"); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "unreached: %d functions, %d lines, over %d binaries\n", len(unreached), lines, len(bins))
	return nil
}

// goOut runs the go command in dir (the current directory if empty) and
// returns its standard output.
func goOut(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return string(out), nil
}

// stripTypeArgs removes every bracketed type-argument list, so that
// "pkg.(*replies[go.shape.uint16,...]).await" reads "pkg.(*replies).await".
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// Command taurus-lint runs the repo's static-analysis suite (internal/lint)
// over one or more directory trees and prints every diagnostic. Exit status
// 1 when any diagnostic is reported, 2 on a driver error.
//
// The suite holds two analyzers, selectable with flags (both on by default):
//
//	hotpathcheck  functions annotated `//hotpath: zero-alloc` must stay free
//	              of allocating constructs
//	obsnames      metric registrations must use valid dotted names, one kind
//	              per name
//
// Usage:
//
//	taurus-lint [-hotpathcheck=false] [-obsnames=false] [dir ...]   (default ".")
package main

import (
	"flag"
	"fmt"
	"os"

	"taurus/internal/lint"
	"taurus/internal/lint/hotpathcheck"
	"taurus/internal/lint/obsnames"
)

func main() {
	// obsnames is constructed per run: its kind census spans every file the
	// run sees, so the instance must not outlive the invocation.
	all := []*lint.Analyzer{hotpathcheck.Analyzer, obsnames.New()}
	enabled := map[string]*bool{}
	for _, a := range all {
		enabled[a.Name] = flag.Bool(a.Name, true, a.Doc)
	}
	flag.Parse()

	var run []*lint.Analyzer
	for _, a := range all {
		if *enabled[a.Name] {
			run = append(run, a)
		}
	}
	roots := flag.Args()
	if len(roots) == 0 {
		roots = []string{"."}
	}
	bad := false
	for _, root := range roots {
		diags, err := lint.CheckDir(root, run...)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taurus-lint:", err)
			os.Exit(2)
		}
		for _, d := range diags {
			bad = true
			fmt.Println(d)
		}
	}
	if bad {
		os.Exit(1)
	}
}

// Command taskdeplint statically checks taskdep API usage with ten
// rules (taskdeplint -list): six misuse checks, the three dep-coverage
// checks that cross-check each Spec's declared In/Out/InOut/InOutSet
// keys against the effect set of its body closure, and unused-ignore. The engine lives in internal/lint; this is the
// driver.
//
// Usage:
//
//	taskdeplint [flags] [packages]
//
//	taskdeplint ./...                     lint the tree, human output
//	taskdeplint -json ./...               findings as a JSON array
//	taskdeplint -sarif out.sarif ./...    also write a SARIF 2.1.0 log
//	taskdeplint -disable stale-dep ./...  run without one rule
//	taskdeplint -enable undeclared-write ./apps/...   run only one
//	taskdeplint -list                     print the rule registry
//
// Exit status: 0 clean, 1 findings, 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"taskdep/internal/lint"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array on stdout")
		sarifOut = flag.String("sarif", "", "also write a SARIF 2.1.0 log to this `file`")
		enable   = flag.String("enable", "", "comma-separated rules to run (default: all)")
		disable  = flag.String("disable", "", "comma-separated rules to skip")
		list     = flag.Bool("list", false, "print the rule registry and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range lint.Rules() {
			fmt.Printf("%-18s %s\n", r.Name, r.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	opts := lint.Options{Enable: splitList(*enable), Disable: splitList(*disable)}

	dirs, err := lint.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "taskdeplint:", err)
		os.Exit(2)
	}

	var finds []lint.Finding
	for _, dir := range dirs {
		fs, err := lint.LintDir(dir, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taskdeplint:", err)
			os.Exit(2)
		}
		finds = append(finds, fs...)
	}

	if *sarifOut != "" {
		f, err := os.Create(*sarifOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "taskdeplint:", err)
			os.Exit(2)
		}
		werr := lint.WriteSARIF(f, finds)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "taskdeplint:", werr)
			os.Exit(2)
		}
	}

	if *jsonOut {
		if err := lint.WriteJSON(os.Stdout, finds); err != nil {
			fmt.Fprintln(os.Stderr, "taskdeplint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range finds {
			fmt.Println(f)
		}
	}

	if len(finds) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "taskdeplint: %d finding(s)\n", len(finds))
		}
		os.Exit(1)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

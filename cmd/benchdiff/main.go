// Command benchdiff compares two benchmark runs' summary.json files —
// the regression engine behind the CI perf gate.
//
// Usage:
//
//	benchdiff old new       # files, run dirs, or artifact roots
//	                        # (newest run-* wins)
//	benchdiff -all old new  # show unchanged rows too
//
// An exact metric (wire.*, cache.*) that differs at all is a verdict,
// "regressed" or "improved" by its direction; a measured metric is
// printed old → new and never judged. Exit status: 0 when every exact
// metric repeated, 2 when one moved either way (so a checked-in
// baseline is always current), 1 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"edgeejb/internal/regress"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	all := fs.Bool("all", false, "show unchanged metrics too")
	quiet := fs.Bool("q", false, "suppress the table; exit status only")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: benchdiff [flags] <old> <new>\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 1
	}
	oldS, err := regress.Load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 1
	}
	newS, err := regress.Load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 1
	}
	rep := regress.Compare(oldS, newS)
	if !*quiet {
		if err := rep.WriteTable(os.Stdout, *all); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			return 1
		}
	}
	if rep.Regressions+rep.Improvements > 0 {
		return 2
	}
	return 0
}

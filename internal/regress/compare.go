package regress

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// Verdict is the outcome of comparing one metric across two runs. A
// measured metric present in both runs gets none: its Verdict is "".
type Verdict string

const (
	// Unchanged: an exact metric reads the same in both runs.
	Unchanged Verdict = "unchanged"
	// Improved: an exact metric moved in its better direction.
	Improved Verdict = "improved"
	// Regressed: an exact metric moved in its worse direction.
	Regressed Verdict = "regressed"
	// Added: present only in the new run.
	Added Verdict = "added"
	// Removed: present only in the old run.
	Removed Verdict = "removed"
)

// Result is one metric's comparison.
type Result struct {
	Name string
	Kind Kind
	// Old and New are the two means (zero for Added/Removed sides).
	Old, New float64
	Verdict  Verdict
}

// Report is a full two-run comparison.
type Report struct {
	Results []Result
	// Regressions and Improvements count the exact metrics that moved.
	// Either one fails the gate: a checked-in baseline must be current.
	Regressions, Improvements int
}

// Compare diffs two summaries metric by metric. An exact metric is
// unchanged only when its two values are equal; a measured one is
// reported with no verdict.
func Compare(oldS, newS *Summary) *Report {
	names := make(map[string]bool)
	for n := range oldS.Metrics {
		names[n] = true
	}
	for n := range newS.Metrics {
		names[n] = true
	}
	rep := &Report{}
	for name := range names {
		om, inOld := oldS.Metrics[name]
		nm, inNew := newS.Metrics[name]
		r := Result{Name: name, Kind: nm.Kind, Old: om.Mean, New: nm.Mean}
		switch {
		case !inNew:
			r.Kind, r.Verdict = om.Kind, Removed
		case !inOld:
			r.Verdict = Added
		case nm.Kind != KindExact:
			// Measured: printed, no verdict.
		case nm.Mean == om.Mean:
			r.Verdict = Unchanged
		case (nm.Mean > om.Mean) == (nm.Better == HigherIsBetter):
			r.Verdict = Improved
			rep.Improvements++
		default:
			r.Verdict = Regressed
			rep.Regressions++
		}
		rep.Results = append(rep.Results, r)
	}
	sort.Slice(rep.Results, func(i, j int) bool {
		return rep.Results[i].Name < rep.Results[j].Name
	})
	return rep
}

// verdictMark is the one-character gutter flag for the table.
func verdictMark(v Verdict) string {
	switch v {
	case Regressed:
		return "✗"
	case Improved:
		return "✓"
	case Added, Removed:
		return "±"
	default:
		return " "
	}
}

// WriteTable renders the comparison. With all=false unchanged exact
// rows are hidden (and counted); all=true prints everything.
func (rep *Report) WriteTable(w io.Writer, all bool) error {
	if _, err := fmt.Fprintf(w, "%-1s %-46s %12s %12s %9s %-8s  %s\n",
		"", "metric", "old", "new", "delta", "kind", "verdict"); err != nil {
		return err
	}
	hidden := 0
	for _, r := range rep.Results {
		if !all && r.Verdict == Unchanged {
			hidden++
			continue
		}
		var delta string
		switch {
		case r.Verdict == Added:
			delta = "(new)"
		case r.Verdict == Removed:
			delta = "(gone)"
		case r.Old != 0:
			delta = fmt.Sprintf("%+.1f%%", 100*(r.New-r.Old)/math.Abs(r.Old))
		case r.New != 0:
			delta = "+inf"
		default:
			delta = "+0.0%"
		}
		if _, err := fmt.Fprintf(w, "%-1s %-46s %12.4f %12.4f %9s %-8s  %s\n",
			verdictMark(r.Verdict), r.Name, r.Old, r.New, delta, r.Kind, r.Verdict); err != nil {
			return err
		}
	}
	if hidden > 0 {
		if _, err := fmt.Fprintf(w, "  (%d unchanged exact metrics hidden; -all shows them)\n", hidden); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "verdict: %d regressed, %d improved (exact metrics)\n",
		rep.Regressions, rep.Improvements)
	return err
}

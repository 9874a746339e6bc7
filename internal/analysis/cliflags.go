package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// This file is the one place the analysis commands (ruulint, ruudfa)
// define their machine-output flags. The two CLIs had drifted — ruudfa
// grew -json and -sarif but not -out or -timings — and flag drift in
// tooling is the same disease the passes hunt in the simulator:
// conventions that hold only where someone remembered. Both mains now
// register this set; cliflags_test.go pins the parity.

// OutputFlags is the shared machine-output flag surface: terminal JSON
// lines, JSON-lines and SARIF file artifacts, and the timing summary in
// human (stderr) and JSON-file form.
type OutputFlags struct {
	// JSON emits one JSON object per finding/result line on stdout.
	JSON bool
	// Out also writes the JSON lines to a file.
	Out string
	// SARIF also writes a SARIF 2.1.0 log to a file.
	SARIF string
	// Timings prints a wall-clock summary to stderr.
	Timings bool
	// TimingsOut writes the same summary as one JSON document — the CI
	// artifact the benchmark trajectory reads.
	TimingsOut string
}

// RegisterOutputFlags registers the shared flag set on fs (the
// package-level flag.CommandLine in both mains) and returns the
// destination struct. Names, defaults, and usage strings are defined
// here once so the commands cannot drift.
func RegisterOutputFlags(fs *flag.FlagSet) *OutputFlags {
	of := &OutputFlags{}
	fs.BoolVar(&of.JSON, "json", false, "emit one JSON object per line on stdout")
	fs.StringVar(&of.Out, "out", "", "also write the JSON lines to this file")
	fs.StringVar(&of.SARIF, "sarif", "", "also write a SARIF 2.1.0 log to this file")
	fs.BoolVar(&of.Timings, "timings", false, "print a wall-clock timing summary to stderr")
	fs.StringVar(&of.TimingsOut, "timings-out", "", "write the timing summary as JSON to this file")
	return of
}

// TimingsReport is the -timings-out JSON document and the source of the
// -timings stderr rendering.
type TimingsReport struct {
	// Command is the producing binary ("ruulint").
	Command string `json:"command"`
	// TotalNS is end-to-end wall clock for the analysis (load + passes).
	TotalNS int64 `json:"total_ns"`
	// LoadNS is the parse+typecheck cost; zero for a command that does
	// not load a module.
	LoadNS int64 `json:"load_ns,omitempty"`
	// Findings is the total finding count.
	Findings int `json:"findings"`
	// Passes is the per-pass breakdown in pass order.
	Passes []PassTimingJSON `json:"passes"`
}

// PassTimingJSON is one pass's slice of the report.
type PassTimingJSON struct {
	Name      string `json:"name"`
	Findings  int    `json:"findings"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

// NewTimingsReport assembles the report from a check run's outputs:
// total and load wall clock, and the per-pass timings.
func NewTimingsReport(command string, total, load time.Duration, timings []PassTiming, findings int) TimingsReport {
	r := TimingsReport{
		Command:  command,
		TotalNS:  total.Nanoseconds(),
		LoadNS:   load.Nanoseconds(),
		Findings: findings,
		Passes:   make([]PassTimingJSON, 0, len(timings)),
	}
	for _, pt := range timings {
		r.Passes = append(r.Passes, PassTimingJSON{
			Name: pt.Name, Findings: pt.Findings, ElapsedNS: pt.Elapsed.Nanoseconds(),
		})
	}
	return r
}

// Print renders the human form, one aligned line per pass plus load
// and total lines, prefixed with the command name.
func (r TimingsReport) Print(w io.Writer) {
	for _, pt := range r.Passes {
		fmt.Fprintf(w, "%s: %-16s %4d finding(s) %12s\n",
			r.Command, pt.Name, pt.Findings, time.Duration(pt.ElapsedNS).Round(time.Microsecond))
	}
	if r.LoadNS > 0 {
		fmt.Fprintf(w, "%s: load %s\n", r.Command, time.Duration(r.LoadNS).Round(time.Microsecond))
	}
	fmt.Fprintf(w, "%s: %-16s %4d finding(s) %12s\n",
		r.Command, "total", r.Findings, time.Duration(r.TotalNS).Round(time.Microsecond))
}

// WriteFile writes the report as indented JSON (the CI artifact form).
func (r TimingsReport) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Command perfbench is the repository's end-to-end benchmark. It drives
// the simulator and its service through their public APIs in three
// closed-loop workloads, checks every answer, and prints one JSON result
// line: end-to-end metrics with tracing off (-trace 0), or per-layer
// metrics from a traced run (-trace 1). See README.md for why each
// workload exists and which layer metric should move which end-to-end
// metric.
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// workloads maps each workload name to its runner. A runner returns the
// result to print, or an error when the benchmark itself could not run
// (set-up failed); wrong answers are reported in the result, not as an
// error.
var workloads = map[string]func(opts) (result, error){
	"sweep-cold":   runSweepCold,
	"serve-warm":   runServeWarm,
	"batch-fabric": runBatchFabric,
}

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// outDir receives the traced run's Chrome trace and layer summary,
	// and holds the stores the service workloads create.
	outDir string
	info   runInfo
}

// runInfo records what a result was measured on.
type runInfo struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
}

func main() {
	var o opts
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "sweep-cold, serve-warm or batch-fabric")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed region")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for stores, traces and layer summaries")
	flag.Parse()

	run, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload {sweep-cold|serve-warm|batch-fabric}, -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	o.trace = traceFlag == 1

	// Closed-loop callers never outnumber the CPUs, and GOMAXPROCS is set
	// to the CPU count explicitly: at GOMAXPROCS=1 the same run is
	// bimodal.
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	o.info = runInfo{
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Trace:      o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      nproc,
		GoVersion:  runtime.Version(),
		Commit:     commit(),
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fail(err)
	}

	res, err := run(o)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(struct {
		Run runInfo `json:"run"`
	}{o.info})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// commit is the source revision run.sh passes in, "unknown" outside a
// git checkout.
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// runFor converts the -seconds setting to a duration.
func (o opts) runFor() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// errWrongAnswer marks an op whose answer differs from the reference.
var errWrongAnswer = errors.New("wrong answer")

// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload against the matching system,
// checks every decision pass against an offline oracle of the same
// code, and prints its metrics as one JSON object on the last line of
// standard output.
//
//	perfbench --workload city-demcom --seed 42 --seconds 20 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics, measured
// with no tracer and no collector attached beyond the one a server
// always keeps. With --trace 1 it runs
// the workload untraced and then once more with the program's own
// counters and decision tracer attached, and reports the per-layer
// metrics, each layer's share of engine busy time and the tracing
// overhead. Lines before the last one are provenance and diagnostics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// metric is one named value with its unit, as the result line prints it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale shrinks every workload's stream; 1 is the benchmark, the
	// tests run tiny fractions of it.
	scale float64
	// workDir receives the WAL directories of the durable workloads.
	workDir string
}

func main() {
	cfg, code := parseArgs(os.Args[1:], os.Stderr)
	if code == 0 {
		code = run(cfg, os.Stdout, os.Stderr)
	}
	os.Exit(code)
}

// parseArgs reads the command line into a full-scale config; a non-zero
// code is the exit code of an invalid command line.
func parseArgs(args []string, stderr io.Writer) (config, int) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{scale: 1}
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 42, "workload seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed phase runs, in seconds (whole passes; at least one)")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&cfg.workDir, "workdir", ".bench_build/perfbench/run", "directory for the WAL files of durable workloads; each pass removes its own")
	if err := fs.Parse(args); err != nil {
		return cfg, 2
	}
	switch {
	case trace != 0 && trace != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", trace)
		return cfg, 2
	case cfg.seconds <= 0:
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive\n")
		return cfg, 2
	}
	cfg.trace = trace == 1
	return cfg, 0
}

// run measures one workload and prints its result; the exit code is 1
// when a pass differs from the oracle or an event was not decided.
func run(cfg config, stdout, stderr io.Writer) int {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	rep, err := runWorkload(w, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	prov := provenance(w, cfg, rep)
	line, _ := json.Marshal(prov)
	fmt.Fprintf(stdout, "# provenance %s\n", line)
	for _, note := range rep.notes {
		fmt.Fprintf(stdout, "# %s\n", note)
	}
	ok = rep.mismatch == "" && rep.failed == 0
	out := result{Correct: ok, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	line, _ = json.Marshal(out)
	fmt.Fprintf(stdout, "%s\n", line)
	if rep.mismatch != "" {
		fmt.Fprintf(stderr, "perfbench: %s: output differs from the oracle: %s\n", w.name, rep.mismatch)
	}
	if rep.failed != 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d events not decided ok\n", w.name, rep.failed, rep.attempted)
	}
	if !ok {
		return 1
	}
	return 0
}

// provenance records what a reader needs to re-check a figure: the
// machine, the toolchain, the commit and the workload's inputs.
func provenance(w *workload, cfg config, rep *report) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			commit = rev
			if dirty {
				commit += "+dirty"
			}
		}
	}
	return map[string]any{
		"workload":   w.name,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"events":     rep.streamEvents,
		"passes":     rep.passes,
		"samples":    rep.samples,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"commit":     commit,
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or
// "unknown" where the file does not exist.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

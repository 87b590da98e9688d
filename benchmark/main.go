// Command benchmark is oblivfd's one benchmark: four workloads, the
// end-to-end metrics a user of the system sees, and — on a traced run — a
// per-layer attribution taken from outside the program. See README.md in this
// directory for what every metric means and how the metrics interact, and
// BENCHMARK.json at the root of the repository for the contract.
//
//	go run ./benchmark -workload sort-mem [-seed 1] [-seconds 20] [-trace 1]
//	go run ./benchmark -all
//	go run ./benchmark -selfcheck 10 [-workload oram-tcp]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// record (sizes, repetitions, environment, every metric). The exit code is
// non-zero when the harness fails or the program under test gives a wrong
// answer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	os.Exit(realMain())
}

// outDir is where records, traces and topoRepl's data directories go: the
// one place the benchmark writes, relative to the checkout it is run from.
const outDir = "benchmark/out"

func realMain() int {
	var (
		workload  = flag.String("workload", "", "workload to run: sort-mem, oram-tcp, sort-repl or exoram-dynamic")
		seed      = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds   = flag.Float64("seconds", runSeconds, "how long to measure: the repetition counts are sized for 20 and scale with it")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and benchmark/out/<workload>.trace.json")
		all       = flag.Bool("all", false, "run every workload, untraced then traced, each in a process of its own")
		selfcheck = flag.Int("selfcheck", 0, "run each workload this many times with seeds 1..k and report the spread of every end-to-end metric against its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	if *selfcheck > 0 || *all {
		names := []string{*workload}
		if *workload == "" {
			names = names[:0]
			for _, sp := range workloads {
				names = append(names, sp.name)
			}
		}
		if *all {
			return runAll(names, *seed, *seconds)
		}
		return runSelfcheck(names, *selfcheck, *seconds)
	}

	sp, ok := findSpec(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q; want one of", *workload)
		for _, sp := range workloads {
			fmt.Fprintf(os.Stderr, " %s", sp.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	cfg := config{spec: sp, seed: *seed, seconds: *seconds, traced: *trace != 0, outDir: outDir, passes: speedPasses}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", sp.name, err)
		return 1
	}
	return emit(res, cfg.outDir)
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the record and the contract line, and keeps the record in the
// output directory. An untraced run reports every end-to-end metric and a
// traced run every per-layer one; a metric the run did not produce is a bug
// and is reported as one.
func emit(res *result, outDir string) int {
	defs := endToEnd
	suffix := ".json"
	if res.Traced {
		defs, suffix = perLayer, ".traced.json"
	}
	line := contractLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: %s: metric %s was not measured\n", res.Workload, d.Name)
			return 1
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	record, err := json.Marshal(res)
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, res.Workload+suffix), append(record, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: writing record: %v\n", res.Workload, err)
		return 1
	}
	last, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", res.Workload, err)
		return 1
	}
	fmt.Printf("%s\n%s\n", record, last)
	if !res.Correct {
		for _, n := range res.Notes {
			fmt.Fprintf(os.Stderr, "benchmark: %s: WRONG: %s\n", res.Workload, n)
		}
		return 1
	}
	return 0
}

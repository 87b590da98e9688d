// Command fdbench regenerates every table and figure of the paper's
// evaluation (§VII). Each experiment prints the same rows/series the paper
// reports; EXPERIMENTS.md records a full run.
//
// Usage:
//
//	fdbench -exp all                # everything, quick sizes
//	fdbench -exp fig4 -maxn 4096    # one experiment, bigger sweep
//	fdbench -exp table2 -rows 8192 -runs 9   # paper-scale obliviousness test
//
// Quick sizes keep the full suite in the minutes range; raise -rows/-maxn
// toward the paper's 2^13–2^15 for closer comparison.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"github.com/oblivfd/oblivfd/internal/bench"
)

// params is what the flags set; every experiment reads its sizes from it.
type params struct {
	exp                          string
	rows, runs, minn, maxn, fign int
	threads, clients             []int
	rtt, t2rtt                   time.Duration
	seed                         int64
	dbs, mtInflight              int
	mtOut                        string
}

// registerFlags binds fdbench's flags to p.
func registerFlags(fs *flag.FlagSet, p *params) {
	fs.StringVar(&p.exp, "exp", "all", "experiment: "+experimentNames()+"|all")
	fs.IntVar(&p.rows, "rows", 512, "rows sampled per dataset (table2); paper uses 8192")
	fs.IntVar(&p.runs, "runs", 9, "runs per group (table2); paper uses 9")
	fs.IntVar(&p.maxn, "maxn", 2048, "largest n in scalability sweeps (fig4/fig5/fig6b/fig7)")
	fs.IntVar(&p.minn, "minn", 128, "smallest n in scalability sweeps")
	fs.IntVar(&p.fign, "fig6a-n", 8192, "n for the fig6a thread sweep; paper uses 32768")
	intsVar(fs, &p.threads, "threads", []int{1, 2, 4, 8, 16}, "comma-separated thread counts for fig6a")
	fs.DurationVar(&p.rtt, "rtt", 200*time.Microsecond, "modeled network RTT per storage op (fig6a)")
	fs.DurationVar(&p.t2rtt, "table2-rtt", 0, "modeled network RTT for table2 (0 = in-process timings)")
	fs.Int64Var(&p.seed, "seed", 1, "base RNG seed")
	intsVar(fs, &p.clients, "clients", []int{1, 2, 4, 8}, "comma-separated concurrent client counts for the multitenant experiment")
	fs.IntVar(&p.dbs, "dbs", 2, "database namespaces the multitenant experiment's clients spread over")
	fs.IntVar(&p.mtInflight, "mt-inflight", 4, "global in-flight request budget for the multitenant experiment's server")
	fs.StringVar(&p.mtOut, "mt-out", "", "write the multitenant experiment's client sweep to this JSON file (e.g. BENCH_multitenant.json)")
}

func main() {
	var p params
	registerFlags(flag.CommandLine, &p)
	flag.Parse()

	if err := run(p); err != nil {
		fmt.Fprintln(os.Stderr, "fdbench:", err)
		os.Exit(1)
	}
}

// intsVar registers a list flag whose value stays def unless it is set.
func intsVar(fs *flag.FlagSet, dst *[]int, name string, def []int, usage string) {
	*dst = def
	fs.Func(name, fmt.Sprintf("%s (default %v)", usage, def), func(s string) (err error) {
		*dst, err = parseInts(s)
		return err
	})
}

// parseInts reads a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("%q is not a positive integer", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// sweep doubles from minn up to maxn and is never empty: an experiment that
// sweeps to a fraction of -maxn still measures -minn.
func sweep(minn, maxn int) []int {
	out := []int{minn}
	for n := 2 * minn; n <= maxn; n *= 2 {
		out = append(out, n)
	}
	return out
}

type renderer interface{ Render() string }

// experiments is everything fdbench runs, in the order -exp all runs it: the
// paper's tables and figures, the ablation and the comparisons behind them,
// and multitenant.
var experiments = []struct {
	name string
	run  func(p params) (renderer, error)
}{
	{"table1", func(p params) (renderer, error) { return bench.Table1(0, p.seed) }},
	{"table2", func(p params) (renderer, error) {
		return bench.Table2(bench.Table2Config{Rows: p.rows, Runs: p.runs, Seed: p.seed, RTT: p.t2rtt})
	}},
	{"table3", func(p params) (renderer, error) { return bench.Table3(sweep(p.minn, p.maxn), p.seed) }},
	{"fig4", func(p params) (renderer, error) { return bench.Fig4(sweep(p.minn, p.maxn), p.seed) }},
	{"fig5", func(p params) (renderer, error) { return bench.Fig5(sweep(p.minn, p.maxn), p.seed) }},
	{"fig6a", func(p params) (renderer, error) { return bench.Fig6a(p.fign, p.threads, p.rtt, p.seed) }},
	{"fig6b", func(p params) (renderer, error) { return bench.Fig6b(sweep(p.minn, p.maxn), p.seed) }},
	{"fig7", func(p params) (renderer, error) { return bench.Fig7(sweep(p.minn, p.maxn/2), p.seed) }},
	{"ablation-compression", func(p params) (renderer, error) { return bench.AblationCompression(p.minn*4, 6, p.seed) }},
	{"security-levels", func(p params) (renderer, error) { return bench.SecurityLevels(sweep(p.minn, p.maxn/4), 2, p.seed) }},
	{"comm", func(p params) (renderer, error) { return bench.Comm(sweep(p.minn, p.maxn/2), p.seed) }},
	{"multitenant", func(p params) (renderer, error) {
		r, err := bench.MultiTenant(p.minn/2, 5, p.clients, p.dbs, p.mtInflight, p.seed)
		if err != nil {
			return nil, err
		}
		if p.mtOut != "" {
			if err := r.WriteFile(p.mtOut); err != nil {
				return nil, fmt.Errorf("writing %s: %w", p.mtOut, err)
			}
			fmt.Printf("wrote %s (%d points)\n", p.mtOut, len(r.Points))
		}
		return r, nil
	}},
}

func experimentNames() string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return strings.Join(names, "|")
}

func run(p params) error {
	// A size of 0 would never end a sweep (n *= 2 stays 0), 0 databases
	// would divide by zero, and a negative count means nothing: refuse them
	// all before any experiment runs.
	for _, f := range []struct {
		name string
		v    int
	}{{"rows", p.rows}, {"runs", p.runs}, {"minn", p.minn}, {"maxn", p.maxn}, {"fig6a-n", p.fign}, {"dbs", p.dbs}} {
		if f.v < 1 {
			return fmt.Errorf("-%s must be positive, got %d", f.name, f.v)
		}
	}
	// A negative delay or budget would be read as none or as unlimited, and
	// -maxn below -minn would run every sweep empty.
	for name, negative := range map[string]bool{"rtt": p.rtt < 0, "table2-rtt": p.t2rtt < 0, "mt-inflight": p.mtInflight < 0} {
		if negative {
			return fmt.Errorf("-%s must not be negative", name)
		}
	}
	if p.maxn < p.minn {
		return fmt.Errorf("-maxn %d is below -minn %d", p.maxn, p.minn)
	}
	ran := 0
	for _, e := range experiments {
		if p.exp != "all" && p.exp != e.name {
			continue
		}
		ran++
		start := time.Now()
		res, err := e.run(p)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Printf("=== %s (took %s) ===\n%s\n", e.name, time.Since(start).Round(time.Millisecond), res.Render())
	}
	if ran == 0 {
		return fmt.Errorf("unknown experiment %q (want %s|all)", p.exp, experimentNames())
	}
	return nil
}

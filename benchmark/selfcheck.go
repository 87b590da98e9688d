package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// runChild runs one workload once in a process of its own — peak_rss_mb is a
// property of a process — and returns its record.
func runChild(name string, seed int64, traced bool, seconds float64) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10), "-seconds", fmt.Sprint(seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // waits for the child to end
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s seed %d: no result (%v)", name, seed, err)
	}
	var res result
	if jerr := json.Unmarshal(lines[len(lines)-2], &res); jerr != nil {
		return nil, fmt.Errorf("%s seed %d: unreadable record: %v", name, seed, jerr)
	}
	return &res, nil
}

// runAll runs every named workload untraced and then traced, and prints one
// JSON object holding all the records.
func runAll(names []string, seed int64, seconds float64) int {
	code := 0
	out := map[string]map[string]*result{}
	for _, name := range names {
		out[name] = map[string]*result{}
		for _, traced := range []bool{false, true} {
			res, err := runChild(name, seed, traced, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			key := "end_to_end"
			if traced {
				key = "per_layer"
			}
			out[name][key] = res
			if !res.Correct {
				code = 1
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// quartiles are Python's statistics.quantiles(v, n=4) — the exclusive
// method — so that the spread printed here is the one the driver computes.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		j = min(max(j, 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// worse is how much b is worse than a as a share of a, for a metric where
// lower or higher is better; negative when b is better.
func worse(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelfcheck runs each workload k times, seeds 1..k, and prints for every
// end-to-end metric the median, the quartiles, their distance as a share of
// the median (the driver's spread), (max − min) / median, and the declared
// bound. It fails when a spread exceeds its metric's bound, when the second
// half of the runs is worse than the first by more than the bound, or when
// any run was incorrect. setup_s is held to the half-against-half rule only,
// as in the driver.
func runSelfcheck(names []string, k int, seconds float64) int {
	if k < 4 {
		fmt.Fprintln(os.Stderr, "benchmark: -selfcheck needs at least 4 runs for quartiles")
		return 2
	}
	code := 0
	for _, name := range names {
		vals := map[string][]float64{}
		var steal []string
		attempted, failed := 0, 0
		for i := 1; i <= k; i++ {
			res, err := runChild(name, int64(i), false, seconds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			for _, d := range endToEnd {
				vals[d.Name] = append(vals[d.Name], res.Metrics[d.Name])
			}
			attempted += res.Attempted
			failed += res.Failed
			steal = append(steal, strconv.FormatFloat(res.Env.StealPct, 'f', 1, 64))
			fmt.Fprintf(os.Stderr, "%s seed %d: %.1fs wall, steal %.1f%%, speed factor %.3f, setup_s %.4f, discover_s %.4f, update_p50_ms %.4f, updates_per_s %.4f, peak_rss_mb %.2f\n",
				name, i, res.WallS, res.Env.StealPct, res.SpeedFactor, res.Metrics["setup_s"], res.Metrics["discover_s"],
				res.Metrics["update_p50_ms"], res.Metrics["updates_per_s"], res.Metrics["peak_rss_mb"])
		}
		fmt.Printf("%s: %d runs, failed %d of %d attempted, steal %% per run: %s\n", name, k, failed, attempted, strings.Join(steal, " "))
		fmt.Printf("  %-18s %12s %12s %12s %9s %9s %9s %7s  %s\n", "metric", "q1", "median", "q3", "spread", "range", "halves", "bound", "")
		if failed > 0 {
			code = 1
		}
		for _, d := range endToEnd {
			v := vals[d.Name]
			q1, q2, q3 := quartiles(v)
			spread := (q3 - q1) / q2
			s := append([]float64(nil), v...)
			sort.Float64s(s)
			rng := (s[len(s)-1] - s[0]) / q2
			halves := worse(d, median(v[:k/2]), median(v[k/2:]))
			verdict := "ok"
			switch {
			case d.Name != "setup_s" && spread > d.Bound:
				verdict = "SPREAD OVER BOUND"
			case halves > d.Bound:
				verdict = "HALVES DISAGREE"
			case d.Name != "setup_s" && spread > d.Bound/3:
				verdict = "ok (spread over a third of the bound)"
			}
			if strings.ToUpper(verdict) == verdict {
				code = 1
			}
			fmt.Printf("  %-18s %12.5g %12.5g %12.5g %8.3f%% %8.3f%% %+8.3f%% %6.1f%%  %s\n",
				d.Name, q1, q2, q3, 100*spread, 100*rng, 100*halves, 100*d.Bound, verdict)
		}
	}
	return code
}

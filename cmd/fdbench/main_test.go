package main

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/oblivfd/oblivfd/internal/bench"
)

// tiny is the smallest parameter set every experiment still runs end to end on.
func tiny(exp string) params {
	return params{exp: exp, rows: 16, runs: 2, minn: 16, maxn: 32, fign: 16,
		threads: []int{1}, clients: []int{1}, seed: 1, dbs: 2, mtInflight: 2}
}

func TestParseInts(t *testing.T) {
	for in, want := range map[string][]int{"1,2,4": {1, 2, 4}, " 8 , 16 ": {8, 16}} {
		if got, err := parseInts(in); err != nil || !slices.Equal(got, want) {
			t.Errorf("parseInts(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	// A bad entry is an error that names it, never a silent default or drop.
	for in, bad := range map[string]string{"": `""`, "x,y": `"x"`, "4,0": `"0"`, "-3": `"-3"`, "3,zz,5": `"zz"`} {
		if got, err := parseInts(in); err == nil || !strings.Contains(err.Error(), bad) {
			t.Errorf("parseInts(%q) = %v, %v; want an error naming %s", in, got, err, bad)
		}
	}
}

// TestListFlags: -threads and -clients each keep their own default when
// unset, and a bad entry stops the parse with the flag and the entry named.
func TestListFlags(t *testing.T) {
	parse := func(args ...string) (params, error) {
		var p params
		fs := flag.NewFlagSet("fdbench", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		registerFlags(fs, &p)
		return p, fs.Parse(args)
	}
	p, err := parse("-threads", "2,3")
	if err != nil || !slices.Equal(p.threads, []int{2, 3}) || !slices.Equal(p.clients, []int{1, 2, 4, 8}) {
		t.Errorf("threads = %v, clients = %v, err = %v", p.threads, p.clients, err)
	}
	if p, err = parse(); err != nil || !slices.Equal(p.threads, []int{1, 2, 4, 8, 16}) {
		t.Errorf("default threads = %v, err = %v", p.threads, err)
	}
	for _, c := range []struct{ name, arg, bad string }{{"-clients", "x", `"x"`}, {"-threads", "1,foo,4", `"foo"`}} {
		_, err := parse(c.name, c.arg)
		if err == nil || !strings.Contains(err.Error(), c.name) || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%s %s: err = %v", c.name, c.arg, err)
		}
	}
}

func TestSweep(t *testing.T) {
	got := sweep(16, 128)
	want := []int{16, 32, 64, 128}
	if len(got) != len(want) {
		t.Fatalf("sweep = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sweep = %v, want %v", got, want)
		}
	}
	// fig7 and comm sweep to -maxn/2, security-levels to -maxn/4: with
	// -maxn = -minn they measure -minn rather than nothing.
	if got := sweep(16, 16/4); !slices.Equal(got, []int{16}) {
		t.Errorf("sweep(16, 4) = %v, want [16]", got)
	}
}

// TestRunSingleExperiments: every entry of the experiment table runs end to
// end at tiny sizes, and the -exp help names it.
func TestRunSingleExperiments(t *testing.T) {
	fs := flag.NewFlagSet("fdbench", flag.ContinueOnError)
	registerFlags(fs, new(params))
	help := fs.Lookup("exp").Usage
	for _, e := range experiments {
		if !strings.Contains(help, e.name+"|") {
			t.Errorf("-exp help %q does not name %s", help, e.name)
		}
		if err := run(tiny(e.name)); err != nil {
			t.Errorf("run(%s): %v", e.name, err)
		}
	}
}

// TestRunRefusesNonPositiveSizes: every size or count flag below 1 is refused
// by name before any experiment runs — -minn 0 used to double 0 forever in
// sweep, growing its slice until memory ran out, and -dbs 0 divided by zero
// in the multitenant experiment — and 1 is accepted.
func TestRunRefusesNonPositiveSizes(t *testing.T) {
	for _, c := range []struct {
		flag string
		set  func(*params, int)
	}{
		{"rows", func(p *params, v int) { p.rows = v }},
		{"runs", func(p *params, v int) { p.runs = v }},
		{"minn", func(p *params, v int) { p.minn = v }},
		{"maxn", func(p *params, v int) { p.maxn = v }},
		{"fig6a-n", func(p *params, v int) { p.fign = v }},
		{"dbs", func(p *params, v int) { p.dbs = v }},
	} {
		for _, v := range []int{0, -1} {
			p := tiny("table3")
			c.set(&p, v)
			if err := run(p); err == nil || !strings.Contains(err.Error(), "-"+c.flag+" must be positive") {
				t.Errorf("-%s %d: run = %v, want it refused by name", c.flag, v, err)
			}
		}
	}
	p := tiny("table3")
	p.rows, p.runs, p.minn, p.maxn, p.fign, p.dbs = 1, 1, 1, 1, 1, 1
	if err := run(p); err != nil {
		t.Errorf("every size 1: %v", err)
	}
}

// TestRunRefusesNegativeDelaysAndEmptySweeps: a negative -rtt, -table2-rtt
// or -mt-inflight, once read as no delay or no budget, and a -maxn below
// -minn, once an empty sweep, are refused by name before any experiment runs;
// zero delays and budgets and -maxn equal to -minn are accepted.
func TestRunRefusesNegativeDelaysAndEmptySweeps(t *testing.T) {
	for _, c := range []struct {
		flag string
		set  func(*params)
	}{
		{"-rtt", func(p *params) { p.rtt = -time.Microsecond }},
		{"-table2-rtt", func(p *params) { p.t2rtt = -time.Microsecond }},
		{"-mt-inflight", func(p *params) { p.mtInflight = -1 }},
		{"-maxn", func(p *params) { p.minn, p.maxn = 32, 16 }},
	} {
		p := tiny("table3")
		c.set(&p)
		if err := run(p); err == nil || !strings.Contains(err.Error(), c.flag) {
			t.Errorf("%s: run = %v, want it refused by name", c.flag, err)
		}
	}
	p := tiny("table3")
	p.rtt, p.t2rtt, p.mtInflight, p.maxn = 0, 0, 0, p.minn
	if err := run(p); err != nil {
		t.Errorf("zero delays and budget, -maxn = -minn: %v", err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(tiny("bogus"))
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, e := range experiments {
		if !strings.Contains(err.Error(), e.name) {
			t.Errorf("error %q does not name %s", err, e.name)
		}
	}
}

// TestRunMultiTenantArtifact: -mt-out writes the client sweep with request
// and shed accounting per point.
func TestRunMultiTenantArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_multitenant.json")
	p := tiny("multitenant")
	p.clients, p.mtOut = []int{1, 2}, out
	if err := run(p); err != nil {
		t.Fatalf("run(multitenant): %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("artifact not written: %v", err)
	}
	var res bench.MultiTenantResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(res.Points) != 2 { // two client counts
		t.Fatalf("artifact has %d points, want 2", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.WallNS <= 0 || pt.Requests <= 0 {
			t.Errorf("point clients=%d missing wall time or requests", pt.Clients)
		}
		if pt.Shed > 0 && pt.ShedRate <= 0 {
			t.Errorf("point clients=%d shed %d but rate %f", pt.Clients, pt.Shed, pt.ShedRate)
		}
	}
}

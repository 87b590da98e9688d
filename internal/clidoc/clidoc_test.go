package clidoc

import (
	"flag"
	"slices"
	"testing"
)

const readme = "| Flag | Command | Meaning |\n" +
	"|---|---|---|\n" +
	"| `-data-dir DIR` | `srv`, `cli` | durable storage |\n" +
	"| `-token T` | `cli` | session token |\n" +
	"\n" +
	"```sh\n" +
	"go run ./cmd/srv -listen :7066 -grace 5s \\\n" +
	"  -old-flag x   # comment with -not-a-flag\n" +
	"go run ./cmd/cli -quiet data.csv | sort | diff ref.txt -\n" +
	"```\n" +
	"Prose: `srv -inline` and `srvx -other`, -loose words are not flags.\n"

func TestNamedFlags(t *testing.T) {
	for cmd, want := range map[string][]string{
		"srv": {"data-dir", "grace", "inline", "listen", "old-flag"},
		"cli": {"data-dir", "quiet", "token"},
	} {
		var got []string
		for name := range namedFlags(readme, cmd) {
			got = append(got, name)
		}
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Errorf("named(%s) = %v, want %v", cmd, got, want)
		}
	}
}

func TestDrift(t *testing.T) {
	fs := flag.NewFlagSet("srv", flag.ContinueOnError)
	for _, name := range []string{"listen", "grace", "data-dir", "inline", "latency"} {
		fs.String(name, "", "")
	}
	undocumented, unknown := Drift(readme, "srv", fs)
	if !slices.Equal(undocumented, []string{"latency"}) || !slices.Equal(unknown, []string{"old-flag"}) {
		t.Errorf("Drift = %v, %v; want [latency], [old-flag]", undocumented, unknown)
	}
}

// Package clidoc compares a command's registered flags with what README.md
// says about them, so that the two cannot drift apart.
package clidoc

import (
	"flag"
	"regexp"
	"sort"
	"strings"
)

// tableRow matches a flag table row: "| `-name ARG` | `cmd1`, `cmd2` | …".
var tableRow = regexp.MustCompile("^\\| `-([a-z][a-z0-9-]*)[^`]*` \\| ([^|]*)\\|")

// flagWord matches a flag as a word of a command line.
var flagWord = regexp.MustCompile(`^-([a-z][a-z0-9-]*)$`)

// namedFlags returns the flags README attributes to command cmd: the flag of
// every table row whose command column names cmd, and every flag on a
// command line that runs cmd — "./cmd/<cmd> …" in a code block (backslash
// continuations joined) or an inline "`<cmd> …`" span — up to its end, a
// comment, a pipe or a redirection.
func namedFlags(readme, cmd string) map[string]bool {
	flags := map[string]bool{}
	invocation := regexp.MustCompile("(/cmd/|`)" + regexp.QuoteMeta(cmd) + " ")
	for _, line := range strings.Split(strings.ReplaceAll(readme, "\\\n", " "), "\n") {
		if m := tableRow.FindStringSubmatch(line); m != nil {
			if strings.Contains(m[2], "`"+cmd+"`") {
				flags[m[1]] = true
			}
			continue
		}
		for _, loc := range invocation.FindAllStringIndex(line, -1) {
			args := line[loc[1]:]
			if i := strings.IndexAny(args, "`#|&;>"); i >= 0 {
				args = args[:i]
			}
			for _, w := range strings.Fields(args) {
				if m := flagWord.FindStringSubmatch(w); m != nil {
					flags[m[1]] = true
				}
			}
		}
	}
	return flags
}

// Drift compares the flags registered in fs with those README attributes to
// cmd (namedFlags): undocumented are registered but never named, unknown are
// named but not registered. Both come back sorted.
func Drift(readme, cmd string, fs *flag.FlagSet) (undocumented, unknown []string) {
	named := namedFlags(readme, cmd)
	fs.VisitAll(func(f *flag.Flag) {
		if !named[f.Name] {
			undocumented = append(undocumented, f.Name)
		}
		delete(named, f.Name)
	})
	for name := range named {
		unknown = append(unknown, name)
	}
	sort.Strings(unknown)
	return undocumented, unknown
}

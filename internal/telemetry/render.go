package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// famEntry is one series gathered for exposition.
type famEntry struct {
	labels string
	metric any
}

// families groups every registered metric by base name, each family's
// series sorted by label string, family names sorted. The Prometheus text
// format requires all series of one family to be consecutive under a
// single # TYPE line.
func (r *Registry) families() (names []string, byName map[string][]famEntry) {
	byName = make(map[string][]famEntry)
	r.visit(func(_ string, m any) {
		var s series
		switch v := m.(type) {
		case *Counter:
			s = v.series
		case *Gauge:
			s = v.series
		case *Histogram:
			s = v.series
		default:
			return
		}
		if s.name == "" {
			return // standalone metric that leaked into a registry; skip
		}
		if _, ok := byName[s.name]; !ok {
			names = append(names, s.name)
		}
		byName[s.name] = append(byName[s.name], famEntry{labels: s.labels, metric: m})
	})
	sort.Strings(names)
	for _, n := range names {
		es := byName[n]
		sort.Slice(es, func(i, j int) bool { return es[i].labels < es[j].labels })
	}
	return names, byName
}

func fmtFloat(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// writeSeries writes one `name{labels} value` sample line, merging extra
// label pairs (already rendered) with the series labels.
func writeSeries(w io.Writer, name, labels, extra, value string) {
	all := labels
	if extra != "" {
		if all != "" {
			all += ","
		}
		all += extra
	}
	if all == "" {
		fmt.Fprintf(w, "%s %s\n", name, value)
	} else {
		fmt.Fprintf(w, "%s{%s} %s\n", name, all, value)
	}
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Histograms emit the conventional
// _bucket{le=...}/_sum/_count triple.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	names, byName := r.families()
	for _, name := range names {
		entries := byName[name]
		switch entries[0].metric.(type) {
		case *Counter:
			fmt.Fprintf(w, "# TYPE %s counter\n", name)
		case *Gauge:
			fmt.Fprintf(w, "# TYPE %s gauge\n", name)
		case *Histogram:
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
		}
		for _, e := range entries {
			switch m := e.metric.(type) {
			case *Counter:
				writeSeries(w, name, e.labels, "", strconv.FormatInt(m.Value(), 10))
			case *Gauge:
				writeSeries(w, name, e.labels, "", strconv.FormatInt(m.Value(), 10))
			case *Histogram:
				s := m.Snapshot()
				for _, b := range s.Buckets {
					writeSeries(w, name+"_bucket", e.labels,
						`le="`+fmtFloat(b.UpperBound)+`"`,
						strconv.FormatInt(b.Count, 10))
				}
				if len(s.Buckets) == 0 {
					// Empty histogram: still expose the shape.
					for _, ub := range append(append([]float64(nil), m.bounds...), math.Inf(1)) {
						writeSeries(w, name+"_bucket", e.labels, `le="`+fmtFloat(ub)+`"`, "0")
					}
				}
				writeSeries(w, name+"_sum", e.labels, "", fmtFloat(s.Sum.Seconds()))
				writeSeries(w, name+"_count", e.labels, "", strconv.FormatInt(s.Count, 10))
			}
		}
	}
}

// jsonSnapshot is the /metrics.json document shape.
type jsonSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// snapshotJSON builds the JSON view of the registry. Histogram bucket
// lists are included; keys are the full series key (name{labels}).
func (r *Registry) snapshotJSON() jsonSnapshot {
	doc := jsonSnapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	r.visit(func(key string, m any) {
		switch v := m.(type) {
		case *Counter:
			doc.Counters[key] = v.Value()
		case *Gauge:
			doc.Gauges[key] = v.Value()
		case *Histogram:
			doc.Histograms[key] = v.Snapshot()
		}
	})
	return doc
}

// WriteJSON renders the registry as an indented JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.snapshotJSON())
}

// MarshalBreakdownJSON returns the registry's counters, gauges and
// histograms as JSON, with the run's wall time and the caller's phase table
// (an otrace Tracer's Phases, say) under "phases": the snapshot fddiscover
// -telemetry-json writes.
func (r *Registry) MarshalBreakdownJSON(wall time.Duration, phases any) ([]byte, error) {
	doc := struct {
		WallNS int64 `json:"wall_ns"`
		jsonSnapshot
		Phases any `json:"phases,omitempty"`
	}{int64(wall), r.snapshotJSON(), phases}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Breakdown renders the registry's operator view: non-zero counters and
// gauges, and latency histogram quantiles. fddiscover -telemetry prints it
// under the phase table its tracer renders.
func (r *Registry) Breakdown() string {
	if r == nil {
		return "(telemetry disabled)\n"
	}
	var counters, hists strings.Builder
	r.visit(func(key string, m any) {
		switch v := m.(type) {
		case interface{ Value() int64 }: // *Counter, *Gauge
			if n := v.Value(); n != 0 {
				fmt.Fprintf(&counters, "  %-52s %d\n", key, n)
			}
		case *Histogram:
			if s := v.Snapshot(); s.Count > 0 {
				fmt.Fprintf(&hists, "  %-52s count=%d p50=%s p95=%s p99=%s max=%s\n", key, s.Count,
					s.P50.Round(time.Microsecond), s.P95.Round(time.Microsecond),
					s.P99.Round(time.Microsecond), s.Max.Round(time.Microsecond))
			}
		}
	})
	var b strings.Builder
	if counters.Len() > 0 {
		b.WriteString("\ncounters:\n" + counters.String())
	}
	if hists.Len() > 0 {
		b.WriteString("\nlatency:\n" + hists.String())
	}
	return b.String()
}

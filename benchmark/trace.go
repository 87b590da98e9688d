package main

import (
	"bufio"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
)

// tracer records spans at the layer boundaries the benchmark can reach from
// outside. The load is one closed-loop client with Workers = 1, synchronous
// replication and no background jobs, so at any instant exactly one call
// chain is in flight — engine → client seam → (server goroutine) server
// seam → FS / ship → (replica goroutine) replica FS — and the spans of all
// goroutines form ONE logical stack. begin pushes onto it and end pops, which
// gives every span its parent and its self time (duration minus children)
// without goroutine identity. A nil or disabled tracer costs one branch.
type tracer struct {
	mu     sync.Mutex
	on     bool
	t0     time.Time
	names  []string
	byName map[string]uint16
	spans  []spanRec
	stack  []int32
	agg    []spanAgg // per name, indexed like names
	// Every self time of the spans whose name starts with logPrefix is
	// kept, for a percentile (transport.rtt_p50_us).
	logPrefix string
	logged    []bool // per name
	selfLog   []int32
}

// spanRec is one finished or open span: name, the span that caused it
// (-1 for a root), start and duration in ns since the tracer was made, and
// the time its children covered.
type spanRec struct {
	name   uint16
	parent int32
	start  int64
	dur    int64
	child  int64
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	count int64
	total int64 // ns
	self  int64 // ns, total minus children
}

func newTracer(logPrefix string) *tracer {
	return &tracer{t0: time.Now(), byName: map[string]uint16{}, logPrefix: logPrefix}
}

// name interns a span name; call it at set-up, not per span.
func (t *tracer) name(s string) uint16 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.byName[s]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, s)
	t.agg = append(t.agg, spanAgg{})
	t.logged = append(t.logged, t.logPrefix != "" && strings.HasPrefix(s, t.logPrefix))
	t.byName[s] = id
	return id
}

// enable switches recording; spans opened while it is off are not recorded.
func (t *tracer) enable(on bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// begin opens a span under the innermost open one. It reports whether the
// span was recorded, which the caller hands back to end.
func (t *tracer) begin(name uint16) bool {
	if t == nil {
		return false
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	if !t.on {
		t.mu.Unlock()
		return false
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, int32(len(t.spans)))
	t.spans = append(t.spans, spanRec{name: name, parent: parent, start: now})
	t.mu.Unlock()
	return true
}

// end closes the innermost open span.
func (t *tracer) end(recorded bool) {
	if !recorded {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	sp := &t.spans[id]
	sp.dur = now - sp.start
	if sp.parent >= 0 {
		t.spans[sp.parent].child += sp.dur
	}
	self := sp.dur - sp.child
	a := &t.agg[sp.name]
	a.count++
	a.total += sp.dur
	a.self += self
	if t.logged[sp.name] {
		t.selfLog = append(t.selfLog, int32(self))
	}
	t.mu.Unlock()
}

// snapshot copies the per-name sums; the difference of two snapshots is one
// discovery's attribution.
func (t *tracer) snapshot() []spanAgg {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanAgg(nil), t.agg...)
}

// since returns the sums accumulated after an earlier snapshot, by name.
func (t *tracer) since(before []spanAgg) map[string]spanAgg {
	out := map[string]spanAgg{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, a := range t.agg {
		var b spanAgg
		if i < len(before) {
			b = before[i]
		}
		out[t.names[i]] = spanAgg{count: a.count - b.count, total: a.total - b.total, self: a.self - b.self}
	}
	return out
}

// selfMedianNS returns the median of the self times kept under logPrefix.
func (t *tracer) selfMedianNS() float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	log := append([]int32(nil), t.selfLog...)
	t.mu.Unlock()
	if len(log) == 0 {
		return 0
	}
	slices.Sort(log)
	return float64(log[len(log)/2])
}

func (t *tracer) numSpans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes every span as one JSON document:
// {"unit":"ns","names":[...],"spans":[[id,parent,name,start,dur,self],...]}.
// Spans are rows, not objects, because a traced run records millions.
func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"unit":"ns","columns":["id","parent","name","start","dur","self"],"names":[`)
	for i, n := range t.names {
		if i > 0 {
			w.WriteByte(',')
		}
		w.WriteString(strconv.Quote(n))
	}
	w.WriteString("],\"spans\":[\n")
	buf := make([]byte, 0, 96)
	for i, sp := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',', '\n')
		}
		buf = append(buf, '[')
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(sp.parent), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(sp.name), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, sp.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, sp.dur, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, sp.dur-sp.child, 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

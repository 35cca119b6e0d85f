package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration happens once, at component construction
// time, and panics on programmer errors (invalid or conflicting names) —
// exactly like failing to compile. Scraping is concurrent-safe with ongoing
// instrument updates; a scrape observes each atomic value at some instant
// during the render.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family is one metric family: a name, help text, a type, and its children
// (one per label combination; exactly one unlabeled child for plain
// instruments).
type family struct {
	name   string
	help   string
	kind   string // "counter", "gauge", "histogram"
	labels []string
	mu     sync.Mutex
	series map[string]*child // key: rendered sorted label string ("" unlabeled)
}

// child is one (labelset, instrument) pair.
type child struct {
	labels  string // pre-rendered `{a="x",b="y"}`, "" for unlabeled
	counter *Counter
	gauge   *Gauge
	hist    *Histogram
	fn      func() int64 // CounterFunc / GaugeFunc
}

// validName applies the Prometheus identifier grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* (label names additionally forbid ':' and the
// reserved "__" prefix, checked by the callers that register labels).
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// register creates (or fetches, for Vec children) the family, enforcing that
// a name is only ever registered with one type, help and label set.
func (r *Registry) register(name, help, kind string, labels []string) *family {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) || strings.Contains(l, ":") || strings.HasPrefix(l, "__") {
			panic(fmt.Sprintf("obs: invalid label name %q of metric %q", l, name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.help != help || !equalStrings(f.labels, labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different type, help or label set", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, series: make(map[string]*child)}
	r.families[name] = f
	return f
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// labelKey renders a label set `{a="x",b="y"}` with the names in sorted
// order, so a child's identity (and its render order) is independent of the
// declaration order of its Vec.
func labelKey(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for %d label names", len(values), len(names)))
	}
	idx := make([]int, len(names))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return names[idx[a]] < names[idx[b]] })
	var b strings.Builder
	b.WriteByte('{')
	for i, j := range idx {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[j])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[j]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabel(s string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes help text: backslash and newline.
func escapeHelp(s string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

// childFor returns the family's child for the given label values, creating
// it on first use.
func (f *family) childFor(values []string, mk func() *child) *child {
	key := ""
	if len(f.labels) > 0 {
		key = labelKey(f.labels, values)
	} else if len(values) > 0 {
		panic(fmt.Sprintf("obs: label values for unlabeled metric %q", f.name))
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[key]; ok {
		return c
	}
	c := mk()
	c.labels = key
	f.series[key] = c
	return c
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, "counter", nil)
	return f.childFor(nil, func() *child { return &child{counter: &Counter{}} }).counter
}

// CounterFunc registers a counter whose value is computed at scrape time —
// the bridge for pre-existing atomic counters (service.Stats) that should
// not be double-counted into a second instrument.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	f := r.register(name, help, "counter", nil)
	f.childFor(nil, func() *child { return &child{fn: fn} })
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	f := r.register(name, help, "gauge", nil)
	f.childFor(nil, func() *child { return &child{fn: fn} })
}

// CounterVec is a counter family with labels. Resolve children once with
// With at construction time; With takes a lock and may allocate, the
// returned *Counter never does.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.register(name, help, "counter", labelNames)}
}

// With returns the child counter for the given label values (in the label
// order of the registration), creating it on first use.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return v.f.childFor(labelValues, func() *child { return &child{counter: &Counter{}} }).counter
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labelNames ...string) *GaugeVec {
	return &GaugeVec{f: r.register(name, help, "gauge", labelNames)}
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return v.f.childFor(labelValues, func() *child { return &child{gauge: &Gauge{}} }).gauge
}

// HistogramVec is a histogram family with labels; every child shares the
// family's bucket bounds.
type HistogramVec struct {
	f      *family
	bounds []float64
}

// HistogramVec registers a labelled histogram family with the given upper
// bounds (nil = DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	if bounds == nil {
		bounds = DefLatencyBuckets()
	}
	return &HistogramVec{f: r.register(name, help, "histogram", labelNames), bounds: bounds}
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return v.f.childFor(labelValues, func() *child { return &child{hist: newHistogram(v.bounds)} }).hist
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4): families in sorted name order, children in sorted label
// order — two scrapes of the same state are byte-identical.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	families := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		families = append(families, r.families[name])
	}
	r.mu.Unlock()

	for _, f := range families {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	f.mu.Lock()
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	children := make([]*child, 0, len(keys))
	sort.Strings(keys)
	for _, k := range keys {
		children = append(children, f.series[k])
	}
	f.mu.Unlock()

	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
		return err
	}
	for _, c := range children {
		if err := c.writeText(w, f.name); err != nil {
			return err
		}
	}
	return nil
}

func (c *child) writeText(w io.Writer, name string) error {
	switch {
	case c.counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.counter.Value())
		return err
	case c.gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.gauge.Value())
		return err
	case c.fn != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, c.labels, c.fn())
		return err
	case c.hist != nil:
		return c.writeHistogram(w, name)
	}
	return nil
}

// writeHistogram renders the cumulative buckets, sum and count. The bucket
// lines splice the le label into the child's label set (which is sorted and
// pre-rendered; le is appended last, matching the fixed bound order rather
// than resorting per line — bucket order is by bound, as the format
// requires).
func (c *child) writeHistogram(w io.Writer, name string) error {
	h := c.hist
	inner := strings.TrimSuffix(strings.TrimPrefix(c.labels, "{"), "}")
	bucketLabels := func(le string) string {
		if inner == "" {
			return `{le="` + le + `"}`
		}
		return "{" + inner + `,le="` + le + `"}`
	}
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		le := strconv.FormatFloat(b, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels(le), cum); err != nil {
			return err
		}
	}
	cum += h.buckets[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketLabels("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, c.labels, strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, c.labels, h.Count())
	return err
}

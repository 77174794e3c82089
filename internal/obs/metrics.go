package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter — the hot-path
// primitive the monitor's verdict and fetch tallies are built on. The
// zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Reset zeroes the counter (between runs; not atomic with respect to
// concurrent Adds, which is acceptable for run boundaries).
func (c *Counter) Reset() { c.v.Store(0) }

// KeyedCounter is a set of counters keyed by string (SecReq IDs,
// transition labels, fault kinds). Increments are lock-free after the
// first Add for a key.
type KeyedCounter struct {
	m sync.Map // string -> *atomic.Uint64
}

// Add increments the counter for key by n.
func (k *KeyedCounter) Add(key string, n uint64) {
	if c, ok := k.m.Load(key); ok {
		c.(*atomic.Uint64).Add(n)
		return
	}
	c, _ := k.m.LoadOrStore(key, new(atomic.Uint64))
	c.(*atomic.Uint64).Add(n)
}

// Value returns the count for key (zero when never incremented).
func (k *KeyedCounter) Value(key string) uint64 {
	if c, ok := k.m.Load(key); ok {
		return c.(*atomic.Uint64).Load()
	}
	return 0
}

// Snapshot returns a copy of all counters.
func (k *KeyedCounter) Snapshot() map[string]uint64 {
	out := make(map[string]uint64)
	k.m.Range(func(key, val any) bool {
		out[key.(string)] = val.(*atomic.Uint64).Load()
		return true
	})
	return out
}

// Reset zeroes every counter.
func (k *KeyedCounter) Reset() {
	k.m.Range(func(_, val any) bool {
		val.(*atomic.Uint64).Store(0)
		return true
	})
}

// Label is one name="value" pair on a metric sample.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Registry collects metric producers and renders them in the Prometheus
// text exposition format. Producers are closures invoked at scrape time,
// so the registry holds no copies of hot-path state — it reads the same
// atomic counters the monitor maintains (one source of truth).
type Registry struct {
	mu         sync.Mutex
	collectors []func(w *MetricsWriter)
	constLbls  []Label
}

// Collect registers a producer invoked on every scrape.
func (r *Registry) Collect(f func(w *MetricsWriter)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// SetConstLabels attaches a constant label set to every sample the
// registry renders — histogram _bucket/_sum/_count series included. A
// fleet member identifies itself this way (instance="m-01") without any
// producer knowing it runs in a fleet. Labels are sorted by name; a
// per-sample label with the same name wins over the constant.
func (r *Registry) SetConstLabels(labels ...Label) {
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	r.mu.Lock()
	r.constLbls = sorted
	r.mu.Unlock()
}

// ConstLabels returns the registry's constant label set (nil when unset).
func (r *Registry) ConstLabels() []Label {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Label, len(r.constLbls))
	copy(out, r.constLbls)
	return out
}

// Render produces the full exposition document.
func (r *Registry) Render() string {
	r.mu.Lock()
	collectors := make([]func(w *MetricsWriter), len(r.collectors))
	copy(collectors, r.collectors)
	constLbls := r.constLbls
	r.mu.Unlock()
	w := &MetricsWriter{seen: make(map[string]bool), constLbls: constLbls}
	for _, f := range collectors {
		f(w)
	}
	return w.sb.String()
}

// Handler serves the registry at any path (mount it on /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(r.Render()))
	})
}

// MetricsWriter accumulates exposition lines for one scrape. HELP/TYPE
// headers are emitted once per metric name regardless of how many
// producers contribute samples to it.
type MetricsWriter struct {
	sb        strings.Builder
	seen      map[string]bool
	constLbls []Label
}

// withConst merges the writer's constant labels into a sample's label
// set. Per-sample labels shadow a constant of the same name.
func (w *MetricsWriter) withConst(labels []Label) []Label {
	if len(w.constLbls) == 0 {
		return labels
	}
	merged := make([]Label, 0, len(labels)+len(w.constLbls))
	merged = append(merged, labels...)
	for _, c := range w.constLbls {
		shadowed := false
		for _, l := range labels {
			if l.Name == c.Name {
				shadowed = true
				break
			}
		}
		if !shadowed {
			merged = append(merged, c)
		}
	}
	return merged
}

// header writes the # HELP / # TYPE preamble once per name.
func (w *MetricsWriter) header(name, help, typ string) {
	if w.seen[name] {
		return
	}
	w.seen[name] = true
	fmt.Fprintf(&w.sb, "# HELP %s %s\n", name, help)
	fmt.Fprintf(&w.sb, "# TYPE %s %s\n", name, typ)
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// labelString renders {a="b",c="d"} (empty string for no labels).
func labelString(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + `="` + escapeLabel(l.Value) + `"`
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// formatValue renders a sample value; integral floats print without an
// exponent so counter samples stay exact and diff-friendly.
func formatValue(v float64) string {
	if v == float64(uint64(v)) {
		return fmt.Sprintf("%d", uint64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Counter emits one counter sample.
func (w *MetricsWriter) Counter(name, help string, value float64, labels ...Label) {
	w.header(name, help, "counter")
	fmt.Fprintf(&w.sb, "%s%s %s\n", name, labelString(w.withConst(labels)), formatValue(value))
}

// Gauge emits one gauge sample.
func (w *MetricsWriter) Gauge(name, help string, value float64, labels ...Label) {
	w.header(name, help, "gauge")
	fmt.Fprintf(&w.sb, "%s%s %s\n", name, labelString(w.withConst(labels)), formatValue(value))
}

// KeyedCounter emits one counter sample per key of kc, with the key as
// the given label name. Keys are sorted for a stable document.
func (w *MetricsWriter) KeyedCounter(name, help string, kc *KeyedCounter, labelName string, labels ...Label) {
	snap := kc.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		w.Counter(name, help, float64(snap[k]), append([]Label{L(labelName, k)}, labels...)...)
	}
}

// Histogram emits the cumulative-bucket representation of h under name
// (with _bucket/_sum/_count suffixes, le labels in seconds).
func (w *MetricsWriter) Histogram(name, help string, h *Histogram, labels ...Label) {
	w.header(name, help, "histogram")
	snap := h.Snapshot()
	cum := uint64(0)
	for i, bound := range snap.Bounds {
		cum += snap.Counts[i]
		ls := w.withConst(append([]Label{L("le", formatLe(bound))}, labels...))
		fmt.Fprintf(&w.sb, "%s_bucket%s %d\n", name, labelString(ls), cum)
	}
	cum += snap.Counts[len(snap.Bounds)]
	ls := w.withConst(append([]Label{L("le", "+Inf")}, labels...))
	fmt.Fprintf(&w.sb, "%s_bucket%s %d\n", name, labelString(ls), cum)
	fmt.Fprintf(&w.sb, "%s_sum%s %g\n", name, labelString(w.withConst(labels)), snap.Sum)
	fmt.Fprintf(&w.sb, "%s_count%s %d\n", name, labelString(w.withConst(labels)), snap.Count)
}

// formatLe renders a bucket bound without trailing zeros.
func formatLe(v float64) string {
	return fmt.Sprintf("%g", v)
}

package obs

import (
	"strings"
	"sync"
)

// Labeled counter families give counters one dimension of attribution
// (`slicache.hits{bean=quote}`) without pulling in a full label model.
// Each (family, value) child is an ordinary registry counter whose name
// embeds the label, so snapshots, diffs and the text/JSON output handle
// labeled children with no extra code; SplitLabel parses the embedded
// label back out for a reader that wants one family's children.
//
// Cardinality is bounded per family: after MaxLabelValues distinct
// values, further values collapse into the reserved "other" child, so a
// bug that labels by an unbounded dimension (user ID, session ID)
// degrades accounting instead of exhausting memory.

// MaxLabelValues is the per-family bound on distinct label values; the
// value after the last slot is folded into LabelOverflow.
const MaxLabelValues = 32

// LabelOverflow is the reserved label value absorbing observations once
// a family exceeds MaxLabelValues distinct values.
const LabelOverflow = "other"

// LabeledCounter is a counter family keyed by one label dimension.
type LabeledCounter struct {
	r    *Registry
	base string
	key  string

	mu       sync.RWMutex
	children map[string]*Counter // by sanitised label value
}

// LabeledCounter returns the counter family registered under base with
// the given label key, creating it on first use. Calling again with the
// same base returns the same family (the label key of the first call
// wins).
func (r *Registry) LabeledCounter(base, key string) *LabeledCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.labeledCounters[base]
	if f == nil {
		f = &LabeledCounter{r: r, base: base, key: key, children: make(map[string]*Counter)}
		r.labeledCounters[base] = f
	}
	return f
}

// With returns the child counter for one label value, creating it on
// first use. Beyond MaxLabelValues distinct values the overflow child is
// returned instead. Children are keyed by sanitised value, so a value
// that is already clean and already has a child — every call but the
// first on a hot path — is one lookup under the read lock; anything else
// is sanitised and resolved under the write lock.
func (f *LabeledCounter) With(value string) *Counter {
	f.mu.RLock()
	c, ok := f.children[value]
	f.mu.RUnlock()
	if ok {
		return c
	}
	value = sanitizeLabelValue(value)
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok = f.children[value]
	if !ok {
		if len(f.children) >= MaxLabelValues && value != LabelOverflow {
			value = LabelOverflow
			if c, ok = f.children[value]; ok {
				return c
			}
		}
		c = f.r.Counter(labelName(f.base, f.key, value))
		f.children[value] = c
	}
	return c
}

// Base returns the family's base metric name.
func (f *LabeledCounter) Base() string { return f.base }

// Key returns the family's label key.
func (f *LabeledCounter) Key() string { return f.key }

// labelName embeds one label pair in a metric name: base{key=value}.
func labelName(base, key, value string) string {
	return base + "{" + key + "=" + value + "}"
}

// SplitLabel parses a metric name minted by labelName back into its
// parts. Plain (unlabeled) names return ok == false with base set to
// the whole name.
func SplitLabel(name string) (base, key, value string, ok bool) {
	if !strings.HasSuffix(name, "}") {
		return name, "", "", false
	}
	open := strings.IndexByte(name, '{')
	if open < 1 {
		return name, "", "", false
	}
	pair := name[open+1 : len(name)-1]
	eq := strings.IndexByte(pair, '=')
	if eq < 1 {
		return name, "", "", false
	}
	return name[:open], pair[:eq], pair[eq+1:], true
}

// sanitizeLabelValue keeps label values unambiguous inside embedded
// names: the delimiter
// characters, quotes, and whitespace become '_', and an empty value
// becomes "none".
func sanitizeLabelValue(v string) string {
	if v == "" {
		return "none"
	}
	var b strings.Builder
	for _, r := range v {
		switch {
		case r == '{' || r == '}' || r == '=' || r == '"' || r == ',' || r == '\\' || r <= ' ':
			b.WriteByte('_')
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

package obs

// ring is the bounded log behind EventLog and SpanLog. It holds no
// backing array until its first record, when it allocates all size
// records at once; from then on each record overwrites the oldest, and
// the eviction is counted. A process that never records pays nothing.
// Callers hold their own lock.
type ring[T any] struct {
	buf     []T // nil until the first record, then size records
	size    int
	next    int
	full    bool
	dropped uint64
}

func newRing[T any](size int) ring[T] {
	if size <= 0 {
		size = 4096
	}
	return ring[T]{size: size}
}

func (r *ring[T]) add(v T) {
	if r.buf == nil {
		r.buf = make([]T, r.size)
	}
	if r.full {
		r.dropped++
	}
	r.buf[r.next] = v
	r.next++
	if r.next == r.size {
		r.next, r.full = 0, true
	}
}

// snapshot copies the ring oldest-first (nil when it is empty).
func (r *ring[T]) snapshot() []T {
	var out []T
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

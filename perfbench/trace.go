package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made (or one call the program
// made into a wrapper the benchmark installed). Parent is the index of
// the enclosing span, -1 for a root; Op is the op id the span belongs
// to (-1 for set-up).
type span struct {
	Name       string
	Start, End time.Time
	Parent     int
	Op         int
}

// tracer keeps spans in memory for the traced run. A nil *tracer is
// the untraced run: every method is a no-op, so call sites need no
// branches.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// cur is the span the next wrapper-side span hangs under: the
	// benchmark's single caller goroutine sets it around each call into
	// the program, and store/FS wrappers running on the program's own
	// goroutines read it.
	cur atomic.Int64
	op  atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{}
	t.cur.Store(-1)
	t.op.Store(-1)
	return t
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: time.Now(), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// open begins a span under the current one.
func (t *tracer) open(name string) int {
	if t == nil {
		return -1
	}
	return t.begin(name, int(t.cur.Load()), int(t.op.Load()))
}

// scope is an entered span and the parent and op it displaced.
type scope struct{ idx, prevCur, prevOp int }

// enter opens a span for op and makes it the current parent for
// wrapper-side spans; leave closes it and restores what it displaced.
func (t *tracer) enter(name string, op int) scope {
	if t == nil {
		return scope{-1, -1, -1}
	}
	s := scope{prevCur: int(t.cur.Load()), prevOp: int(t.op.Load())}
	s.idx = t.begin(name, s.prevCur, op)
	t.cur.Store(int64(s.idx))
	t.op.Store(int64(op))
	return s
}

func (t *tracer) leave(s scope) {
	if t == nil {
		return
	}
	t.end(s.idx)
	t.cur.Store(int64(s.prevCur))
	t.op.Store(int64(s.prevOp))
}

// child records a completed span under whatever span is current — how
// the store and filesystem wrappers attribute calls made on the
// program's goroutines to the op in flight.
func (t *tracer) child(name string, start, end time.Time) {
	if t == nil {
		return
	}
	parent, op := int(t.cur.Load()), int(t.op.Load())
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	t.mu.Unlock()
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for every span, its duration minus the part of
// its interval that its direct children cover. Children may overlap
// each other (the two nodes save in parallel) or run past the parent's
// end (a sweep finishing after the reply); only their union inside the
// parent's interval counts, so self + covered == duration exactly.
func selfTimes(spans []span) (self, covered []time.Duration) {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self = make([]time.Duration, len(spans))
	covered = make([]time.Duration, len(spans))
	for i, s := range spans {
		covered[i] = unionWithin(spans, kids[i], s.Start, s.End)
		self[i] = s.End.Sub(s.Start) - covered[i]
	}
	return self, covered
}

// unionWithin is the length of the union of the given spans' intervals
// clipped to [lo, hi].
func unionWithin(spans []span, idx []int, lo, hi time.Time) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := spans[i].Start, spans[i].End
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for k, v := range ivs {
		switch {
		case k == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int
	Total   time.Duration
	Self    time.Duration
	Covered time.Duration
	Mean    time.Duration
}

// aggregate groups the spans of ops >= minOp by name.
func aggregate(spans []span, minOp int) map[string]*spanStat {
	self, covered := selfTimes(spans)
	out := map[string]*spanStat{}
	for i, s := range spans {
		if s.Op < minOp {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStat{}
			out[s.Name] = st
		}
		st.Count++
		st.Total += s.End.Sub(s.Start)
		st.Self += self[i]
		st.Covered += covered[i]
	}
	for _, st := range out {
		st.Mean = st.Total / time.Duration(st.Count)
	}
	return out
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// A span is one timed call into a layer, recorded by the decorators in
// decorate.go from this directory only (the program itself carries no
// timers). Start and End are nanoseconds since the recorder was
// created; Parent indexes the enclosing span in the recorder (-1 for a
// root); Run groups the spans of one engine run.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the benchmark writes them out.
// Kernel spans arrive from pool workers and mpx ranks concurrently, so
// appends take a mutex; every other caller is the single engine loop.
type recorder struct {
	t0  time.Time
	run int32

	mu    sync.Mutex
	spans []span
	// adopted is how many spans earlier adopt calls have already seen.
	adopted int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now is the recorder's clock: monotonic nanoseconds since creation.
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// add records a finished span with no parent yet; parents are assigned
// by containment once the run's phase spans are known (see adopt).
func (r *recorder) add(name string, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: -1, Run: r.run})
	r.mu.Unlock()
}

// time runs fn inside a span.
func (r *recorder) time(name string, fn func()) {
	start := r.now()
	fn()
	r.add(name, start, r.now())
}

// adopt appends the parent spans of one run and points every so far
// parentless span of that run whose start lies inside a parent at it.
// The parents partition the run's timeline (the engine phases), so a
// child has at most one.
func (r *recorder) adopt(run int32, parents []span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := int32(len(r.spans))
	sort.Slice(parents, func(i, j int) bool { return parents[i].Start < parents[j].Start })
	for i := r.adopted; i < len(r.spans); i++ {
		s := &r.spans[i]
		if s.Run != run || s.Parent >= 0 {
			continue
		}
		k := sort.Search(len(parents), func(k int) bool { return parents[k].Start > s.Start }) - 1
		if k >= 0 && s.Start < parents[k].End {
			s.Parent = base + int32(k)
		}
	}
	r.spans = append(r.spans, parents...)
	r.adopted = len(r.spans)
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// interval is a half-open time range [lo, hi).
type interval struct{ lo, hi int64 }

// unionLen is the total length covered by the intervals, counting
// overlapping stretches once — kernels run concurrently on the pool
// and in mpx ranks, so summing their durations would overstate what
// they cover of the enclosing span.
func unionLen(iv []interval) int64 {
	if len(iv) == 0 {
		return 0
	}
	s := append([]interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	var total int64
	cur := s[0]
	for _, x := range s[1:] {
		if x.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = x
			continue
		}
		if x.hi > cur.hi {
			cur.hi = x.hi
		}
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the union of its children's
// intervals, each clipped to the span.
func selfTime(s span, children []span) int64 {
	iv := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, interval{lo, hi})
		}
	}
	return s.dur() - unionLen(iv)
}

// seconds converts recorder nanoseconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }

package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into the program: name, start and end (ns since the recorder's
// epoch), and the span that caused it (-1 for a root).
type span struct {
	Name   string
	Parent int
	Start  int64
	End    int64
}

// spanRecorder keeps spans in memory and dumps them when the run ends.
// It lives entirely in bench/: no span is recorded inside internal/.
// A nil recorder is the untraced run: every method is a no-op, so the
// measured code path is identical except for the recording itself.
type spanRecorder struct {
	workload string
	epoch    time.Time
	mu       sync.Mutex
	spans    []span
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, epoch: time.Now()}
}

// begin opens a span and returns its id (-1 on a nil recorder).
func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere (iteration
// boundaries come from hook timestamps, known only after the fact).
func (r *spanRecorder) add(name string, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds()})
	return len(r.spans) - 1
}

// duration of span id in ns.
func (r *spanRecorder) duration(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].End - r.spans[id].Start
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its child spans cover (overlapping children are
// counted once; a child reaching outside its parent is clipped).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, hi := int64(0), s.Start
		for _, k := range kids {
			lo, end := spans[k].Start, spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > s.End {
				end = s.End
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[i] -= covered
	}
	return self
}

// selfByName sums self time (ns) and counts spans per span name.
func (r *spanRecorder) selfByName() (self map[string]int64, count map[string]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := selfTimes(r.spans)
	self, count = map[string]int64{}, map[string]int{}
	for i, s := range r.spans {
		self[s.Name] += st[i]
		count[s.Name]++
	}
	return self, count
}

// dump writes the spans as compact JSON: a name table plus one
// [name, parent, start_ns, end_ns] row per span.
func (r *spanRecorder) dump(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	index := map[string]int{}
	var names []string
	rows := make([][4]int64, len(r.spans))
	for i, s := range r.spans {
		id, ok := index[s.Name]
		if !ok {
			id = len(names)
			index[s.Name] = id
			names = append(names, s.Name)
		}
		rows[i] = [4]int64{int64(id), int64(s.Parent), s.Start, s.End}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{
		"workload": r.workload, "columns": []string{"name", "parent", "start_ns", "end_ns"},
		"names": names, "spans": rows,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

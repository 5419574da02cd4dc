package main

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// request share Req; Parent is the index of the span that caused it, -1 for
// a root.
type span struct {
	Name    string `json:"name"`
	Req     int64  `json:"req"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"startNs"`
	EndNs   int64  `json:"endNs"`
}

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

type spanKey struct{}

type spanRef struct {
	req int64
	id  int
}

// root opens a request's root span and returns a context carrying it, so
// that calls made on the request's behalf nest under it.
func (r *recorder) root(ctx context.Context, name string, req int64) (context.Context, func()) {
	return r.open(ctx, name, spanRef{req: req, id: -1})
}

// child opens a span under the span ctx carries.
func (r *recorder) child(ctx context.Context, name string) (context.Context, func()) {
	ref, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		ref = spanRef{req: -1, id: -1}
	}
	return r.open(ctx, name, ref)
}

func (r *recorder) open(ctx context.Context, name string, parent spanRef) (context.Context, func()) {
	start := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Req: parent.req, ID: id, Parent: parent.id, StartNs: start, EndNs: start})
	r.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, spanRef{req: parent.req, id: id}), func() {
		end := time.Since(r.epoch).Nanoseconds()
		r.mu.Lock()
		r.spans[id].EndNs = end
		r.mu.Unlock()
	}
}

// now is the recorder's clock: nanoseconds since it was made.
func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// add records a span timed by the caller (on the recorder's clock) under the
// span ctx carries.
func (r *recorder) add(ctx context.Context, name string, start, end int64) {
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		parent = spanRef{req: -1, id: -1}
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Req: parent.req, ID: len(r.spans), Parent: parent.id, StartNs: start, EndNs: end})
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (children may overlap: a hedged request has two).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].StartNs, s.StartNs), min(spans[k].EndNs, s.EndNs)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, curLo, curHi := int64(0), int64(-1), int64(-1)
		for _, v := range iv {
			if v[0] > curHi {
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			} else if v[1] > curHi {
				curHi = v[1]
			}
		}
		covered += curHi - curLo
		self[i] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}

// layerTimes aggregates spans by name (inclusive and self time) and by
// module, the name's prefix before the first dot (self time).
type layerTimes struct {
	total, self, module map[string]time.Duration
	count               map[string]int
}

func aggregate(spans []span) layerTimes {
	lt := layerTimes{
		total:  make(map[string]time.Duration),
		self:   make(map[string]time.Duration),
		module: make(map[string]time.Duration),
		count:  make(map[string]int),
	}
	self := selfTimes(spans)
	for i, s := range spans {
		lt.total[s.Name] += time.Duration(s.EndNs - s.StartNs)
		lt.self[s.Name] += self[i]
		lt.count[s.Name]++
		mod, _, _ := strings.Cut(s.Name, ".")
		lt.module[mod] += self[i]
	}
	return lt
}

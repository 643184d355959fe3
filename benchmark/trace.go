package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one operation share Op; Parent is the
// span that caused this one (0 for the operation's root span). Times are
// nanoseconds since the tracer was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"` // "<layer>.<call>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0     time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// opTrace is the tracing handle of one operation. The zero value records
// nothing, so untraced operations run the same code without the cost.
type opTrace struct {
	tr *tracer
	op uint64
}

// traceOp returns the handle for operation op: recording when tr is set
// and the caller sampled this operation, the zero handle otherwise. A
// traced run samples every other operation (fewer where operations take
// microseconds); the ones left out are the base trace.overhead_share is
// measured against.
func traceOp(tr *tracer, op uint64, sampled bool) opTrace {
	if tr == nil || !sampled {
		return opTrace{}
	}
	return opTrace{tr: tr, op: op}
}

func (o opTrace) on() bool { return o.tr != nil }

// openSpan is a span that has started; end records it.
type openSpan struct {
	o     opTrace
	id    uint64
	par   uint64
	name  string
	start time.Time
}

// begin starts a span under parent (0 for the root span of the operation).
func (o opTrace) begin(parent uint64, name string) openSpan {
	if o.tr == nil {
		return openSpan{}
	}
	return openSpan{o: o, id: o.tr.nextID.Add(1), par: parent, name: name, start: time.Now()}
}

func (s openSpan) end() {
	tr := s.o.tr
	if tr == nil {
		return
	}
	end := time.Now()
	tr.mu.Lock()
	tr.spans = append(tr.spans, span{
		ID: s.id, Parent: s.par, Op: s.o.op, Name: s.name,
		Start: s.start.Sub(tr.t0).Nanoseconds(), End: end.Sub(tr.t0).Nanoseconds(),
	})
	tr.mu.Unlock()
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Layer   string  `json:"layer"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes computes each layer's self time: a span's duration minus the
// part of its interval that its direct child spans cover (children clipped
// to the parent, overlapping children counted once), summed by the layer
// prefix of the span name.
func selfTimes(spans []span) []layerTime {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		r := rows[layer]
		if r == nil {
			r = &layerTime{Layer: layer}
			rows[layer] = r
		}
		dur := s.End - s.Start
		r.Spans++
		r.TotalMS += float64(dur) / 1e6
		r.SelfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the kids' intervals inside p.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	at := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, at), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			at = hi
		}
	}
	return total
}

// writeJSONL writes the spans one JSON object per line.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace file %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace file %s: %w", path, err)
	}
	return f.Close()
}

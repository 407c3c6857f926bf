package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the harness made into a layer of the program.
// Spans are recorded from outside the program, around its public entry
// points; what happens inside a call is visible only through the
// counters attached at the same boundary.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Op identifies the operation the span belongs to (a RunBatch call
	// index, a request index); spans of one operation share it.
	Op      int   `json:"op"`
	StartNS int64 `json:"start_ns"` // since the trace epoch
	EndNS   int64 `json:"end_ns"`
	SelfNS  int64 `json:"self_ns"` // filled by finish
	// Attrs carries the counts taken at the same boundary.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// Tracer keeps spans in memory until the workload ends. A nil *Tracer
// records nothing, which is how the untraced phases run.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// add records a finished span and returns its id (0 on a nil tracer).
func (t *Tracer) add(name string, parent, op int, start, end time.Time, attrs map[string]any) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{
		ID: id, Parent: parent, Name: name, Op: op,
		StartNS: start.Sub(t.epoch).Nanoseconds(), EndNS: end.Sub(t.epoch).Nanoseconds(),
		Attrs: attrs,
	})
	return id
}

// timed runs fn inside a span and returns its duration.
func (t *Tracer) timed(name string, parent, op int, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.add(name, parent, op, start, end, nil)
	return end.Sub(start)
}

// selfTimes fills every span's self time: its duration minus the part
// of its interval that its direct children cover (children that overlap
// each other are counted once).
func selfTimes(spans []Span) {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	for i := range spans {
		s := &spans[i]
		iv := kids[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, edge := int64(0), s.StartNS
		for _, k := range iv {
			lo, hi := max(k[0], edge), min(k[1], s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.SelfNS = s.EndNS - s.StartNS - covered
	}
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string      `json:"workload"`
	Env      Environment `json:"env"`
	// SelfMSByName sums self time per span name: where the traced
	// phase's wall time went, by layer.
	SelfMSByName map[string]float64 `json:"self_ms_by_name"`
	Spans        []Span             `json:"spans"`
	// Tables holds the counters joined at the span boundaries: the
	// engine's per-instruction LayerTable, serve.Metrics snapshots.
	Tables map[string]any `json:"tables,omitempty"`
}

// write computes self times and writes the trace.
func (t *Tracer) write(path, workload string, env Environment, tables map[string]any) error {
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	selfTimes(spans)
	byName := map[string]float64{}
	for _, s := range spans {
		byName[s.Name] += float64(s.SelfNS) / 1e6
	}
	data, err := json.Marshal(traceFile{Workload: workload, Env: env, SelfMSByName: byName, Spans: spans, Tables: tables})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

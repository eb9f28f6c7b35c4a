package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync/atomic"
	"time"
)

// span is one timed call, recorded from outside the store: the driver stamps
// the clock around each public call. Parent links give round → txn|query →
// call; a layer's self time is its span minus the part its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since traceEpoch
	End    int64  `json:"end_ns"`
}

// tracer keeps one goroutine's spans in memory until the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	base  int         // first span ID, so two goroutines' tracers never collide
	on    atomic.Bool // toggled per round so one run yields traced and untraced rounds
	spans []span
}

// traceEpoch is shared so spans of both goroutines sit on one time axis.
var traceEpoch = time.Now()

func newTracer(base int) *tracer {
	t := &tracer{base: base, spans: make([]span, 0, 1<<16)}
	t.on.Store(true)
	return t
}

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) begin(name string, parent int) int {
	if !t.enabled() {
		return -1
	}
	id := t.base + len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(traceEpoch))})
	return id
}

// enable switches recording on or off and returns the previous setting.
func (t *tracer) enable(on bool) bool {
	if t == nil {
		return false
	}
	return t.on.Swap(on)
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id-t.base].End = int64(time.Since(traceEpoch))
	}
}

// durationsUs returns the durations of every finished span with the given
// name, in microseconds.
func (t *tracer) durationsUs(name string) []float64 {
	var out []float64
	for i := range t.spans {
		if s := &t.spans[i]; s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// writeTrace writes every tracer's spans to path, one JSON object per line.
func writeTrace(path string, tracers ...*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range tracers {
		if t == nil {
			continue
		}
		for i := range t.spans {
			if err := enc.Encode(&t.spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

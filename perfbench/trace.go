package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer. Parent links a
// call to the call that caused it (0 for none); Req groups the spans of one
// benchmark operation (one delta batch, one solve, one placement).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer is the
// untraced run: every method is a no-op, so the timed paths of an untraced
// run carry no recording code beyond one nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	from  int32 // spans with ids up to from are left out of the figures
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent int32, req int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// finish closes span id.
func (t *tracer) finish(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval the caller measured itself.
func (t *tracer) record(name string, parent int32, req int64, from, to time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: from.Sub(t.t0).Nanoseconds(), End: to.Sub(t.t0).Nanoseconds()})
}

// skip leaves every span recorded so far out of the figures (not out of
// the written file).
func (t *tracer) skip() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.from = int32(len(t.spans))
	t.mu.Unlock()
}

// closed returns the finished spans named name.
func (t *tracer) closed(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans[t.from:] {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the wall-clock of every finished span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.closed(name) {
		out = append(out, s.dur())
	}
	return out
}

// selfTimes returns, for every finished span named name, its duration minus
// the time its child spans cover. Children of one span never overlap here:
// the generator is a closed loop with one request in flight.
func (t *tracer) selfTimes(name string) []time.Duration {
	t.mu.Lock()
	child := map[int32]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.closed(name) {
		out = append(out, time.Duration(s.End-s.Start-child[s.ID]))
	}
	return out
}

// write stores every span as one JSON document under dir.
func (t *tracer) write(dir, file string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, file)
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}

// byteCounter is an http.RoundTripper that counts response-body bytes, the
// wire size of the epoch stream the routing client consumes.
type byteCounter struct {
	next  http.RoundTripper
	bytes atomic.Int64
}

func (c *byteCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.next.RoundTrip(r)
	if err == nil {
		resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.bytes}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

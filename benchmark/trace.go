package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark's own code
// around that call (nothing inside the program is instrumented). Spans of
// one rep or one request share Req; Parent is the ID of the enclosing span,
// 0 at the top. Times are nanoseconds since the tracer was created.
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	// Rank is the executing virtual CPU, on chunk spans only.
	Rank int `json:"rank,omitempty"`
}

func (s Span) dur() int64 { return s.EndNS - s.StartNS }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so traced and untraced reps run the same code.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Start opens a span and returns its ID (0 from a nil tracer).
func (t *Tracer) Start(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{
		ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: now,
	})
	return len(t.spans)
}

// End closes the span.
func (t *Tracer) End(id int) { t.EndRank(id, 0) }

// EndRank closes the span and tags it with the virtual CPU that ran it.
func (t *Tracer) EndRank(id, rank int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Rank = rank
	t.mu.Unlock()
}

// Len is the number of spans recorded so far.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Since returns a copy of the spans recorded after the first `first`.
func (t *Tracer) Since(first int) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans[first:]...)
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span { return t.Since(0) }

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Shape    Shape  `json:"host"`
	Spans    []Span `json:"spans"`
}

func writeJSONFile(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// covered returns how much of [lo, hi) the intervals cover, counting
// overlapping stretches once.
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, at := int64(0), lo
	for _, iv := range ivs {
		s, e := iv[0], iv[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			at = e
		}
	}
	return total
}

// selfTimes maps each span to its self time: its duration minus the part of
// its interval that its child spans cover.
func selfTimes(spans []Span) map[int]int64 {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(children[s.ID], s.StartNS, s.EndNS)
	}
	return self
}

// chunkOverlap reads the chunk spans of one traced loop run: the share of
// the time any chunk was running during which at least two were, and the
// gaps, in microseconds, between consecutive chunks on the same virtual CPU.
// Two CPUs kept busy give a share near 1; chunks that take turns give 0.
func chunkOverlap(chunks []Span) (share float64, gapsUS []float64) {
	type edge struct {
		at    int64
		delta int
	}
	var edges []edge
	byRank := map[int][]Span{}
	for _, c := range chunks {
		edges = append(edges, edge{c.StartNS, 1}, edge{c.EndNS, -1})
		byRank[c.Rank] = append(byRank[c.Rank], c)
	}
	// Ends sort before starts at the same instant: touching is not overlap.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return edges[i].delta < edges[j].delta
	})
	var busy, shared int64
	depth, last := 0, int64(0)
	for _, e := range edges {
		if depth >= 1 {
			busy += e.at - last
		}
		if depth >= 2 {
			shared += e.at - last
		}
		depth += e.delta
		last = e.at
	}
	if busy > 0 {
		share = float64(shared) / float64(busy)
	}
	for _, cs := range byRank {
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNS < cs[j].StartNS })
		for i := 1; i < len(cs); i++ {
			gapsUS = append(gapsUS, float64(cs[i].StartNS-cs[i-1].EndNS)/1e3)
		}
	}
	return share, gapsUS
}

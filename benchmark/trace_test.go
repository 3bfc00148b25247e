package main

import "testing"

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "acquire", StartNS: 10, EndNS: 30},
		{ID: 3, Parent: 1, Name: "run", StartNS: 30, EndNS: 80},
		{ID: 4, Parent: 3, Name: "fork", StartNS: 40, EndNS: 50},
		// Two children that overlap each other, one of them sticking out of
		// the parent: the covered stretch counts once, clipped.
		{ID: 5, Name: "loop", StartNS: 200, EndNS: 300},
		{ID: 6, Parent: 5, Name: "chunk", StartNS: 210, EndNS: 260},
		{ID: 7, Parent: 5, Name: "chunk", StartNS: 240, EndNS: 320},
	}
	want := map[int]int64{1: 30, 2: 20, 3: 40, 4: 10, 5: 10, 6: 50, 7: 80}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestChunkOverlap(t *testing.T) {
	// Rank 0 and rank 1 run side by side for 80 of the 120 ns any chunk runs.
	chunks := []Span{
		{Name: "chunk", Rank: 0, StartNS: 0, EndNS: 50},
		{Name: "chunk", Rank: 0, StartNS: 60, EndNS: 100},
		{Name: "chunk", Rank: 1, StartNS: 10, EndNS: 55},
		{Name: "chunk", Rank: 1, StartNS: 65, EndNS: 120},
	}
	share, gaps := chunkOverlap(chunks)
	// Busy: [0,55) and [60,120) = 115. Shared: [10,50) and [65,100) = 75.
	if want := 75.0 / 115.0; share != want {
		t.Errorf("overlap share %g, want %g", share, want)
	}
	if len(gaps) != 2 || gaps[0]+gaps[1] != 0.02 {
		t.Errorf("gaps %v us, want 0.01 and 0.01", gaps)
	}
	// Chunks that take turns do not overlap at all, even when they touch.
	turns := []Span{
		{Rank: 0, StartNS: 0, EndNS: 50}, {Rank: 1, StartNS: 50, EndNS: 100},
	}
	if share, _ := chunkOverlap(turns); share != 0 {
		t.Errorf("taking turns gave overlap %g", share)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Start("x", 0, 0)
	tr.End(id)
	tr.EndRank(id, 3)
	if id != 0 || tr.Len() != 0 || tr.Spans() != nil {
		t.Error("a nil tracer recorded something")
	}
}

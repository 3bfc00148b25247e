package gbuf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mem"
)

// Finalize recycles buffer storage without scrubbing it (bitmap pages keep
// their data and mark bytes, openaddr slots their data words), so what a
// speculation sees must never depend on what an earlier one on the same
// instance left behind. TestReusedBackendMatchesFresh is that property: one
// backend instance lives through many consecutive speculations, and each is
// replayed step for step on a newly constructed instance over a twin arena.

const reuseSpeculations = 1200

// reuseStep is one seeded access: word, sub-word or range; load, store or
// constant-fill store.
type reuseStep struct {
	kind   int
	p      mem.Addr // word-aligned
	sub    mem.Addr // inside p's word, aligned to size
	size   int      // 1, 2 or 4
	nWords int
	v      uint64
	src    []byte
}

func genReuseStep(rng *rand.Rand) reuseStep {
	const arenaWords = bulkArenaBytes / mem.Word // ten bitmap pages
	word := 1 + rng.Intn(arenaWords-1)
	// Ranges of up to 80 words, clipped at the arena's end, cross pages.
	maxWords := arenaWords - word
	if maxWords > 80 {
		maxWords = 80
	}
	s := reuseStep{
		kind:   rng.Intn(7),
		p:      mem.Addr(word * mem.Word),
		size:   1 << uint(rng.Intn(3)),
		nWords: 1 + rng.Intn(maxWords),
		v:      rng.Uint64(),
	}
	s.sub = s.p + mem.Addr(rng.Intn(mem.Word/s.size)*s.size)
	s.src = make([]byte, s.nWords*mem.Word)
	rng.Read(s.src)
	return s
}

// apply runs the step on be and returns all a caller observes of it: the
// status and, for loads, the bytes.
func (s reuseStep) apply(be Backend) (Status, []byte) {
	word := func(v uint64, st Status) (Status, []byte) {
		return st, binary.LittleEndian.AppendUint64(nil, v)
	}
	switch s.kind {
	case 0:
		return be.Store(s.p, mem.Word, s.v), nil
	case 1:
		return be.Store(s.sub, s.size, s.v), nil
	case 2:
		return be.StoreRange(s.p, s.src), nil
	case 3:
		return be.StoreRange(s.p, fillWords(make([]byte, s.nWords*mem.Word), s.v)), nil
	case 4:
		return word(be.Load(s.p, mem.Word))
	case 5:
		return word(be.Load(s.sub, s.size))
	default:
		dst := make([]byte, s.nWords*mem.Word)
		return be.LoadRange(s.p, dst), dst
	}
}

func TestReusedBackendMatchesFresh(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		rng := rand.New(rand.NewSource(11))
		arenaReused := newSeededArena(t, rng)
		arenaFresh := cloneArena(t, arenaReused)
		reused, err := NewBackend(arenaReused, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for spec := 0; spec < reuseSpeculations; spec++ {
			ctx := fmt.Sprintf("speculation %d", spec)
			fresh, err := NewBackend(arenaFresh, cfg)
			if err != nil {
				t.Fatal(err)
			}
			*reused.Counters() = Counters{}
			for op, nOps := 0, 1+rng.Intn(24); op < nOps; op++ {
				step := genReuseStep(rng)
				stR, gotR := step.apply(reused)
				stF, gotF := step.apply(fresh)
				if stR != stF || !bytes.Equal(gotR, gotF) {
					t.Fatalf("%s op %d (kind %d at %d/%d, size %d, %d words):\n reused (%v, %x)\n fresh  (%v, %x)",
						ctx, op, step.kind, step.p, step.sub, step.size, step.nWords, stR, gotR, stF, gotF)
				}
			}
			sameSets(t, reused, fresh, ctx)
			// Non-speculative interference, then the speculation ends: by
			// validate and commit two times in three, else it is discarded.
			for i := rng.Intn(3); i > 0; i-- {
				p := mem.Addr(mem.Word * (1 + rng.Intn(bulkArenaBytes/mem.Word-1)))
				v := rng.Uint64()
				arenaReused.WriteWord(p, v)
				arenaFresh.WriteWord(p, v)
			}
			if rng.Intn(3) > 0 {
				okR, okF := reused.Validate(), fresh.Validate()
				if okR != okF {
					t.Fatalf("%s: validate reused %v, fresh %v", ctx, okR, okF)
				}
				if okR {
					reused.Commit(nil)
					fresh.Commit(nil)
				}
			}
			sameSets(t, reused, fresh, ctx+" at its end")
			sameArenas(t, arenaReused, arenaFresh, ctx)
			reused.Finalize()
			if reused.ReadSetSize() != 0 || reused.WriteSetSize() != 0 || reused.MustStop() {
				t.Fatalf("%s: Finalize left state behind", ctx)
			}
		}
	})
}

// sameSets compares the set sizes, the stop flag and the counters of two
// backends that ran the same script.
func sameSets(t *testing.T, got, want Backend, ctx string) {
	t.Helper()
	if g, w := got.ReadSetSize(), want.ReadSetSize(); g != w {
		t.Fatalf("%s: read set %d words, want %d", ctx, g, w)
	}
	if g, w := got.WriteSetSize(), want.WriteSetSize(); g != w {
		t.Fatalf("%s: write set %d words, want %d", ctx, g, w)
	}
	if g, w := got.MustStop(), want.MustStop(); g != w {
		t.Fatalf("%s: MustStop %v, want %v", ctx, g, w)
	}
	if g, w := *got.Counters(), *want.Counters(); g != w {
		t.Fatalf("%s: counters\n got  %+v\n want %+v", ctx, g, w)
	}
}

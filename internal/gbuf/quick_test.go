package gbuf

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

// refBuffer is an obviously-correct model of the GlobalBuffer semantics:
// per-byte written map (write set), per-word read snapshots (read set), and
// a shadow of the arena for commit checking. Every registered backend must
// agree with it.
type refBuffer struct {
	arena   *mem.Arena
	written map[mem.Addr]byte   // byte address -> speculative value
	readSet map[mem.Addr]uint64 // word base -> snapshot
}

func newRefBuffer(a *mem.Arena) *refBuffer {
	return &refBuffer{arena: a, written: map[mem.Addr]byte{}, readSet: map[mem.Addr]uint64{}}
}

func (r *refBuffer) load(p mem.Addr, size int) uint64 {
	base := mem.WordBase(p)
	// Does the write set fully cover the access?
	covered := true
	for i := 0; i < size; i++ {
		if _, ok := r.written[p+mem.Addr(i)]; !ok {
			covered = false
			break
		}
	}
	if !covered {
		if _, ok := r.readSet[base]; !ok {
			r.readSet[base] = r.arena.ReadWord(base)
		}
	}
	var v uint64
	for i := size - 1; i >= 0; i-- {
		b, ok := r.written[p+mem.Addr(i)]
		if !ok {
			snap := r.readSet[base]
			b = byte(snap >> (8 * uint(mem.WordOffset(p+mem.Addr(i)))))
		}
		v = v<<8 | uint64(b)
	}
	return v
}

func (r *refBuffer) store(p mem.Addr, size int, v uint64) {
	for i := 0; i < size; i++ {
		r.written[p+mem.Addr(i)] = byte(v >> (8 * i))
	}
}

func (r *refBuffer) validate() bool {
	for base, snap := range r.readSet {
		if r.arena.ReadWord(base) != snap {
			return false
		}
	}
	return true
}

func (r *refBuffer) commit() {
	for p, b := range r.written {
		r.arena.WriteUint8(p, b)
	}
}

var accessSizes = []int{1, 2, 4, 8}

// oracleConfigs maps every registered backend to a config under which the
// test address range (a window of at most 200 words, see quickSlot)
// produces only OK statuses: a collision-free openaddr map; chain and bitmap
// have nothing to size and never return anything else. The
// overflow/conflict paths of openaddr are exercised separately by
// TestQuickOracleUnderConflicts.
func oracleConfigs() map[string]Config {
	return map[string]Config{
		"openaddr": {Backend: "openaddr", LogWords: 10, OverflowCap: 4},
		"chain":    {Backend: "chain"},
		"bitmap":   {Backend: "bitmap"},
	}
}

// quickArenaBytes is two bitmap pages.
const quickArenaBytes = 2 * mem.StampPageBytes

// quickSlot returns the address of a random word of an n-word window
// centred on the boundary between the two pages of a quickArenaBytes arena,
// so a property's accesses land on both sides of a page border.
func quickSlot(rng *rand.Rand, n int) mem.Addr {
	return mem.Addr(mem.Word * (pageWords - n/2 + rng.Intn(n)))
}

// TestOracleCoversEveryBackend forces whoever registers a new backend to
// add it to the cross-backend oracle configs.
func TestOracleCoversEveryBackend(t *testing.T) {
	cfgs := oracleConfigs()
	for _, name := range Backends() {
		if _, ok := cfgs[name]; !ok {
			t.Errorf("backend %q registered but missing from oracleConfigs", name)
		}
	}
	if len(cfgs) != len(Backends()) {
		t.Errorf("oracleConfigs has %d entries, %d backends registered", len(cfgs), len(Backends()))
	}
}

// forEachBackend runs a subtest per registered backend with its oracle
// config.
func forEachBackend(t *testing.T, fn func(t *testing.T, cfg Config)) {
	for _, name := range Backends() {
		cfg := oracleConfigs()[name]
		t.Run(name, func(t *testing.T) { fn(t, cfg) })
	}
}

// TestQuickBufferMatchesReference drives random aligned load/store sequences
// through every backend and the reference model, comparing every load
// value, the validation verdict under random non-speculative interference,
// and the committed arena image.
func TestQuickBufferMatchesReference(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			arenaA, _ := mem.NewArena(quickArenaBytes)
			arenaB, _ := mem.NewArena(quickArenaBytes)
			// Identical random initial contents.
			for i := 8; i < quickArenaBytes; i++ {
				v := byte(rng.Intn(256))
				arenaA.WriteUint8(mem.Addr(i), v)
				arenaB.WriteUint8(mem.Addr(i), v)
			}
			buf, err := NewBackend(arenaA, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefBuffer(arenaB)
			for op := 0; op < 300; op++ {
				size := accessSizes[rng.Intn(len(accessSizes))]
				p := quickSlot(rng, 200) + mem.Addr(rng.Intn(mem.Word/size)*size)
				if rng.Intn(2) == 0 {
					v := rng.Uint64()
					st := buf.Store(p, size, v)
					if st != OK {
						t.Logf("store status %v at op %d", st, op)
						return false
					}
					ref.store(p, size, v)
				} else {
					got, st := buf.Load(p, size)
					if st != OK {
						t.Logf("load status %v at op %d", st, op)
						return false
					}
					want := ref.load(p, size)
					if got != want {
						t.Logf("load mismatch at %d size %d: got %#x want %#x (op %d)", p, size, got, want, op)
						return false
					}
				}
			}
			if rs, ws := buf.ReadSetSize(), buf.WriteSetSize(); rs != len(ref.readSet) || ws*mem.Word < len(ref.written) {
				t.Logf("set sizes: real %d/%d words, ref %d reads / %d written bytes", rs, ws, len(ref.readSet), len(ref.written))
				return false
			}
			// Random non-speculative interference on both arenas.
			for i := 0; i < 20; i++ {
				p := quickSlot(rng, 200)
				v := rng.Uint64()
				arenaA.WriteWord(p, v)
				arenaB.WriteWord(p, v)
			}
			okA, okB := buf.Validate(), ref.validate()
			if okA != okB {
				t.Logf("validation disagreement: real=%v ref=%v", okA, okB)
				return false
			}
			// Commit both and compare the full arena images.
			buf.Commit(nil)
			ref.commit()
			for i := 8; i < quickArenaBytes; i++ {
				if arenaA.ReadUint8(mem.Addr(i)) != arenaB.ReadUint8(mem.Addr(i)) {
					t.Logf("arena divergence at byte %d", i)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickOracleUnderConflicts drives the openaddr backend with a tiny map
// so hash conflicts and overflow exhaustion actually happen, and checks that
// parked accesses (Conflict) still return reference values, that Full leaves
// the access unapplied, and that validation and the committed image agree
// with the reference regardless.
func TestQuickOracleUnderConflicts(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arenaA, _ := mem.NewArena(1 << 12)
		arenaB, _ := mem.NewArena(1 << 12)
		for i := 8; i < 1<<12; i++ {
			v := byte(rng.Intn(256))
			arenaA.WriteUint8(mem.Addr(i), v)
			arenaB.WriteUint8(mem.Addr(i), v)
		}
		// 4-word map over 50 slots: collisions are the common case.
		buf, err := NewBackend(arenaA, Config{Backend: "openaddr", LogWords: 2, OverflowCap: 8})
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefBuffer(arenaB)
		sawConflict, sawFull := false, false
		for op := 0; op < 200; op++ {
			size := accessSizes[rng.Intn(len(accessSizes))]
			slot := rng.Intn(50)
			p := mem.Addr(8 + slot*8 + rng.Intn(mem.Word/size)*size)
			if rng.Intn(2) == 0 {
				v := rng.Uint64()
				switch st := buf.Store(p, size, v); st {
				case OK, Conflict:
					if st == Conflict {
						sawConflict = true
						if !buf.MustStop() {
							t.Log("Conflict without MustStop")
							return false
						}
					}
					ref.store(p, size, v)
				case Full:
					sawFull = true // access not absorbed; the thread would roll back
				default:
					t.Logf("store status %v", st)
					return false
				}
			} else {
				got, st := buf.Load(p, size)
				switch st {
				case OK, Conflict:
					if st == Conflict {
						sawConflict = true
					}
					if want := ref.load(p, size); got != want {
						t.Logf("load mismatch at %d size %d: got %#x want %#x (st %v)", p, size, got, want, st)
						return false
					}
				case Full:
					sawFull = true
				default:
					t.Logf("load status %v", st)
					return false
				}
			}
			if sawFull {
				break // a real thread rolls back here; stop driving ops
			}
		}
		if c := buf.Counters(); sawConflict && c.Conflicts == 0 {
			t.Log("conflicts seen but not counted")
			return false
		}
		if sawFull {
			return true // rolled back: nothing further to compare
		}
		for i := 0; i < 10; i++ {
			p := mem.Addr(8 + rng.Intn(50)*8)
			v := rng.Uint64()
			arenaA.WriteWord(p, v)
			arenaB.WriteWord(p, v)
		}
		if okA, okB := buf.Validate(), ref.validate(); okA != okB {
			t.Logf("validation disagreement: real=%v ref=%v", okA, okB)
			return false
		}
		buf.Commit(nil)
		ref.commit()
		for i := 8; i < 1<<12; i++ {
			if arenaA.ReadUint8(mem.Addr(i)) != arenaB.ReadUint8(mem.Addr(i)) {
				t.Logf("arena divergence at byte %d", i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickValidationExactness: validation fails iff some read word differs
// from the arena — for every backend.
func TestQuickValidationExactness(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			arena, _ := mem.NewArena(quickArenaBytes)
			buf, err := NewBackend(arena, cfg)
			if err != nil {
				t.Fatal(err)
			}
			read := map[mem.Addr]uint64{}
			for i := 0; i < 50; i++ {
				p := quickSlot(rng, 100)
				v, _ := buf.Load(p, 8)
				if _, ok := read[p]; !ok {
					read[p] = v
				}
			}
			dirty := false
			for i := 0; i < 10; i++ {
				p := quickSlot(rng, 150)
				nv := rng.Uint64()
				old, wasRead := read[p]
				arena.WriteWord(p, nv)
				if wasRead && nv != old {
					dirty = true
				}
			}
			return buf.Validate() == !dirty
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuickCommitTouchesOnlyWrittenBytes: after arbitrary (sub-word) stores,
// commit changes exactly the stored byte addresses — the byte-mark contract
// every backend must honor.
func TestQuickCommitTouchesOnlyWrittenBytes(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			arena, _ := mem.NewArena(quickArenaBytes)
			for i := 8; i < quickArenaBytes; i++ {
				arena.WriteUint8(mem.Addr(i), byte(rng.Intn(256)))
			}
			before := make([]byte, quickArenaBytes)
			copy(before, arena.Snapshot(1, quickArenaBytes-1)) // offset by 1; index i-1 = addr i
			buf, err := NewBackend(arena, cfg)
			if err != nil {
				t.Fatal(err)
			}
			written := map[mem.Addr]byte{}
			for op := 0; op < 100; op++ {
				size := accessSizes[rng.Intn(len(accessSizes))]
				p := quickSlot(rng, 100) + mem.Addr(rng.Intn(mem.Word/size)*size)
				v := rng.Uint64()
				buf.Store(p, size, v)
				for i := 0; i < size; i++ {
					written[p+mem.Addr(i)] = byte(v >> (8 * i))
				}
			}
			buf.Commit(nil)
			for i := mem.Addr(8); i < quickArenaBytes; i++ {
				want, ok := written[i]
				if !ok {
					want = before[i-1]
				}
				if arena.ReadUint8(i) != want {
					t.Logf("byte %d: got %#x want %#x (written=%v)", i, arena.ReadUint8(i), want, ok)
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMisalignedRejectedByEveryBackend: misaligned or odd-sized accesses are
// rejected without perturbing the sets.
func TestMisalignedRejectedByEveryBackend(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		arena, _ := mem.NewArena(1 << 12)
		buf, err := NewBackend(arena, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, st := buf.Load(65, 8); st != Misaligned {
			t.Errorf("unaligned word load: %v", st)
		}
		if st := buf.Store(66, 4, 1); st != Misaligned {
			t.Errorf("unaligned dword store: %v", st)
		}
		if _, st := buf.Load(64, 3); st != Misaligned {
			t.Errorf("weird size load: %v", st)
		}
		if st := buf.Store(64, 0, 1); st != Misaligned {
			t.Errorf("zero size store: %v", st)
		}
		if buf.ReadSetSize() != 0 || buf.WriteSetSize() != 0 || buf.MustStop() {
			t.Error("misaligned access left buffered state behind")
		}
	})
}

// TestQuickFinalizeIsFresh: after random traffic and Finalize, every backend
// behaves as newly constructed.
func TestQuickFinalizeIsFresh(t *testing.T) {
	forEachBackend(t, func(t *testing.T, cfg Config) {
		rng := rand.New(rand.NewSource(7))
		arena, _ := mem.NewArena(quickArenaBytes)
		buf, err := NewBackend(arena, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			for op := 0; op < 120; op++ {
				size := accessSizes[rng.Intn(len(accessSizes))]
				p := quickSlot(rng, 100) + mem.Addr(rng.Intn(mem.Word/size)*size)
				if rng.Intn(2) == 0 {
					buf.Store(p, size, rng.Uint64())
				} else {
					buf.Load(p, size)
				}
			}
			buf.Finalize()
			if buf.ReadSetSize() != 0 || buf.WriteSetSize() != 0 || buf.MustStop() {
				t.Fatalf("round %d: finalize left state behind", round)
			}
			// Discarded writes must not leak: loads re-snapshot the arena.
			arena.WriteWord(64, uint64(round)+100)
			v, st := buf.Load(64, 8)
			if st != OK && st != Conflict {
				t.Fatalf("round %d: post-finalize load status %v", round, st)
			}
			if v != uint64(round)+100 {
				t.Fatalf("round %d: post-finalize load = %d", round, v)
			}
			buf.Finalize()
			buf.Commit(nil) // empty commit is a no-op
			if arena.ReadWord(64) != uint64(round)+100 {
				t.Fatalf("round %d: empty commit changed memory", round)
			}
		}
	})
}

package ir

import (
	"sync"
	"testing"
)

func TestArenaNilFallback(t *testing.T) {
	var a *Arena
	n := a.Bin(Plus, Long, a.SmallConst(3), a.NewDreg(Long, RegFP))
	if n.Op != Plus || n.Kids[0].Val != 3 || n.Kids[1].Op != Dreg {
		t.Fatalf("nil-arena tree wrong: %s", n)
	}
	if a.Allocated() != 0 || a.Slabs() != 0 {
		t.Fatalf("nil arena reports state: %d nodes, %d slabs", a.Allocated(), a.Slabs())
	}
	a.Reset()   // must not panic
	a.Release() // must not panic
}

func TestArenaMatchesHeapConstructors(t *testing.T) {
	a := NewTestArena()
	heap := Bin(Assign, Long, NewName(Long, "a"),
		Bin(Plus, Long, SmallConst(27), FrameRef(Byte, -4)))
	arena := a.Bin(Assign, Long, a.NewName(Long, "a"),
		a.Bin(Plus, Long, a.SmallConst(27), a.FrameRef(Byte, -4)))
	if !heap.Equal(arena) {
		t.Fatalf("arena tree differs:\nheap:  %s\narena: %s", heap, arena)
	}
	c := a.Clone(heap)
	if !c.Equal(heap) {
		t.Fatalf("arena clone differs: %s vs %s", c, heap)
	}
	c.Kids[0].Sym = "b"
	if heap.Kids[0].Sym != "a" {
		t.Fatal("arena clone aliases the original")
	}
}

// NewTestArena returns a fresh, unpooled arena for tests.
func NewTestArena() *Arena { return &Arena{} }

func TestArenaSlabGrowth(t *testing.T) {
	a := NewTestArena()
	var nodes []*Node
	const total = 3*nodeSlabLen + 17
	for i := 0; i < total; i++ {
		n := a.NewConst(Long, int64(i))
		nodes = append(nodes, n)
	}
	if got := a.Allocated(); got != total {
		t.Fatalf("Allocated = %d, want %d", got, total)
	}
	if got := a.Slabs(); got != 4 {
		t.Fatalf("Slabs = %d, want 4", got)
	}
	// Every handed-out node stays valid and distinct across growth.
	for i, n := range nodes {
		if n.Val != int64(i) {
			t.Fatalf("node %d corrupted: Val = %d", i, n.Val)
		}
	}
}

func TestArenaKidsCapacityIsExact(t *testing.T) {
	a := NewTestArena()
	l := a.Bin(Plus, Long, a.SmallConst(1), a.SmallConst(2))
	r := a.Bin(Plus, Long, a.SmallConst(3), a.SmallConst(4))
	if cap(l.Kids) != len(l.Kids) {
		t.Fatalf("kids cap %d != len %d", cap(l.Kids), len(l.Kids))
	}
	// Appending to one node's kids must reallocate, not clobber the
	// neighbor carved right after it from the same slab.
	l.Kids = append(l.Kids, a.SmallConst(99))
	if r.Kids[0].Val != 3 || r.Kids[1].Val != 4 {
		t.Fatalf("append clobbered neighbor kids: %s", r)
	}
}

func TestArenaOversizedKids(t *testing.T) {
	a := NewTestArena()
	big := a.MakeKids(kidSlabLen + 1)
	if len(big) != kidSlabLen+1 {
		t.Fatalf("oversized kids len = %d", len(big))
	}
}

// TestArenaResetReuse: Reset keeps every slab it grew (up to maxSlabs),
// leaves each used slot zeroed, and a refill walks the same slabs again.
func TestArenaResetReuse(t *testing.T) {
	a := NewTestArena()
	const total = 2*nodeSlabLen + 5
	for i := 0; i < total; i++ {
		n := a.NewName(Long, "sym")
		n.Kids = a.Kids(n, n)
	}
	slabs, kidSets := a.Slabs(), len(a.kidSets)
	if slabs != 3 || kidSets < 2 {
		t.Fatalf("before Reset: %d node slabs, %d kid slabs", slabs, kidSets)
	}
	a.Reset()
	if a.Allocated() != 0 {
		t.Fatalf("Allocated after Reset = %d", a.Allocated())
	}
	if a.Slabs() != slabs || len(a.kidSets) != kidSets {
		t.Fatalf("Reset kept %d node and %d kid slabs, want %d and %d", a.Slabs(), len(a.kidSets), slabs, kidSets)
	}
	// Every retained slot is zero: no stale Sym strings, Kids or child
	// pointers pin the previous compilation's garbage.
	for i, s := range a.slabs {
		for j := range s {
			if n := &s[j]; n.Op != 0 || n.Sym != "" || n.Kids != nil || n.Val != 0 {
				t.Fatalf("node slab %d slot %d not zeroed: %+v", i, j, n)
			}
		}
	}
	for i, s := range a.kidSets {
		for j, k := range s {
			if k != nil {
				t.Fatalf("kid slab %d slot %d not zeroed", i, j)
			}
		}
	}
	// Refilling reuses the retained slabs in order and grows none.
	first := &a.slabs[0][0]
	if n := a.New(); n != first {
		t.Fatal("first node after Reset is not the first retained slot")
	}
	for i := 1; i < total; i++ {
		a.New()
	}
	if a.Slabs() != slabs {
		t.Fatalf("refill grew the arena to %d slabs, want %d", a.Slabs(), slabs)
	}
	// A fill after Reset produces the same structure as a fresh one.
	a.Reset()
	tree := a.Bin(Plus, Long, a.SmallConst(1), a.SmallConst(2))
	want := Bin(Plus, Long, SmallConst(1), SmallConst(2))
	if !tree.Equal(want) {
		t.Fatalf("post-Reset tree differs: %s", tree)
	}
}

// TestArenaResetCapsSlabs: an arena grown past maxSlabs drops back to the
// cap on Reset, so one pathological unit cannot pin its high-water mark
// in the pool.
func TestArenaResetCapsSlabs(t *testing.T) {
	a := NewTestArena()
	for i := 0; i < (maxSlabs+3)*nodeSlabLen; i++ {
		a.New()
	}
	for i := 0; i < (maxSlabs+2)*kidSlabLen; i++ {
		a.MakeKids(1)
	}
	if a.Slabs() != maxSlabs+3 || len(a.kidSets) != maxSlabs+2 {
		t.Fatalf("grew %d node and %d kid slabs", a.Slabs(), len(a.kidSets))
	}
	a.Reset()
	if a.Slabs() != maxSlabs || len(a.kidSets) != maxSlabs {
		t.Fatalf("after Reset: %d node and %d kid slabs, want %d each", a.Slabs(), len(a.kidSets), maxSlabs)
	}
	if cap(a.slabs) > maxSlabs {
		if s := a.slabs[:cap(a.slabs)][maxSlabs]; s != nil {
			t.Fatal("a dropped slab is still referenced from the backing array")
		}
	}
}

// TestArenaPoolRecycling churns arenas through the pool from concurrent
// goroutines; under -race this doubles as the cross-goroutine handoff
// check (sync.Pool publishes, each arena is single-owner in between).
func TestArenaPoolRecycling(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := AcquireArena()
				if a.Allocated() != 0 {
					t.Errorf("acquired dirty arena: %d nodes", a.Allocated())
					return
				}
				tree := a.Bin(Mul, Long, a.SmallConst(6), a.SmallConst(7))
				if tree.Kids[0].Val*tree.Kids[1].Val != 42 {
					t.Errorf("corrupted tree: %s", tree)
					return
				}
				a.Release()
			}
		}()
	}
	wg.Wait()
}

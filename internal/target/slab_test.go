package target

import (
	"testing"

	"ggcg/internal/ir"
)

// slot is a descriptor with the fields a pooled chunk must not keep
// alive: a symbol string and a tree node.
type slot struct {
	N   int
	Sym string
	P   *ir.Node
}

// TestSlabPointersStable: a pointer from New keeps naming its own slot
// while the slab grows by several chunks.
func TestSlabPointersStable(t *testing.T) {
	var pool SlabPool[slot]
	s := NewSlab(&pool)
	n := 3*slabChunk + 5
	ptrs := make([]*slot, n)
	for i := range ptrs {
		ptrs[i] = s.New()
		if *ptrs[i] != (slot{}) {
			t.Fatalf("slot %d not zero: %+v", i, *ptrs[i])
		}
		ptrs[i].N = i
	}
	seen := make(map[*slot]bool, n)
	for i, p := range ptrs {
		if p.N != i {
			t.Errorf("slot %d reads %d after growth", i, p.N)
		}
		if seen[p] {
			t.Errorf("slot %d handed out twice", i)
		}
		seen[p] = true
	}
	if len(s.chunks) != 4 {
		t.Errorf("%d chunks for %d slots, want 4", len(s.chunks), n)
	}
	s.Release()
}

// TestSlabReleaseZeroes: Release clears every slot handed out, so a chunk
// back in the pool holds no string and no node, and empties the slab.
func TestSlabReleaseZeroes(t *testing.T) {
	var pool SlabPool[slot]
	s := NewSlab(&pool)
	node := &ir.Node{Op: ir.Name, Sym: "x"}
	ptrs := make([]*slot, 2*slabChunk+3)
	for i := range ptrs {
		ptrs[i] = s.New()
		*ptrs[i] = slot{N: i + 1, Sym: "sym", P: node}
	}
	s.Release()
	for i, p := range ptrs {
		if *p != (slot{}) {
			t.Errorf("slot %d after release: %+v", i, *p)
		}
	}
	if len(s.chunks) != 0 || s.used != 0 {
		t.Errorf("released slab keeps %d chunks, %d used", len(s.chunks), s.used)
	}
}

// TestSlabReuseAfterRelease: a slab used again after Release, and another
// slab on the same pool, hand out zero values only.
func TestSlabReuseAfterRelease(t *testing.T) {
	var pool SlabPool[slot]
	s := NewSlab(&pool)
	for round := 0; round < 3; round++ {
		other := NewSlab(&pool)
		for i := 0; i < slabChunk+7; i++ {
			for _, sl := range []*Slab[slot]{&s, &other} {
				p := sl.New()
				if *p != (slot{}) {
					t.Fatalf("round %d slot %d not zero: %+v", round, i, *p)
				}
				*p = slot{N: i + 1, Sym: "dirty"}
			}
		}
		s.Release()
		other.Release()
	}
}

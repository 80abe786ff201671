package target

import "sync"

// slabChunk is the number of descriptors in one chunk of a Slab.
const slabChunk = 64

// SlabPool recycles the chunks of the slabs drawn from it. A backend
// declares one for its operand descriptor type; every generator of that
// backend draws its slab's chunks from it, so in steady state a function's
// descriptors cost no heap allocation at all.
type SlabPool[T any] struct{ p sync.Pool }

func (p *SlabPool[T]) get() *[slabChunk]T {
	if c, ok := p.p.Get().(*[slabChunk]T); ok {
		return c
	}
	return new([slabChunk]T)
}

// Slab is a per-function arena of operand descriptors (the attributes a
// reduction condenses its pattern into, §5.2). It hands out pointers into
// fixed-size chunks, so a pointer stays valid as the slab grows, and it
// returns every chunk to its pool when released. A pointer from New is
// valid only until Release.
type Slab[T any] struct {
	pool   *SlabPool[T]
	chunks []*[slabChunk]T
	used   int // slots handed out from the last chunk
}

// NewSlab returns an empty slab drawing its chunks from pool.
func NewSlab[T any](pool *SlabPool[T]) Slab[T] { return Slab[T]{pool: pool} }

// New returns a pointer to a zero-valued slot.
func (s *Slab[T]) New() *T {
	if len(s.chunks) == 0 || s.used == slabChunk {
		s.chunks = append(s.chunks, s.pool.get())
		s.used = 0
	}
	s.used++
	return &s.chunks[len(s.chunks)-1][s.used-1]
}

// Release zeroes every slot handed out, so a pooled chunk holds on to no
// string or node, and returns the chunks to the pool. The slab is empty
// afterwards and may be used again.
func (s *Slab[T]) Release() {
	for i, c := range s.chunks {
		n := slabChunk
		if i == len(s.chunks)-1 {
			n = s.used
		}
		clear(c[:n])
		s.pool.p.Put(c)
		s.chunks[i] = nil
	}
	s.chunks = s.chunks[:0]
	s.used = 0
}

package simcore

import (
	"testing"
	"testing/quick"
)

// Property: extend/truncation of stored values behaves like the Go integer
// conversions of the corresponding width.
func TestExtendProperty(t *testing.T) {
	f := func(v int64) bool {
		return Extend(uint64(v), 1, false) == int64(int8(v)) &&
			Extend(uint64(v), 2, false) == int64(int16(v)) &&
			Extend(uint64(v), 4, false) == int64(int32(v)) &&
			Extend(uint64(v), 1, true) == int64(uint8(v)) &&
			Extend(uint64(v), 2, true) == int64(uint16(v)) &&
			Extend(uint64(v), 4, true) == int64(uint32(v))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: memory store/load round trips at every size and address.
func TestMemoryRoundTripProperty(t *testing.T) {
	mem := make(Memory, DefaultMemory)
	f := func(addr uint32, v int64, sz uint8) bool {
		size := []int{1, 2, 4, 8}[sz%4]
		a := dataBase + addr%4096
		mem.Store(a, size, uint64(v))
		got := mem.Load(a, size)
		mask := ^uint64(0)
		if size < 8 {
			mask = 1<<(8*uint(size)) - 1
		}
		return got == uint64(v)&mask
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestMemoryWraps: an access that runs off the end of memory wraps to
// address zero instead of faulting.
func TestMemoryWraps(t *testing.T) {
	mem := make(Memory, 16)
	mem.Store(14, 4, 0x44332211)
	if mem[14] != 0x11 || mem[15] != 0x22 || mem[0] != 0x33 || mem[1] != 0x44 {
		t.Errorf("wrapped store = % x", mem)
	}
	if got := mem.Load(14, 4); got != 0x44332211 {
		t.Errorf("wrapped load = %#x", got)
	}
	// An address past the end wraps too, even when the access would fit.
	mem.Store(18, 2, 0x6655)
	if mem[2] != 0x55 || mem[3] != 0x66 || mem.Load(2, 2) != 0x6655 || mem.Load(18, 2) != 0x6655 {
		t.Errorf("store past the end = % x", mem)
	}
}

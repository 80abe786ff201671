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
	var mem Memory
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
	var mem Memory
	const end = DefaultMemory
	at := func(a uint32) uint64 { return mem.Load(a, 1) }
	mem.Store(end-2, 4, 0x44332211)
	if at(end-2) != 0x11 || at(end-1) != 0x22 || at(0) != 0x33 || at(1) != 0x44 {
		t.Errorf("wrapped store = % x", []uint64{at(end - 2), at(end - 1), at(0), at(1)})
	}
	if got := mem.Load(end-2, 4); got != 0x44332211 {
		t.Errorf("wrapped load = %#x", got)
	}
	// An address past the end wraps too, even when the access would fit.
	mem.Store(end+2, 2, 0x6655)
	if at(2) != 0x55 || at(3) != 0x66 || mem.Load(2, 2) != 0x6655 || mem.Load(end+2, 2) != 0x6655 {
		t.Errorf("store past the end = % x", []uint64{at(2), at(3)})
	}
}

// TestMemoryPages: untouched memory reads zero without being allocated,
// an access straddling two pages reads back what it stored, and clear
// zeroes what was stored while keeping the pages.
func TestMemoryPages(t *testing.T) {
	var mem Memory
	if mem.Load(0x5000, 8) != 0 || mem.Load(pageSize-3, 8) != 0 || len(mem.used) != 0 {
		t.Fatalf("fresh memory: loads %#x, %d pages allocated", mem.Load(0x5000, 8), len(mem.used))
	}
	mem.Store(pageSize-3, 8, 0x0807060504030201)
	if got := mem.Load(pageSize-3, 8); got != 0x0807060504030201 {
		t.Errorf("straddling load = %#x", got)
	}
	if got := mem.Load(pageSize, 4); got != 0x07060504 {
		t.Errorf("second page = %#x", got)
	}
	if len(mem.used) != 2 {
		t.Errorf("%d pages allocated, want 2", len(mem.used))
	}
	mem.clear()
	if got := mem.Load(pageSize-3, 8); got != 0 || len(mem.used) != 2 {
		t.Errorf("after clear: load %#x, %d pages", got, len(mem.used))
	}
}

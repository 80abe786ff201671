// Package target defines the machine-specific seam of the table-driven
// code generator. The paper's central claim (§3) is that everything a
// retarget needs lives in a machine description grammar, an instruction
// table with its idioms, and a register manager; Machine is that claim
// stated as a Go interface. The target-neutral phases — tree
// transformation, the table constructor, the pattern matcher, the output
// stitching in internal/codegen — see a backend only through this
// package, and backends announce themselves in a process-wide registry so
// callers select one by name (ggcg.Config.Target, ggcc -target).
//
// The package also holds the backend skeleton every machine shares: the
// description loader (Desc), which binds each production to its semantic
// routine (Routines) as the description loads, the per-function generator
// state (GenBase) with its pooled operand slab (Slab), the emitter and
// data directives (Emitter, EmitGlobals), and the §5.3.3 register
// manager (RegMan), which a machine instantiates over its operand type
// with a few spill and move hooks. A backend keeps
// only what differs: its description text, operand algebra, routine
// table, function header and peephole rules.
package target

import (
	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/matcher"
	"ggcg/internal/obs"
	"ggcg/internal/peep"
	"ggcg/internal/tablegen"
)

// Machine is one backend: a machine description plus the hand-written
// machine-specific halves of the generator. Implementations must be
// goroutine-safe values — every method may be called from any number of
// concurrent compilations. A backend embeds a *Desc for the description
// methods (Name through TableID), which build the grammar and tables once
// per process, the static half of the system.
type Machine interface {
	// Name is the registry key ("vax", "risc"); it is folded into compile
	// cache fingerprints, so two machines may never share a name.
	Name() string

	// Grammar returns the type-replicated machine description, parsed and
	// validated; immutable once built.
	Grammar() (*cgram.Grammar, error)

	// GenericStats sizes the pre-replication description (the "458
	// productions" row of the paper's §8 table).
	GenericStats() (cgram.Stats, error)

	// Tables returns the constructed instruction-selection tables, built
	// once per process and shared read-only by every compilation.
	Tables() (*tablegen.Tables, error)

	// TableID returns a content hash of the tables' wire encoding. Any
	// change to the description or the constructor changes the ID; the
	// compile cache uses it (together with Name) as the table-identity
	// half of its fingerprint.
	TableID() (string, error)

	// NewGen returns the instruction-generation phase for one function:
	// the semantic routines the matcher's reductions invoke, wired to a
	// fresh register manager and emitting into body. Labels are numbered
	// from labelBase so they stay unique across the output file.
	NewGen(body *Emitter, f *ir.Func, labelBase int) Gen

	// FuncHeader writes a function's label/prologue and allocates its
	// frame; called after the body is generated, when the frame size
	// (including spill temporaries) is known.
	FuncHeader(e *Emitter, name string, frameBytes int)

	// Peephole runs the machine's assembly-level peephole idiom set over
	// generated output (the alternative organization §6.1 discusses).
	Peephole(asm string) (string, peep.Stats)

	// NewSim assembles the machine's generated output for execution on
	// its bundled simulator, or errors when the target has none.
	NewSim(asm string) (Sim, error)
}

// Gen is a target's per-function instruction generator: the
// matcher.Semantics the reductions drive, plus the little surface the
// target-neutral driver needs from the register manager.
type Gen interface {
	matcher.Semantics

	// Phase1Busy marks an allocatable register as owned by the tree-
	// transformation phase for the current span of statements (§5.3.3).
	Phase1Busy(r int, busy bool)

	// CheckStatementEnd verifies the stack discipline at a statement
	// boundary: no phase-3 register may remain allocated.
	CheckStatementEnd() error

	// Stats reports the generator's work counters for the function.
	Stats() GenStats

	// Release returns the generator's pooled operand descriptors once the
	// function is done; no attribute the generator produced may be used
	// afterwards.
	Release()
}

// GenStats are the per-function instruction-generation counters every
// backend reports.
type GenStats struct {
	Spills        int // registers spilled to virtual registers
	BindingIdioms int // three-address forms bound to two-address forms
	RangeIdioms   int // increment/decrement/clear simplifications
}

// Sim executes a target's generated assembly; the differential oracles
// and the -run CLIs drive targets through it.
type Sim interface {
	// Call resets the machine and invokes the named function (assembler-
	// level name, with underscore) with longword arguments, returning its
	// integer result.
	Call(fn string, args ...int64) (int64, error)

	// ReadGlobal reads size bytes of the named global (assembler-level
	// name) as a signed integer.
	ReadGlobal(name string, size int) (int64, error)

	// Steps returns the number of simulated instructions executed.
	Steps() int64

	// Profile snapshots the dynamic execution profile: opcode and
	// addressing-mode frequencies and, once EnableFuncProfile is on,
	// per-function step counts.
	Profile() obs.SimProfile

	// EnableFuncProfile turns on per-function step attribution.
	EnableFuncProfile()
}

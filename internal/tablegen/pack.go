package tablegen

// Comb-vector table compression (the yacc/bison row-displacement scheme the
// instruction-selection literature credits with making table-driven
// selectors production-viable). The dense ACTION matrix is
// states x (terminals+1) and overwhelmingly error or one dominant
// reduction per row; the dense GOTO matrix is states x nonterminals and
// overwhelmingly -1 or one dominant successor per column. Packed stores,
// per row (per column for GOTO), only the entries that differ from the
// row's most frequent entry, overlapped into shared next/check arrays at a
// per-row displacement. Lookup is two array indexes and one comparison —
// no maps, no pointer chasing — and is EXACTLY equivalent to the dense
// lookup, error entries included, because entries that differ from the
// default (error entries among them) are always stored explicitly.

// PackAction encodes an Action as a single int32: the kind in the low
// three bits, the argument in the remaining 29 (state and production
// counts are bounded far below 2^29 by the item encoding). The zero code
// is the error action, so a missing entry decodes to ActErr.
func PackAction(a Action) int32 { return a.Arg<<3 | int32(a.Kind) }

// UnpackAction decodes a packed action code.
func UnpackAction(code int32) Action {
	return Action{Kind: ActionKind(code & 7), Arg: code >> 3}
}

// Packed is the comb-vector form of Tables: flat int32 arrays sized by the
// useful entries rather than the full matrices, built once at Build time
// (or shipped) and driven by the matcher's hot loop.
type Packed struct {
	NumTerms    int32 // terminal count; the end marker's id is NumTerms
	NumNonterms int32
	NumStates   int32

	// ACTION comb, packed by state row and keyed by terminal id.
	// Lookup(s, t): i := Base[s]+t; if Check[i] == t then Next[i] else
	// Default[s]. Default is the row's most frequent action code, which
	// for the common "reduce on every follow terminal" rows is the
	// default-reduce the issue's yacc lineage calls for.
	Base    []int32 // per state: displacement into Next/Check
	Default []int32 // per state: action code on a check miss
	Next    []int32 // packed action codes
	Check   []int32 // terminal id owning each slot; -1 free

	// GOTO comb, packed by nonterminal column and keyed by state id
	// (columns compress better than rows: each nonterminal has one or two
	// dominant successor states).
	GBase    []int32 // per nonterminal: displacement into GNext/GCheck
	GDefault []int32 // per nonterminal: successor on a check miss; -1 none
	GNext    []int32 // packed successor states
	GCheck   []int32 // state id owning each slot; -1 free

	// ProdLHS maps a production index (1-based, as in reduce actions) to
	// the nonterminal id of its left hand side, so the reduce path
	// resolves its goto without a map lookup. Entry 0 is the augmented
	// rule and unused.
	ProdLHS []int32

	// Choices aliases the dense tables' dynamic-choice lists.
	Choices [][]int32
}

// Lookup returns the action for a state on a terminal id, exactly as the
// dense Tables.Lookup reports it.
func (p *Packed) Lookup(state, term int) Action {
	return UnpackAction(p.LookupCode(int32(state), int32(term)))
}

// LookupCode is the hot-loop form of Lookup: it returns the packed action
// code without materializing an Action.
func (p *Packed) LookupCode(state, term int32) int32 {
	i := p.Base[state] + term
	if uint32(i) < uint32(len(p.Check)) && p.Check[i] == term {
		return p.Next[i]
	}
	return p.Default[state]
}

// GotoState returns the successor of state under a nonterminal id, or -1,
// exactly as the dense Tables.GotoState reports it.
func (p *Packed) GotoState(state, nt int32) int32 {
	i := p.GBase[nt] + state
	if uint32(i) < uint32(len(p.GCheck)) && p.GCheck[i] == state {
		return p.GNext[i]
	}
	return p.GDefault[nt]
}

// Bytes returns the measured byte size of the packed arrays (four bytes
// per int32 element, including the choice lists).
func (p *Packed) Bytes() int {
	n := len(p.Base) + len(p.Default) + len(p.Next) + len(p.Check) +
		len(p.GBase) + len(p.GDefault) + len(p.GNext) + len(p.GCheck) +
		len(p.ProdLHS)
	for _, c := range p.Choices {
		n += len(c)
	}
	return 4 * n
}

// combRow is one row (or transposed column) handed to the comb packer:
// the explicit entries that differ from the row's default.
type combRow struct {
	index int
	keys  []int32 // ascending
	vals  []int32
	def   int32
}

// packComb overlaps rows into shared next/check arrays by first-fit row
// displacement, deduplicating identical rows. width is the key universe
// size (a row with no explicit entries gets base -width, which misses for
// every key). It returns per-row base and default arrays plus the combs.
func packComb(rows []combRow, width int32) (base, def, next, check []int32) {
	base = make([]int32, len(rows))
	def = make([]int32, len(rows))
	for _, r := range rows {
		def[r.index] = r.def
	}

	// Densest rows first: they are the hardest to place, and the sparse
	// rows then fill the holes they leave.
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && len(rows[order[j]].keys) > len(rows[order[j-1]].keys); j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	// Rows with identical explicit entries share one set of slots; the
	// per-row default is kept outside the comb, so sharing is independent
	// of it. Distinct rows must get distinct bases: check stores the key,
	// so a key stored by one row would alias into any other row packed at
	// the same displacement.
	shared := make(map[string]int32)
	usedBase := make(map[int32]bool)

	for _, ri := range order {
		r := rows[ri]
		if len(r.keys) == 0 {
			// All-default rows share one base that misses for every key
			// in the universe (it cannot collide with a real base, which
			// is always at least -(width-1)).
			base[r.index] = -width
			continue
		}
		s := rowKey(r)
		if b, ok := shared[s]; ok {
			base[r.index] = b
			continue
		}
		// First-fit: the displacement must keep every slot in range, be
		// unclaimed by any other row, and find every needed slot free.
		d := -r.keys[0]
	search:
		for {
			if usedBase[d] {
				d++
				continue search
			}
			end := d + r.keys[len(r.keys)-1]
			for int(end) >= len(check) {
				next = append(next, 0)
				check = append(check, -1)
			}
			for _, k := range r.keys {
				if check[d+k] != -1 {
					d++
					continue search
				}
			}
			break
		}
		for i, k := range r.keys {
			next[d+k] = r.vals[i]
			check[d+k] = k
		}
		base[r.index] = d
		shared[s] = d
		usedBase[d] = true
	}
	return base, def, next, check
}

// rowKey is a deduplication signature over a row's explicit entries.
func rowKey(r combRow) string {
	buf := make([]byte, 0, 8*len(r.keys))
	for i, k := range r.keys {
		v := r.vals[i]
		buf = append(buf, byte(k), byte(k>>8), byte(k>>16), byte(k>>24),
			byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(buf)
}

// mostFrequent returns the value occurring most often in vals; ties go to
// the smaller value so packing is deterministic.
func mostFrequent(vals []int32) int32 {
	counts := make(map[int32]int, 8)
	for _, v := range vals {
		counts[v]++
	}
	var best int32
	bestN := -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}

// Pack builds the comb-vector form of the tables. The result is exactly
// lookup-equivalent to the dense form for every (state, symbol) pair; the
// differential tests and the corpus golden guard hold the two together.
func (t *Tables) Pack() *Packed {
	nT := int32(len(t.Terms))
	nNT := int32(len(t.Nonterms))
	nS := int32(len(t.Action))
	p := &Packed{
		NumTerms:    nT,
		NumNonterms: nNT,
		NumStates:   nS,
		Choices:     t.Choices,
	}

	// ACTION rows: keyed by terminal id (width nT+1 for the end marker).
	arows := make([]combRow, nS)
	codes := make([]int32, nT+1)
	for s := range t.Action {
		for term, a := range t.Action[s] {
			codes[term] = PackAction(a)
		}
		def := mostFrequent(codes)
		r := combRow{index: s, def: def}
		for term, c := range codes {
			if c != def {
				r.keys = append(r.keys, int32(term))
				r.vals = append(r.vals, c)
			}
		}
		arows[s] = r
	}
	p.Base, p.Default, p.Next, p.Check = packComb(arows, nT+1)

	// GOTO columns: keyed by state id.
	gcols := make([]combRow, nNT)
	col := make([]int32, nS)
	for nt := int32(0); nt < nNT; nt++ {
		for s := int32(0); s < nS; s++ {
			col[s] = t.Goto[s][nt]
		}
		def := mostFrequent(col)
		r := combRow{index: int(nt), def: def}
		for s, g := range col {
			if g != def {
				r.keys = append(r.keys, int32(s))
				r.vals = append(r.vals, g)
			}
		}
		gcols[nt] = r
	}
	p.GBase, p.GDefault, p.GNext, p.GCheck = packComb(gcols, nS)

	// Reduce-path goto ids, resolved once here instead of per reduction.
	p.ProdLHS = make([]int32, len(t.Grammar.Prods)+1)
	for i, pr := range t.Grammar.Prods {
		p.ProdLHS[i+1] = int32(t.ntID[pr.LHS])
	}
	return p
}

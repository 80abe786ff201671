package tablegen

import (
	"encoding/gob"
	"fmt"
	"io"

	"ggcg/internal/cgram"
)

// EncodingVersion identifies the wire format Encode writes. Version 2
// ships the comb-vector (packed) form of the tables; the dense form is
// reconstructed from it at Decode time, which is cheap and — because the
// packed form is exactly lookup-equivalent — lossless. Version 1 (the
// unversioned dense gob of earlier revisions) is rejected with a clear
// error so stale table files fail fast instead of mis-decoding.
const EncodingVersion = 2

// wireTables is the serialized form of Tables. The grammar travels as its
// textual rendering so the two sides agree on production indices and symbol
// numbering, which are derived deterministically from the text; the tables
// travel in comb-vector form.
type wireTables struct {
	Version     int
	GrammarText string
	Start       string
	Packed      Packed
	Conflicts   []Conflict
	SemBlocks   []SemBlock
	Stats       BuildStats
}

// Encode writes the tables in a binary form Decode can read, so that the
// static table-construction step can be run once per target machine and
// its output shipped with the code generator (§3). The packed form is what
// goes on the wire.
func (t *Tables) Encode(w io.Writer) error {
	wt := wireTables{
		Version:     EncodingVersion,
		GrammarText: t.Grammar.String(),
		Start:       t.Grammar.Start,
		Packed:      *t.packed,
		Conflicts:   t.Conflicts,
		SemBlocks:   t.SemBlocks,
		Stats:       t.Stats,
	}
	return gob.NewEncoder(w).Encode(&wt)
}

// Decode reads tables written by Encode, rebuilding the dense matrices
// from the packed form.
func Decode(r io.Reader) (*Tables, error) {
	var wt wireTables
	if err := gob.NewDecoder(r).Decode(&wt); err != nil {
		return nil, fmt.Errorf("tablegen: decode: %v", err)
	}
	if wt.Version != EncodingVersion {
		return nil, fmt.Errorf("tablegen: decode: encoded tables are version %d, need version %d; re-encode with ggtables -encode",
			wt.Version, EncodingVersion)
	}
	g, err := cgram.Parse(wt.GrammarText)
	if err != nil {
		return nil, fmt.Errorf("tablegen: decode grammar: %v", err)
	}
	p := &wt.Packed
	t, err := wrap(g, p)
	if err != nil {
		return nil, fmt.Errorf("tablegen: decode: %v", err)
	}
	t.Conflicts, t.SemBlocks, t.Stats = wt.Conflicts, wt.SemBlocks, wt.Stats
	// Rebuild the dense matrices by exhaustive packed lookup; exact
	// equivalence of the two forms makes this a lossless inverse of Pack.
	t.Action = make([][]Action, p.NumStates)
	t.Goto = make([][]int32, p.NumStates)
	for s := int32(0); s < p.NumStates; s++ {
		arow := make([]Action, p.NumTerms+1)
		for term := int32(0); term <= p.NumTerms; term++ {
			arow[term] = UnpackAction(p.LookupCode(s, term))
		}
		grow := make([]int32, p.NumNonterms)
		for nt := int32(0); nt < p.NumNonterms; nt++ {
			grow[nt] = p.GotoState(s, nt)
		}
		t.Action[s] = arow
		t.Goto[s] = grow
	}
	t.setSummary()
	return t, nil
}

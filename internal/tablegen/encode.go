package tablegen

import (
	"encoding/gob"
	"io"
)

// EncodingVersion identifies the wire format Encode writes. Version 2
// carries the comb-vector (packed) form of the tables; version 1 was an
// unversioned dense gob. ID hashes it with the encoding, and the compile
// cache's fingerprint carries it.
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

// Encode writes the tables' wire encoding: the grammar text, the packed
// form, the conflicts, semantic blocks and build stats. Nothing reads it
// back (tables ship as Go source, see Shipped); it is what ID hashes, so
// the table identity covers everything a build decided.
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

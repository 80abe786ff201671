package target

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"ggcg/internal/cgram"
	"ggcg/internal/ir"
	"ggcg/internal/mdgen"
	"ggcg/internal/tablegen"
)

// Desc is a backend's machine description: the generic description text
// it writes, and everything the static half of the system (§3) builds
// from that text — the type-replicated grammar, the generic statistics,
// the instruction-selection tables and their content hash — each built
// once per process on first use. The built objects are immutable and
// shared read-only by every concurrent compilation. A backend's Machine
// embeds a *Desc, which supplies its Name, Grammar, GenericStats, Tables
// and TableID methods.
type Desc struct {
	name    string
	grammar func() (*cgram.Grammar, error)
	stats   func() (cgram.Stats, error)
	tables  func() (*tablegen.Tables, error)
	tableID func() (string, error)
}

// NewDesc returns the description of the machine called name (the
// registry key, which also prefixes its errors) from its generic
// description text.
func NewDesc(name, generic string) *Desc {
	d := &Desc{name: name}
	d.grammar = sync.OnceValues(func() (*cgram.Grammar, error) {
		expanded, err := mdgen.Expand(generic)
		if err != nil {
			return nil, err
		}
		g, err := cgram.Parse(expanded)
		if err != nil {
			return nil, err
		}
		if err := g.Validate(ir.TermArity); err != nil {
			return nil, fmt.Errorf("%s: %v", name, err)
		}
		return g, nil
	})
	d.stats = sync.OnceValues(func() (cgram.Stats, error) {
		g, err := cgram.Parse(mdgen.Generic(generic))
		if err != nil {
			return cgram.Stats{}, err
		}
		return g.Stats(), nil
	})
	d.tables = sync.OnceValues(func() (*tablegen.Tables, error) {
		g, err := d.grammar()
		if err != nil {
			return nil, err
		}
		return tablegen.Build(g, tablegen.Options{})
	})
	d.tableID = sync.OnceValues(func() (string, error) {
		t, err := d.tables()
		if err != nil {
			return "", err
		}
		h := sha256.New()
		fmt.Fprintf(h, "encoding=%d\n", tablegen.EncodingVersion)
		if err := t.Encode(h); err != nil {
			return "", fmt.Errorf("%s: hashing tables: %v", name, err)
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	})
	return d
}

// Name is the machine's registry key.
func (d *Desc) Name() string { return d.name }

// Grammar returns the type-replicated description, expanded, parsed and
// validated once per process.
func (d *Desc) Grammar() (*cgram.Grammar, error) { return d.grammar() }

// GenericStats sizes the generic (pre-replication) description — the
// "458 productions" row of the paper's §8 statistics table.
func (d *Desc) GenericStats() (cgram.Stats, error) { return d.stats() }

// Tables returns the constructed instruction-selection tables, built once
// per process.
func (d *Desc) Tables() (*tablegen.Tables, error) { return d.tables() }

// TableID returns a hex content hash identifying the tables: the SHA-256
// of their wire encoding (grammar text, packed action/goto combs,
// conflicts, semantic blocks, build stats) plus the encoding version. Any
// change to the description or the table constructor changes the ID,
// which is what makes it safe as the table-identity half of a
// compile-cache fingerprint.
func (d *Desc) TableID() (string, error) { return d.tableID() }
